// Command pufferctl is the client for the pufferd placement job daemon.
//
// Usage:
//
//	pufferctl [-addr http://127.0.0.1:8080] <command> [args]
//
// Commands:
//
//	submit   submit a job (synthetic profile or Bookshelf upload); -watch streams it
//	explore  run a distributed strategy exploration on the fleet; -out saves the tuned strategy
//	status   print a job's durable manifest
//	watch    stream a job's progress (SSE) until it finishes
//	result   print a finished job's result summary
//	artifact download a spooled artifact (report.json, trace.json, …)
//	cancel   cancel a queued or running job
//	list     list all jobs the daemon knows
//	wait     poll until a job reaches a terminal state
//	session  interactive ECO sessions: open | delta | status | watch | close | list
//	top      render the daemon's operational snapshot (/api/v1/ops)
//	fleet    render a coordinator's worker registry (/api/v1/nodes)
//
// Against a fleet coordinator every job command works unchanged — the
// coordinator proxies status, results, artifacts, and event streams.
// submit additionally honors -tenant (fair-share lane) and -nocache
// (bypass the coordinator's content-addressed result cache).
//
// submit honors the daemon's backpressure: with -retry N, a 429 response
// is retried up to N times after the server's Retry-After hint.
//
// submit -trace out.json starts a client span, propagates its W3C
// traceparent to the daemon, waits for the job, and merges the client and
// daemon Chrome traces into one Perfetto-loadable file whose spans — HTTP
// handling, queue wait, pipeline stages, place.gp shards — share a single
// trace ID.
//
// The daemon address can also come from the PUFFERD_ADDR environment
// variable. Exit status is non-zero when the addressed job failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"puffer/internal/obs"
)

func main() {
	addr := flag.String("addr", envOr("PUFFERD_ADDR", "http://127.0.0.1:8080"), "pufferd base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: pufferctl [-addr URL] {submit|explore|status|watch|result|artifact|cancel|list|wait|session|top|fleet} ...")
		os.Exit(2)
	}
	c := &client{base: strings.TrimSuffix(*addr, "/")}
	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "submit":
		err = c.submit(rest)
	case "explore":
		err = c.explore(rest)
	case "status":
		err = c.getJSON(rest, "status <id>", "/api/v1/jobs/%s")
	case "result":
		err = c.getJSON(rest, "result <id>", "/api/v1/jobs/%s/result")
	case "watch":
		err = c.watch(rest)
	case "artifact":
		err = c.artifact(rest)
	case "cancel":
		err = c.cancel(rest)
	case "list":
		err = c.list()
	case "wait":
		err = c.wait(rest)
	case "session":
		err = c.session(rest)
	case "top":
		err = c.top()
	case "fleet":
		err = c.fleet()
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pufferctl:", err)
		os.Exit(1)
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

type client struct{ base string }

// checkStatus turns non-2xx responses into errors carrying the body.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode/100 == 2 {
		return nil
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := strings.TrimSpace(string(body))
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		return fmt.Errorf("%s (Retry-After: %ss): %s", resp.Status, ra, msg)
	}
	return fmt.Errorf("%s: %s", resp.Status, msg)
}

func (c *client) submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		kind     = fs.String("kind", "place", "job kind: place | explore")
		profile  = fs.String("profile", "", "synthetic benchmark profile name")
		scale    = fs.Int("scale", 800, "profile scale divisor")
		seed     = fs.Int64("seed", 1, "random seed")
		aux      = fs.String("aux", "", "Bookshelf .aux file to upload (with its sibling files)")
		iters    = fs.Int("iters", 0, "max global placement iterations (0 = default)")
		workers  = fs.Int("workers", 0, "cap job parallelism (0 = GOMAXPROCS)")
		route    = fs.Bool("route", false, "append the evaluation-routing stage")
		strategy = fs.String("strategy", "", "JSON strategy file (cmd/explore -out format)")
		budget   = fs.Int("budget", 0, "exploration trial budget (explore jobs)")
		timeout  = fs.Duration("timeout", 0, "per-job deadline (0 = server default)")
		watch    = fs.Bool("watch", false, "stream progress until the job finishes")
		retry    = fs.Int("retry", 0, "retry a full queue up to N times, honoring Retry-After")
		trace    = fs.String("trace", "", "wait for the job and write a merged client+daemon Chrome trace here")
		tenant   = fs.String("tenant", "", "tenant name for fleet fair-share scheduling (coordinator only)")
		nocache  = fs.Bool("nocache", false, "force a full run even if the coordinator has a cached result")
	)
	fs.Parse(args)

	spec := map[string]any{"kind": *kind, "scale": *scale, "seed": *seed}
	if *profile != "" {
		spec["profile"] = *profile
	}
	if *aux != "" {
		files, err := inlineBookshelf(*aux)
		if err != nil {
			return err
		}
		spec["bookshelf"] = files
	}
	if *iters > 0 {
		spec["max_iters"] = *iters
	}
	if *workers > 0 {
		spec["workers"] = *workers
	}
	if *route {
		spec["route"] = true
	}
	if *budget > 0 {
		spec["budget"] = *budget
	}
	if *timeout > 0 {
		spec["timeout_sec"] = timeout.Seconds()
	}
	if *strategy != "" {
		data, err := os.ReadFile(*strategy)
		if err != nil {
			return err
		}
		spec["strategy"] = json.RawMessage(data)
	}
	if *nocache {
		spec["nocache"] = true
	}

	// With -trace, this process becomes the root of the distributed trace:
	// the submit span's traceparent rides the POST, the daemon roots its
	// serve.job span under it, and after the job finishes the two Chrome
	// traces merge into one tree on one time axis.
	var (
		tracer      *obs.Tracer
		clientSpan  *obs.Span
		traceparent string
	)
	if *trace != "" {
		tracer = obs.NewTracer()
		clientSpan = tracer.StartSpan("client.submit")
		traceparent = clientSpan.TraceContext().Traceparent()
	}

	body, _ := json.Marshal(spec)
	postStart := time.Now()
	resp, err := c.postWithRetry(c.base+"/api/v1/jobs", body, *retry, traceparent, *tenant)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	var m struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		CacheHit bool   `json:"cache_hit"`
	}
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	clientSpan.RecordChild("client.request", postStart, time.Since(postStart))
	clientSpan.SetArg("job", m.ID)
	if m.CacheHit {
		fmt.Printf("job %s %s (cache hit)\n", m.ID, m.State)
	} else {
		fmt.Printf("job %s %s\n", m.ID, m.State)
	}
	if *trace == "" {
		if *watch {
			return c.streamEvents(m.ID)
		}
		return nil
	}

	var watchErr error
	waitStart := time.Now()
	if *watch {
		watchErr = c.streamEvents(m.ID)
	}
	state, errMsg, err := c.waitTerminal(m.ID, 500*time.Millisecond, 15*time.Minute)
	if err != nil {
		return err
	}
	clientSpan.RecordChild("client.wait", waitStart, time.Since(waitStart))
	if err := c.writeMergedTrace(tracer, clientSpan, m.ID, *trace); err != nil {
		return err
	}
	if watchErr != nil {
		return watchErr
	}
	if state != "done" {
		return fmt.Errorf("job %s %s: %s", m.ID, state, errMsg)
	}
	return nil
}

// explore submits a distributed strategy exploration to a fleet
// coordinator: every TPE trial runs as its own place job across the
// workers, the controller checkpoints for durable resume, and the tuned
// strategy document comes back as an artifact (-out saves it locally).
func (c *client) explore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	var (
		profile   = fs.String("profile", "", "synthetic benchmark profile name")
		scale     = fs.Int("scale", 800, "profile scale divisor")
		seed      = fs.Int64("seed", 1, "random seed (drives the trial schedule)")
		aux       = fs.String("aux", "", "Bookshelf .aux file to upload (with its sibling files)")
		budget    = fs.Int("budget", 0, "trials per exploration call (0 = server default 8)")
		iters     = fs.Int("iters", 0, "max global placement iterations per trial (0 = default)")
		earlyStop = fs.Bool("early-stop", false, "cancel dominated trials mid-flight (trades determinism for wall clock)")
		warm      = fs.Bool("warm", false, "seed TPE priors/ranges from prior explorations of the same design family")
		timeout   = fs.Duration("timeout", 0, "per-trial deadline (0 = server default)")
		watch     = fs.Bool("watch", false, "stream exploration progress until it finishes")
		wait      = fs.Duration("wait", 30*time.Minute, "give up waiting for the exploration after this long")
		retry     = fs.Int("retry", 0, "retry a full queue up to N times, honoring Retry-After")
		tenant    = fs.String("tenant", "", "tenant name for fleet fair-share scheduling")
		nocache   = fs.Bool("nocache", false, "recompute the exploration even if a cached result exists (finished trials still dedupe through the result index)")
		out       = fs.String("out", "", "write the tuned strategy JSON here when the exploration finishes")
	)
	fs.Parse(args)

	spec := map[string]any{"kind": "explore", "distributed": true, "scale": *scale, "seed": *seed}
	if *profile != "" {
		spec["profile"] = *profile
	}
	if *aux != "" {
		files, err := inlineBookshelf(*aux)
		if err != nil {
			return err
		}
		spec["bookshelf"] = files
	}
	if *budget > 0 {
		spec["budget"] = *budget
	}
	if *iters > 0 {
		spec["max_iters"] = *iters
	}
	if *earlyStop {
		spec["early_stop"] = true
	}
	if *warm {
		spec["warm_start"] = true
	}
	if *timeout > 0 {
		spec["timeout_sec"] = timeout.Seconds()
	}
	if *nocache {
		spec["nocache"] = true
	}

	body, _ := json.Marshal(spec)
	resp, err := c.postWithRetry(c.base+"/api/v1/jobs", body, *retry, "", *tenant)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	var m struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if m.CacheHit {
		fmt.Printf("exploration %s %s (cache hit)\n", m.ID, m.State)
	} else {
		fmt.Printf("exploration %s %s\n", m.ID, m.State)
	}

	var watchErr error
	if *watch {
		watchErr = c.streamEvents(m.ID)
	}
	state, errMsg, err := c.waitTerminal(m.ID, 500*time.Millisecond, *wait)
	if err != nil {
		return err
	}
	if state != "done" {
		return fmt.Errorf("exploration %s %s: %s", m.ID, state, errMsg)
	}
	var res struct {
		Trials    int     `json:"trials"`
		BestScore float64 `json:"best_score"`
		RuntimeMS float64 `json:"runtime_ms"`
	}
	if raw, err := c.fetchResult(m.ID); err == nil {
		json.Unmarshal(raw, &res)
	}
	fmt.Printf("exploration %s done: %d trials, best score %g, %.0fms\n",
		m.ID, res.Trials, res.BestScore, res.RuntimeMS)
	if *out != "" {
		data, err := c.fetchArtifact(m.ID, "strategy.json")
		if err != nil {
			return fmt.Errorf("fetch tuned strategy: %w", err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("tuned strategy: %s (%d bytes)\n", *out, len(data))
	}
	return watchErr
}

// fetchResult downloads a finished job's result document.
func (c *client) fetchResult(id string) ([]byte, error) {
	resp, err := http.Get(c.base + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return nil, err
	}
	return io.ReadAll(resp.Body)
}

// waitTerminal polls the job manifest until it leaves the live states,
// returning the terminal state and error message.
func (c *client) waitTerminal(id string, poll, timeout time.Duration) (state, errMsg string, err error) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(c.base + "/api/v1/jobs/" + id)
		if err != nil {
			return "", "", err
		}
		var m struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if serr := checkStatus(resp); serr != nil {
			return "", "", serr
		}
		if decErr != nil {
			return "", "", decErr
		}
		switch m.State {
		case "queued", "running", "":
		default:
			return m.State, m.Error, nil
		}
		if time.Now().After(deadline) {
			return "", "", fmt.Errorf("job %s still %s after %s", id, m.State, timeout)
		}
		time.Sleep(poll)
	}
}

// writeMergedTrace ends the client span and merges the client tracer with
// the job's spooled trace artifact into one Chrome trace file. A job that
// died before exporting a trace (canceled in queue, spool failure) still
// yields a file with the client's own spans.
func (c *client) writeMergedTrace(tracer *obs.Tracer, clientSpan *obs.Span, id, dest string) error {
	clientSpan.End()
	var clientBuf bytes.Buffer
	if err := tracer.WriteJSON(&clientBuf); err != nil {
		return err
	}
	parts := []obs.TracePart{{Process: "pufferctl", Data: clientBuf.Bytes()}}
	server, err := c.fetchArtifact(id, "trace.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pufferctl: no daemon trace for %s (%v); writing client spans only\n", id, err)
	} else {
		parts = append(parts, obs.TracePart{Process: "pufferd", Data: server})
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	merr := obs.MergeChromeTraces(f, parts...)
	if cerr := f.Close(); merr == nil {
		merr = cerr
	}
	if merr != nil {
		return merr
	}
	fmt.Printf("trace: %s (%d processes, trace_id %s)\n", dest, len(parts), tracer.TraceID())
	return nil
}

// fetchArtifact downloads one spooled artifact into memory.
func (c *client) fetchArtifact(id, name string) ([]byte, error) {
	resp, err := http.Get(c.base + "/api/v1/jobs/" + id + "/artifacts/" + name)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return nil, err
	}
	return io.ReadAll(resp.Body)
}

// postWithRetry posts body to url; a 429 response is retried up to retries
// times, sleeping out the server's Retry-After hint (a bounded default
// when the header is absent or unparsable). Any other response — success
// or failure — returns immediately. A non-empty traceparent rides every
// attempt so the daemon adopts the client's trace context; a non-empty
// tenant rides as X-Puffer-Tenant for fleet fair-share scheduling.
func (c *client) postWithRetry(url string, body []byte, retries int, traceparent, tenant string) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			req.Header.Set(obs.TraceparentHeader, traceparent)
		}
		if tenant != "" {
			req.Header.Set("X-Puffer-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= retries {
			return resp, nil
		}
		wait := 2 * time.Second
		if ra := strings.TrimSpace(resp.Header.Get("Retry-After")); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
				wait = time.Duration(secs) * time.Second
			}
		}
		if wait < time.Second {
			wait = time.Second
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		fmt.Fprintf(os.Stderr, "pufferctl: queue full; retry %d/%d in %s\n", attempt+1, retries, wait)
		time.Sleep(wait)
	}
}

// inlineBookshelf reads an .aux file and every sibling file it references,
// returning the filename → content map the submit API expects.
func inlineBookshelf(auxPath string) (map[string]string, error) {
	auxData, err := os.ReadFile(auxPath)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(auxPath)
	files := map[string]string{filepath.Base(auxPath): string(auxData)}
	for _, line := range strings.Split(string(auxData), "\n") {
		if i := strings.Index(line, ":"); i >= 0 {
			line = line[i+1:]
		}
		for _, tok := range strings.Fields(line) {
			if filepath.Ext(tok) == "" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, filepath.Base(tok)))
			if err != nil {
				return nil, fmt.Errorf("aux references %s: %w", tok, err)
			}
			files[filepath.Base(tok)] = string(data)
		}
	}
	return files, nil
}

func (c *client) getJSON(args []string, usage, pathFmt string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: pufferctl %s", usage)
	}
	resp, err := http.Get(c.base + fmt.Sprintf(pathFmt, args[0]))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func (c *client) list() error {
	resp, err := http.Get(c.base + "/api/v1/jobs")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	// Rows are job manifests (the same on a worker and a coordinator).
	var rows []struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Stage string `json:"stage"`
		Error string `json:"error"`
		Spec  struct {
			Kind    string `json:"kind"`
			Profile string `json:"profile"`
		} `json:"spec"`
		Attempts     int    `json:"attempts"`
		DesignDigest string `json:"design_digest"`
		Result       *struct {
			HPWL float64 `json:"hpwl"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return err
	}
	fmt.Printf("%-14s %-8s %-16s %-9s %-9s %3s  %s\n", "ID", "KIND", "DESIGN", "STATE", "STAGE", "TRY", "HPWL/ERROR")
	for _, r := range rows {
		// Uploads are listed without their files: a coordinator names
		// them by design digest, a worker only as an upload.
		design := r.Spec.Profile
		if design == "" {
			design = "upload"
			if d, ok := strings.CutPrefix(r.DesignDigest, "sha256-"); ok && len(d) >= 12 {
				design = "upload:" + d[:12]
			}
		}
		detail := ""
		if r.Result != nil && r.Result.HPWL > 0 {
			detail = fmt.Sprintf("%.0f", r.Result.HPWL)
		}
		if r.Error != "" {
			detail = r.Error
		}
		fmt.Printf("%-14s %-8s %-16s %-9s %-9s %3d  %s\n",
			r.ID, r.Spec.Kind, design, r.State, r.Stage, r.Attempts, detail)
	}
	return nil
}

func (c *client) cancel(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: pufferctl cancel <id>")
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/api/v1/jobs/"+args[0]+"/cancel", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func (c *client) artifact(args []string) error {
	fs := flag.NewFlagSet("artifact", flag.ExitOnError)
	out := fs.String("o", "", "output path (default: the artifact name)")
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("usage: pufferctl artifact [-o path] <id> <name>")
	}
	id, name := rest[0], rest[1]
	resp, err := http.Get(c.base + "/api/v1/jobs/" + id + "/artifacts/" + name)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	dest := *out
	if dest == "" {
		dest = name
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	n, err := io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d bytes\n", dest, n)
	return nil
}

func (c *client) watch(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: pufferctl watch <id>")
	}
	return c.streamEvents(args[0])
}

// streamEvents consumes a job's SSE stream, rendering progress lines
// until the stream ends; the final state decides the error.
func (c *client) streamEvents(id string) error {
	return c.streamEventsURL(c.base+"/api/v1/jobs/"+id+"/events", id)
}

// streamEventsURL consumes any SSE progress stream (job or session).
func (c *client) streamEventsURL(url, id string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	finalState := ""
	finalErr := ""
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e struct {
			Type        string  `json:"type"`
			State       string  `json:"state"`
			Error       string  `json:"error"`
			Stage       string  `json:"stage"`
			StageStatus string  `json:"stage_status"`
			Iters       int     `json:"iters"`
			WallMS      float64 `json:"wall_ms"`
			Series      string  `json:"series"`
			Step        int     `json:"step"`
			Value       float64 `json:"value"`
			Line        string  `json:"line"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			continue
		}
		switch e.Type {
		case "state":
			fmt.Printf("state: %s %s\n", e.State, e.Error)
			finalState, finalErr = e.State, e.Error
		case "stage":
			fmt.Printf("stage %s %s (iters=%d wall=%.0fms)\n", e.Stage, e.StageStatus, e.Iters, e.WallMS)
		case "sample":
			fmt.Printf("  %s[%d] = %g\n", e.Series, e.Step, e.Value)
		case "log":
			fmt.Println(e.Line)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	switch finalState {
	case "done", "open", "closed", "":
		return nil
	case "parked", "queued":
		fmt.Println("interrupted; it will resume when the daemon restarts")
		return nil
	default:
		return fmt.Errorf("%s %s: %s", id, finalState, finalErr)
	}
}

// session dispatches the interactive ECO session subcommands.
func (c *client) session(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: pufferctl session {open|delta|status|watch|close|list} ...")
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "open":
		return c.sessionOpen(rest)
	case "delta":
		return c.sessionDelta(rest)
	case "status":
		return c.getJSON(rest, "session status <id>", "/api/v1/sessions/%s")
	case "watch":
		if len(rest) != 1 {
			return fmt.Errorf("usage: pufferctl session watch <id>")
		}
		return c.streamEventsURL(c.base+"/api/v1/sessions/"+rest[0]+"/events", rest[0])
	case "close":
		return c.sessionClose(rest)
	case "list":
		return c.sessionList()
	default:
		return fmt.Errorf("unknown session command %q", cmd)
	}
}

// sessionOpen opens an ECO session and, by default, waits for its base
// placement before returning the session ID on stdout.
func (c *client) sessionOpen(args []string) error {
	fs := flag.NewFlagSet("session open", flag.ExitOnError)
	var (
		profile  = fs.String("profile", "", "synthetic benchmark profile name")
		scale    = fs.Int("scale", 800, "profile scale divisor")
		seed     = fs.Int64("seed", 1, "random seed")
		aux      = fs.String("aux", "", "Bookshelf .aux file to upload (with its sibling files)")
		iters    = fs.Int("iters", 0, "max cold global placement iterations (0 = default)")
		workers  = fs.Int("workers", 0, "cap session parallelism (0 = GOMAXPROCS)")
		strategy = fs.String("strategy", "", "JSON strategy file (cmd/explore -out format)")
		warmMax  = fs.Int("warm-iters", 0, "max warm re-place iterations per delta (0 = derived)")
		nowait   = fs.Bool("nowait", false, "return after admission without waiting for the base placement")
		timeout  = fs.Duration("timeout", 10*time.Minute, "give up waiting for the base placement after this long")
	)
	fs.Parse(args)

	spec := map[string]any{"scale": *scale, "seed": *seed}
	if *profile != "" {
		spec["profile"] = *profile
	}
	if *aux != "" {
		files, err := inlineBookshelf(*aux)
		if err != nil {
			return err
		}
		spec["bookshelf"] = files
	}
	if *iters > 0 {
		spec["max_iters"] = *iters
	}
	if *workers > 0 {
		spec["workers"] = *workers
	}
	if *warmMax > 0 {
		spec["warm_max_iters"] = *warmMax
	}
	if *strategy != "" {
		data, err := os.ReadFile(*strategy)
		if err != nil {
			return err
		}
		spec["strategy"] = json.RawMessage(data)
	}

	body, _ := json.Marshal(spec)
	resp, err := http.Post(c.base+"/api/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	var m struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	fmt.Printf("session %s %s\n", m.ID, m.State)
	if *nowait {
		return nil
	}
	deadline := time.Now().Add(*timeout)
	for {
		st, errMsg, hpwl, err := c.sessionState(m.ID)
		if err != nil {
			return err
		}
		switch st {
		case "open":
			fmt.Printf("session %s open hpwl=%.0f\n", m.ID, hpwl)
			return nil
		case "failed", "closed":
			return fmt.Errorf("session %s %s: %s", m.ID, st, errMsg)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session %s still %s after %s", m.ID, st, *timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// sessionState fetches one session's durable state.
func (c *client) sessionState(id string) (state, errMsg string, hpwl float64, err error) {
	resp, err := http.Get(c.base + "/api/v1/sessions/" + id)
	if err != nil {
		return "", "", 0, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return "", "", 0, err
	}
	var m struct {
		State    string  `json:"state"`
		Error    string  `json:"error"`
		LastHPWL float64 `json:"last_hpwl"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&m); derr != nil {
		return "", "", 0, derr
	}
	return m.State, m.Error, m.LastHPWL, nil
}

// sessionDelta applies a delta document (a file path, or "-" for stdin)
// and prints the new placement summary.
func (c *client) sessionDelta(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: pufferctl session delta <id> <delta.json|->")
	}
	id, src := args[0], args[1]
	var (
		data []byte
		err  error
	)
	if src == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(src)
	}
	if err != nil {
		return err
	}
	resp, err := http.Post(c.base+"/api/v1/sessions/"+id+"/deltas", "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	var dr struct {
		Deltas     int     `json:"deltas"`
		HPWL       float64 `json:"hpwl"`
		GPIters    int     `json:"gp_iters"`
		RuntimeMS  float64 `json:"runtime_ms"`
		Rehydrated bool    `json:"rehydrated"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	note := ""
	if dr.Rehydrated {
		note = " (rehydrated)"
	}
	fmt.Printf("delta %d applied: hpwl=%.0f gp_iters=%d %.0fms%s\n",
		dr.Deltas, dr.HPWL, dr.GPIters, dr.RuntimeMS, note)
	return nil
}

func (c *client) sessionClose(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: pufferctl session close <id>")
	}
	req, err := http.NewRequest(http.MethodDelete, c.base+"/api/v1/sessions/"+args[0], nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func (c *client) sessionList() error {
	resp, err := http.Get(c.base + "/api/v1/sessions")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	var rows []struct {
		ID       string  `json:"id"`
		Design   string  `json:"design"`
		State    string  `json:"state"`
		Deltas   int     `json:"deltas"`
		LastHPWL float64 `json:"last_hpwl"`
		Warm     bool    `json:"warm"`
		Error    string  `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return err
	}
	fmt.Printf("%-14s %-16s %-8s %6s %5s  %s\n", "ID", "DESIGN", "STATE", "DELTAS", "WARM", "HPWL/ERROR")
	for _, r := range rows {
		detail := ""
		if r.LastHPWL > 0 {
			detail = fmt.Sprintf("%.0f", r.LastHPWL)
		}
		if r.Error != "" {
			detail = r.Error
		}
		warm := "no"
		if r.Warm {
			warm = "yes"
		}
		fmt.Printf("%-14s %-16s %-8s %6d %5s  %s\n", r.ID, r.Design, r.State, r.Deltas, warm, detail)
	}
	return nil
}

// opsSnapshot mirrors the /api/v1/ops document; pufferctl top and
// cmd/diag -ops both render it.
type opsSnapshot struct {
	Status        string             `json:"status"`
	UptimeSeconds float64            `json:"uptime_seconds"`
	QueueDepth    int                `json:"queue_depth"`
	QueueCap      int                `json:"queue_cap"`
	Workers       int                `json:"workers"`
	ActiveJobs    int                `json:"active_jobs"`
	Sessions      map[string]int     `json:"sessions"`
	Counters      map[string]int64   `json:"counters"`
	Gauges        map[string]float64 `json:"gauges"`
	Histograms    map[string]struct {
		Count uint64  `json:"count"`
		Mean  float64 `json:"mean_seconds"`
		P50   float64 `json:"p50_seconds"`
		P95   float64 `json:"p95_seconds"`
		P99   float64 `json:"p99_seconds"`
	} `json:"histograms"`
	SLO []struct {
		Name      string  `json:"name"`
		Quantile  float64 `json:"quantile"`
		Value     float64 `json:"value_seconds"`
		Bound     float64 `json:"bound_seconds"`
		Window    uint64  `json:"window_count"`
		Evaluable bool    `json:"evaluable"`
		OK        bool    `json:"ok"`
		Burning   bool    `json:"burning"`
	} `json:"slo"`
	SLOHealthy bool `json:"slo_healthy"`
}

// top renders the daemon's one-call operational picture: lifecycle, queue
// pressure, latency digests, and live SLO status.
func (c *client) top() error {
	resp, err := http.Get(c.base + "/api/v1/ops")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	var ops opsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&ops); err != nil {
		return fmt.Errorf("decode ops: %w", err)
	}
	fmt.Printf("pufferd %s  up %s  queue %d/%d  workers %d  active %d  sessions %d (%d warm)\n",
		ops.Status, time.Duration(ops.UptimeSeconds*float64(time.Second)).Round(time.Second),
		ops.QueueDepth, ops.QueueCap, ops.Workers, ops.ActiveJobs,
		ops.Sessions["tracked"], ops.Sessions["warm"])

	if len(ops.Histograms) > 0 {
		fmt.Printf("\n%-36s %8s %9s %9s %9s %9s\n", "LATENCY", "COUNT", "MEAN", "P50", "P95", "P99")
		for _, name := range sortedKeys(ops.Histograms) {
			h := ops.Histograms[name]
			fmt.Printf("%-36s %8d %9s %9s %9s %9s\n", name, h.Count,
				fmtSecs(h.Mean), fmtSecs(h.P50), fmtSecs(h.P95), fmtSecs(h.P99))
		}
	}
	if len(ops.SLO) > 0 {
		fmt.Printf("\n%-20s %6s %9s %9s %8s  %s\n", "SLO", "Q", "VALUE", "BOUND", "WINDOW", "STATUS")
		for _, o := range ops.SLO {
			status := "ok"
			switch {
			case !o.Evaluable:
				status = "no data"
			case o.Burning:
				status = "BURNING"
			case !o.OK:
				status = "failing"
			}
			fmt.Printf("%-20s %6.2f %9s %9s %8d  %s\n",
				o.Name, o.Quantile, fmtSecs(o.Value), fmtSecs(o.Bound), o.Window, status)
		}
	}
	if len(ops.Counters) > 0 {
		fmt.Printf("\n%-36s %8s\n", "COUNTER", "VALUE")
		for _, name := range sortedKeys(ops.Counters) {
			fmt.Printf("%-36s %8d\n", name, ops.Counters[name])
		}
	}
	return nil
}

// fleet renders a coordinator's worker registry: one row per known node
// with liveness, heartbeat age, and the load snapshot dispatch sees.
func (c *client) fleet() error {
	resp, err := http.Get(c.base + "/api/v1/nodes")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	var rows []struct {
		ID           string  `json:"id"`
		Addr         string  `json:"addr"`
		Engine       string  `json:"engine"`
		Live         bool    `json:"live"`
		HeartbeatAge float64 `json:"heartbeat_age_seconds"`
		Jobs         int     `json:"jobs"`
		Stats        struct {
			Draining   bool `json:"draining"`
			QueueDepth int  `json:"queue_depth"`
			QueueCap   int  `json:"queue_cap"`
			Workers    int  `json:"workers"`
			ActiveJobs int  `json:"active_jobs"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return err
	}
	fmt.Printf("%-16s %-24s %-18s %-6s %9s %5s %7s %7s\n",
		"NODE", "ADDR", "ENGINE", "LIVE", "HEARTBEAT", "JOBS", "QUEUE", "ACTIVE")
	for _, r := range rows {
		live := "yes"
		switch {
		case !r.Live:
			live = "no"
		case r.Stats.Draining:
			live = "drain"
		}
		fmt.Printf("%-16s %-24s %-18s %-6s %8.1fs %5d %3d/%-3d %7d\n",
			r.ID, r.Addr, r.Engine, live, r.HeartbeatAge, r.Jobs,
			r.Stats.QueueDepth, r.Stats.QueueCap, r.Stats.ActiveJobs)
	}
	return nil
}

// fmtSecs renders a duration-in-seconds compactly for the top tables.
func fmtSecs(s float64) string {
	if s == 0 {
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func (c *client) wait(args []string) error {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	poll := fs.Duration("poll", 2*time.Second, "poll interval")
	timeout := fs.Duration("timeout", 10*time.Minute, "give up after this long")
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 1 {
		return fmt.Errorf("usage: pufferctl wait [-poll d] [-timeout d] <id>")
	}
	id := rest[0]
	deadline := time.Now().Add(*timeout)
	for {
		resp, err := http.Get(c.base + "/api/v1/jobs/" + id)
		if err != nil {
			return err
		}
		var m struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if serr := checkStatus(resp); serr != nil {
			return serr
		}
		if decErr != nil {
			return decErr
		}
		switch m.State {
		case "done":
			fmt.Println("done")
			return nil
		case "failed", "canceled":
			return fmt.Errorf("job %s %s: %s", id, m.State, m.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after %s", id, m.State, *timeout)
		}
		time.Sleep(*poll)
	}
}
