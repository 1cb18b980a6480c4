package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"time"

	"puffer/internal/obs"
	"puffer/internal/synth"
)

// maxSpecBytes bounds a submission body (inlined Bookshelf uploads
// included) — backpressure starts at the socket.
const maxSpecBytes = 64 << 20

// Backend is the role-specific half of the job API: what a worker daemon
// (*Server, executing jobs locally) and a fleet coordinator (executing
// them on remote workers) do differently behind one HTTP contract. API
// owns everything else — routing, decoding, spool reads, SSE framing,
// envelopes, and telemetry.
type Backend interface {
	// Admit takes over a fresh queued manifest for a decoded, valid spec:
	// it spools the job and queues it, or answers it outright (the
	// coordinator's result cache). The manifest as Admit leaves it is the
	// 202 body. An *HTTPError picks the status; other errors answer 500.
	Admit(r *http.Request, m *Manifest) error
	// Cancel cancels the non-terminal job m. It returns the job's terminal
	// manifest when the cancel took effect durably (200), or nil when it
	// was handed to the running execution (202 "canceling").
	Cancel(m *Manifest) (*Manifest, error)
	// Events streams m's live progress into out until the stream ends or
	// ctx is done. It reports false when m has no live event source; the
	// API then sends m's durable state as the single closing event.
	Events(ctx context.Context, m *Manifest, out *EventStream) bool
	// LiveArtifact serves an artifact the spool does not hold yet (a
	// running remote job's). It reports false when there is none (404).
	LiveArtifact(w http.ResponseWriter, r *http.Request, m *Manifest, name string) bool
	// Draining reports whether admission has stopped.
	Draining() bool
	// Readiness returns the not-ready reasons beyond draining and the
	// role's extra /readyz fields.
	Readiness() (reasons []string, fields map[string]any)
	// HealthFields and OpsFields are the role's extra /healthz and
	// /api/v1/ops fields.
	HealthFields() map[string]any
	OpsFields() map[string]any
	// Routes registers the role-only routes (sessions on a worker, nodes
	// on a coordinator).
	Routes(mux *http.ServeMux)
}

// HTTPError is a backend failure with the status the API answers, and a
// Retry-After header when RetryAfter is positive.
type HTTPError struct {
	Status     int
	RetryAfter time.Duration
	Err        error
}

func (e *HTTPError) Error() string { return e.Err.Error() }
func (e *HTTPError) Unwrap() error { return e.Err }

// API is the job HTTP surface shared by the worker daemon and the fleet
// coordinator:
//
//	POST   /api/v1/jobs                   submit (202; 429+Retry-After when full; 503 draining)
//	GET    /api/v1/jobs                   list job manifests (inline uploads and checkpoints elided)
//	GET    /api/v1/jobs/{id}              manifest (durable job record)
//	GET    /api/v1/jobs/{id}/events       SSE progress stream (replay + live)
//	GET    /api/v1/jobs/{id}/result       final result (409 until done)
//	GET    /api/v1/jobs/{id}/artifacts/{name}  spooled artifact download
//	POST   /api/v1/jobs/{id}/cancel       cancel (queued or running)
//	DELETE /api/v1/jobs/{id}              alias for cancel
//	GET    /healthz                       liveness (always 200 while the process serves)
//	GET    /readyz                        readiness (503 with reasons while not ready)
//	GET    /api/v1/ops                    operational snapshot (counters, gauges, histograms)
//	GET    /metrics, /debug/...           the server's registry (Prometheus, pprof, expvar)
//
// plus the Backend's role-only routes. Every route passes through the
// telemetry middleware: request latency lands in the Requests histogram
// and each request logs one structured line with its status, correlated
// with any incoming traceparent.
type API struct {
	Backend Backend
	// Spool is the job store every read is answered from.
	Spool *Spool
	// Registry backs /metrics, /debug/, and the ops snapshot.
	Registry *obs.Registry
	// Requests times every request.
	Requests *obs.Histogram
	Log      *slog.Logger
	// Started is the process start, for the ops uptime.
	Started time.Time
	// Role names the server in the index page and in 503 bodies.
	Role string
}

// Handler builds the route table.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", a.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", a.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", a.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", a.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", a.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/artifacts/{name}", a.handleArtifact)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", a.handleCancel)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", a.handleCancel)
	mux.HandleFunc("GET /healthz", a.handleHealth)
	mux.HandleFunc("GET /readyz", a.handleReady)
	mux.HandleFunc("GET /api/v1/ops", a.handleOps)
	a.Backend.Routes(mux)

	debug := obs.NewDebugMux(a.Registry)
	mux.Handle("/debug/", debug)
	mux.Handle("/metrics", debug)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "pufferd %s\n\n/api/v1/jobs\n/api/v1/ops\n/healthz\n/readyz\n/metrics\n/debug/pprof/\n/debug/vars\n", a.Role)
	})
	return a.withTelemetry(mux)
}

// WriteJSON writes v with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the uniform error body.
func apiError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// httpErrorf is an *HTTPError with a formatted message.
func httpErrorf(status int, format string, args ...any) error {
	return &HTTPError{Status: status, Err: fmt.Errorf(format, args...)}
}

// WriteError answers a backend error: an *HTTPError with its status (and
// Retry-After), anything else as 500.
func WriteError(w http.ResponseWriter, err error) {
	var he *HTTPError
	if !errors.As(err, &he) {
		apiError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if he.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(he.RetryAfter.Seconds())))
	}
	apiError(w, he.Status, "%v", he.Err)
}

// errDraining is the 503 a draining server answers new work with.
func errDraining(role, what string) error {
	return httpErrorf(http.StatusServiceUnavailable, "%s is draining; %s", role, what)
}

// specDoc is a client-submitted spec: a JobSpec, or a SessionSpec, which
// shares the job rules through asJob.
type specDoc interface {
	Normalize()
	Validate() error
	asJob() JobSpec
}

// decodeSpec is the one spec decoder: strict JSON (unknown fields are an
// error), then defaults, validation, and the synthetic profile lookup. Its
// errors are client errors.
func decodeSpec(r io.Reader, s specDoc, what string) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return fmt.Errorf("decode %s spec: %w", what, err)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return fmt.Errorf("invalid %s spec: %w", what, err)
	}
	if p := s.asJob().Profile; p != "" {
		if _, err := synth.ProfileByName(p); err != nil {
			return err
		}
	}
	return nil
}

// DecodeJobSpec decodes a job submission.
func DecodeJobSpec(r io.Reader) (JobSpec, error) {
	var s JobSpec
	err := decodeSpec(r, &s, "job")
	return s, err
}

// DecodeSessionSpec decodes an ECO session open.
func DecodeSessionSpec(r io.Reader) (SessionSpec, error) {
	var s SessionSpec
	err := decodeSpec(r, &s, "session")
	return s, err
}

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if a.Backend.Draining() {
		WriteError(w, errDraining(a.Role, "not admitting jobs"))
		return
	}
	spec, err := DecodeJobSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m := &Manifest{
		ID:          newJobID(),
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: time.Now().UTC(),
	}
	// Persist a valid incoming trace context with the job: whatever
	// eventually runs it (possibly after a restart) adopts it, so the
	// pipeline's span tree joins the submitting client's trace.
	if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
		if _, err := obs.ParseTraceparent(tp); err == nil {
			m.TraceParent = tp
		}
	}
	if err := a.Backend.Admit(r, m); err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, m)
}

// handleList answers every spooled manifest. The inline upload and seeded
// checkpoint are elided: they can run to megabytes per job, and a list row
// only needs the job's identity, state, provenance, and result.
func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	ms, err := a.Spool.List()
	if err != nil {
		apiError(w, http.StatusInternalServerError, "list spool: %v", err)
		return
	}
	for _, m := range ms {
		m.Spec.Bookshelf = nil
		m.Spec.Checkpoint = nil
	}
	WriteJSON(w, http.StatusOK, ms)
}

// loadRecord fetches the job or session manifest for the path's {id},
// writing the 404.
func loadRecord[T any, P recordPtr[T]](w http.ResponseWriter, r *http.Request, sp *Spool, k recordStore[T, P]) P {
	id := r.PathValue("id")
	m, err := k.read(sp, id)
	if err != nil {
		apiError(w, http.StatusNotFound, "%s %s: %v", k.noun, id, err)
		return nil
	}
	return m
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	if m := loadRecord(w, r, a.Spool, jobRecords); m != nil {
		WriteJSON(w, http.StatusOK, m)
	}
}

func (a *API) handleResult(w http.ResponseWriter, r *http.Request) {
	m := loadRecord(w, r, a.Spool, jobRecords)
	if m == nil {
		return
	}
	if m.State != StateDone {
		apiError(w, http.StatusConflict, "job %s is %s, not done", m.ID, m.State)
		return
	}
	res := m.Result
	if res == nil {
		res = a.Spool.Origin(m).Result
	}
	WriteJSON(w, http.StatusOK, res)
}

// handleArtifact serves a spooled artifact: the job's own copy first,
// then (for a cache hit) the copy of the job that computed the result,
// then whatever the backend can still fetch live.
func (a *API) handleArtifact(w http.ResponseWriter, r *http.Request) {
	m := loadRecord(w, r, a.Spool, jobRecords)
	if m == nil {
		return
	}
	name := r.PathValue("name")
	for _, cand := range []*Manifest{m, a.Spool.Origin(m)} {
		path, err := a.Spool.ArtifactPath(cand.ID, name)
		if err != nil {
			apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if st, serr := os.Stat(path); serr == nil && !st.IsDir() {
			http.ServeFile(w, r, path)
			return
		}
	}
	if !a.Backend.LiveArtifact(w, r, m, name) {
		apiError(w, http.StatusNotFound, "job %s has no artifact %q", m.ID, name)
	}
}

func (a *API) handleCancel(w http.ResponseWriter, r *http.Request) {
	m := loadRecord(w, r, a.Spool, jobRecords)
	if m == nil {
		return
	}
	if m.State.Terminal() {
		apiError(w, http.StatusConflict, "job %s already %s", m.ID, m.State)
		return
	}
	done, err := a.Backend.Cancel(m)
	switch {
	case err != nil:
		WriteError(w, err)
	case done != nil:
		WriteJSON(w, http.StatusOK, done)
	default:
		WriteJSON(w, http.StatusAccepted, map[string]string{"id": m.ID, "state": "canceling"})
	}
}

// handleEvents streams the job's progress as server-sent events.
func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	m := loadRecord(w, r, a.Spool, jobRecords)
	if m == nil {
		return
	}
	serveEvents(w, Event{Type: "state", State: m.State, Error: m.Error}, func(out *EventStream) bool {
		return a.Backend.Events(r.Context(), m, out)
	})
}

// lifecycle is the shared status word of /healthz and /api/v1/ops.
func (a *API) lifecycle() string {
	if a.Backend.Draining() {
		return "draining"
	}
	return "serving"
}

func (a *API) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := a.Backend.HealthFields()
	body["status"] = a.lifecycle()
	WriteJSON(w, http.StatusOK, body)
}

// handleReady is readiness, distinct from /healthz liveness: a draining or
// saturated server is alive but should stop receiving traffic, so it
// answers 503 here while /healthz stays 200. The body carries the reasons
// (and the role's detail, e.g. the worker's SLO evaluation) so a probe
// failure is diagnosable from the probe itself.
func (a *API) handleReady(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if a.Backend.Draining() {
		reasons = append(reasons, "draining")
	}
	more, body := a.Backend.Readiness()
	reasons = append(reasons, more...)
	if body == nil {
		body = map[string]any{}
	}
	body["ready"] = len(reasons) == 0
	body["reasons"] = reasons
	status := http.StatusOK
	if len(reasons) > 0 {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, body)
}

// histogramSummary is the operator-facing digest of one latency histogram.
type histogramSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_seconds"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// handleOps is the one-call operational picture `pufferctl top` and
// `diag -ops` render: lifecycle, the registry's counters, gauges, and
// latency digests, plus the role's own fields.
func (a *API) handleOps(w http.ResponseWriter, r *http.Request) {
	snap := a.Registry.Snapshot()
	hists := make(map[string]histogramSummary, len(snap.Histograms))
	for name, hs := range snap.Histograms {
		hists[name] = histogramSummary{
			Count: hs.Count,
			Mean:  hs.Mean(),
			P50:   hs.Quantile(0.50),
			P95:   hs.Quantile(0.95),
			P99:   hs.Quantile(0.99),
		}
	}
	body := a.Backend.OpsFields()
	body["status"] = a.lifecycle()
	body["uptime_seconds"] = time.Since(a.Started).Round(time.Second).Seconds()
	body["counters"] = snap.Counters
	body["gauges"] = snap.Gauges
	body["histograms"] = hists
	WriteJSON(w, http.StatusOK, body)
}
