package coord

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"puffer/internal/cas"
	"puffer/internal/serve"
)

// The coordinator is the remote Backend of serve's job API: admission is
// content addressing, the result cache, and tenant queues (or a farm
// controller); running jobs' live detail — events and artifacts — comes
// from the owning worker. The surface itself (route table, spec decoding,
// spool reads, SSE framing, envelopes, telemetry) is serve.API's.

var _ serve.Backend = (*Server)(nil)

// TenantHeader names the submission header carrying the tenant identity
// for fairness and rate limiting. Absent means tenant "default".
const TenantHeader = "X-Puffer-Tenant"

// clientCancelReason is the terminal error of a job a client canceled.
const clientCancelReason = "job canceled by client"

// Handler builds the coordinator's HTTP surface: the shared job API (so
// pufferctl points at a coordinator unchanged) plus the fleet routes.
func (s *Server) Handler() http.Handler {
	return (&serve.API{
		Backend:  s,
		Spool:    s.spool,
		Registry: s.reg,
		Requests: s.hHTTP,
		Log:      s.log,
		Started:  s.startedAt,
		Role:     "coordinator",
	}).Handler()
}

// Routes registers the coordinator-only fleet routes:
//
//	POST   /api/v1/nodes                  worker registration/heartbeat (puffer/node/v1)
//	GET    /api/v1/nodes                  fleet node table (pufferctl fleet)
func (s *Server) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/v1/nodes", s.handleNodePost)
	mux.HandleFunc("GET /api/v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, s.nodeRows())
	})
}

// handleNodePost is registration + heartbeat in one: workers post their
// manifest on an interval and the coordinator upserts.
func (s *Server) handleNodePost(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	var mf *NodeManifest
	if err == nil {
		mf, err = ParseNodeManifest(data)
	}
	if err != nil {
		serve.WriteError(w, &serve.HTTPError{Status: http.StatusBadRequest, Err: fmt.Errorf("node manifest: %w", err)})
		return
	}
	if mf.Engine != serve.EngineVersion {
		// Registered but never dispatched to; surfaced in the node table
		// so a mixed-version rollout is visible, not silent.
		s.log.Warn("node engine mismatch", "node", mf.ID, "engine", mf.Engine, "want", serve.EngineVersion)
	}
	s.register(mf)
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"ok":                 true,
		"dead_after_seconds": s.cfg.DeadAfter.Seconds(),
	})
}

// nodeRow is one row of the fleet table.
type nodeRow struct {
	ID           string      `json:"id"`
	Addr         string      `json:"addr"`
	Engine       string      `json:"engine"`
	Live         bool        `json:"live"`
	HeartbeatAge float64     `json:"heartbeat_age_seconds"`
	Jobs         int         `json:"jobs"`
	Stats        serve.Stats `json:"stats"`
}

// nodeRows returns the fleet table, ordered by node ID.
func (s *Server) nodeRows() []nodeRow {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]nodeRow, 0, len(s.nodes))
	for _, n := range s.nodes {
		out = append(out, nodeRow{
			ID:           n.mf.ID,
			Addr:         n.mf.Addr,
			Engine:       n.mf.Engine,
			Live:         now.Sub(n.lastSeen) <= s.cfg.DeadAfter,
			HeartbeatAge: now.Sub(n.lastSeen).Seconds(),
			Jobs:         len(n.jobs),
			Stats:        n.mf.Stats,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Admit admits a job at the fleet level: content addressing (design +
// config digests), the result-cache check, then a farm controller for a
// distributed exploration or the tenant-fair dispatch queue for anything
// else.
func (s *Server) Admit(r *http.Request, m *serve.Manifest) error {
	m.Tenant = sanitizeTenant(r.Header.Get(TenantHeader))
	spec := &m.Spec

	// Content addresses: the design (blob for uploads, identity for
	// synthetic profiles) and the normalized result-determining config.
	var design cas.Digest
	if len(spec.Bookshelf) == 0 {
		design = cas.ProfileDesignDigest(spec.Profile, spec.Scale, spec.Seed)
	} else {
		blob, err := cas.EncodeBookshelf(spec.Bookshelf)
		if err != nil {
			return &serve.HTTPError{Status: http.StatusBadRequest, Err: err}
		}
		d, existed, err := s.store.Put(blob)
		if err != nil {
			return fmt.Errorf("store design: %w", err)
		}
		if existed {
			s.reg.Counter("coord.design_blob_dedup").Inc()
		}
		design = d
	}
	config, err := configDigest(spec)
	if err != nil {
		return &serve.HTTPError{Status: http.StatusBadRequest, Err: fmt.Errorf("config digest: %w", err)}
	}
	m.DesignDigest, m.ConfigDigest = string(design), string(config)

	// Cache check: a byte-equivalent prior job's result answers
	// immediately — no queue, no dispatch, no pipeline run. Early-stop and
	// warm-start explorations are timing/history dependent, so they neither
	// consult nor (see runFarm) fill the cache.
	if !spec.NoCache && !spec.EarlyStop && !spec.WarmStart {
		hit, err := s.answerFromCache(m)
		if err != nil {
			return err
		}
		if hit {
			s.log.InfoContext(r.Context(), "cache hit", "job", m.ID, "origin", m.Origin,
				"design", design.Short(), "config", config.Short())
			return nil
		}
	}
	s.reg.Counter("coord.cache_misses").Inc()

	// Fleet-level backpressure in front of the workers' own queues.
	// Distributed explorations run as a farm controller in this process;
	// only their trials enter the dispatch queue, where the cap applies
	// to each trial's enqueue instead.
	if !spec.Distributed {
		s.mu.Lock()
		full := s.pending >= s.cfg.PendingCap
		s.mu.Unlock()
		if full {
			retry := s.retryAfter()
			return &serve.HTTPError{Status: http.StatusTooManyRequests, RetryAfter: retry,
				Err: fmt.Errorf("fleet queue full (%d pending); retry in %s", s.cfg.PendingCap, retry)}
		}
	}
	if len(spec.Bookshelf) > 0 {
		// The blob is the upload's durable home; the manifest carries only
		// its digest. A ref pins it against GC until the job finishes.
		spec.Bookshelf = nil
		if err := s.store.AddRef(design); err != nil {
			return err
		}
	}
	if err := s.spool.CreateJob(m); err != nil {
		return fmt.Errorf("spool job: %w", err)
	}
	if spec.Distributed {
		s.reg.Counter("coord.explorations_submitted").Inc()
		s.log.InfoContext(r.Context(), "exploration farm started", "job", m.ID,
			"tenant", m.Tenant, "budget", spec.Budget, "seed", spec.Seed,
			"early_stop", spec.EarlyStop, "warm_start", spec.WarmStart,
			"design", design.Short(), "config", config.Short())
		s.startFarm(m)
		return nil
	}
	s.reg.Counter("coord.jobs_submitted").Inc()
	s.log.InfoContext(r.Context(), "job queued", "job", m.ID, "tenant", m.Tenant,
		"design", design.Short(), "config", config.Short())
	s.enqueue(m)
	return nil
}

// configDigest is the content address of a spec's result-determining
// configuration.
func configDigest(spec *serve.JobSpec) (cas.Digest, error) {
	return cas.Config{
		Kind:        spec.Kind,
		MaxIters:    spec.MaxIters,
		Route:       spec.Route,
		Budget:      spec.Budget,
		Seed:        spec.Seed,
		Strategy:    spec.Strategy,
		Distributed: spec.Distributed,
		EarlyStop:   spec.EarlyStop,
		WarmStart:   spec.WarmStart,
	}.Digest()
}

// answerFromCache turns m into a done cache hit and spools it when the
// result index holds its (design, config, engine) triple. The index entry
// must still have a readable done manifest behind it: a pruned spool
// drops the entry rather than serving a dangling hit.
func (s *Server) answerFromCache(m *serve.Manifest) (bool, error) {
	design, config := cas.Digest(m.DesignDigest), cas.Digest(m.ConfigDigest)
	e, ok := s.store.Result(design, config, serve.EngineVersion)
	if !ok {
		return false, nil
	}
	origin, err := s.spool.ReadManifest(e.Job)
	if err != nil || origin.State != serve.StateDone {
		s.store.DropResult(design, config, serve.EngineVersion)
		return false, nil
	}
	now := time.Now()
	m.State = serve.StateDone
	m.CacheHit = true
	m.Origin = e.Job
	m.ResultDigest = string(e.ResultDigest)
	m.FinishedAt = &now
	m.Result = origin.Result
	m.Stage = origin.Stage
	if err := s.spool.CreateJob(m); err != nil {
		return false, fmt.Errorf("spool job: %w", err)
	}
	s.reg.Counter("coord.cache_hits").Inc()
	s.publishGauges()
	return true, nil
}

// sanitizeTenant bounds the tenant label (it becomes a queue key and log
// field, never a path).
func sanitizeTenant(t string) string {
	t = strings.TrimSpace(t)
	if len(t) > 64 {
		t = t[:64]
	}
	var b strings.Builder
	for _, c := range t {
		if c > ' ' && c < 0x7f && c != '/' && c != '\\' {
			b.WriteRune(c)
		}
	}
	if b.Len() == 0 {
		return "default"
	}
	return b.String()
}

// Cancel cancels a client's job; a worker that cannot be reached to
// forward the cancel answers 502.
func (s *Server) Cancel(m *serve.Manifest) (*serve.Manifest, error) {
	done, err := s.cancelJob(m.ID, clientCancelReason)
	if err != nil {
		return nil, &serve.HTTPError{Status: http.StatusBadGateway, Err: err}
	}
	return done, nil
}

// cancelJob cancels a job server-side and returns its terminal manifest
// when the cancel took effect here: pending jobs (the dispatcher skips
// terminal manifests it pops) and explorations with no live controller
// (parked by a shutdown, so the next boot must not resume them). A live
// farm controller is canceled in process — it finalizes the manifest, and
// in-flight trial jobs finish on their workers, their results cached for
// future explorations — and a dispatched job's cancel is forwarded to its
// worker; the watcher records the terminal state when the worker
// confirms. Shared by the API and the farm's early-stop path.
func (s *Server) cancelJob(id, reason string) (*serve.Manifest, error) {
	m, err := s.spool.ReadManifest(id)
	if err != nil || m.State.Terminal() {
		return m, err
	}
	if f := s.lookupFarm(id); f != nil {
		f.cancel(errFarmCanceled)
		return nil, nil
	}
	if m.Spec.Distributed || m.State == serve.StateQueued || m.NodeAddr == "" || m.RemoteID == "" {
		s.finish(m, serve.StateCanceled, reason, nil, "")
		return s.spool.ReadManifest(id)
	}
	req, err := http.NewRequestWithContext(s.baseCtx, http.MethodPost,
		m.NodeAddr+"/api/v1/jobs/"+m.RemoteID+"/cancel", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("worker unreachable: %w", err)
	}
	resp.Body.Close()
	return nil, nil
}

// Events streams job progress through the coordinator. A distributed
// exploration streams its controller's hub. Any other job emits a
// coordinator "queued" state event while pending, proxies its worker's
// stream once dispatched, re-attaches wherever failover sends it (the
// remote Seq restarts — watchers key on state, not Seq continuity, across
// attempts), and closes with the coordinator's terminal state.
func (s *Server) Events(ctx context.Context, m *serve.Manifest, out *serve.EventStream) bool {
	if m.Spec.Distributed {
		f := s.lookupFarm(m.ID)
		if f == nil {
			return false
		}
		if f.hub.Stream(ctx, out, nil) {
			// Closed: surface the terminal state the controller just wrote.
			if mm, err := s.spool.ReadManifest(m.ID); err == nil && mm.State.Terminal() {
				out.Send(serve.Event{Type: "state", State: mm.State, Error: mm.Error})
			}
		}
		return true
	}
	seq := 0
	final := s.followJob(ctx, m.ID, func(e serve.Event) bool {
		if e.Seq == 0 { // the coordinator's own event
			seq++
			e.Seq = seq
		}
		return out.Send(e)
	})
	if final != nil {
		seq++
		out.Send(serve.Event{Seq: seq, Type: "state", State: final.State, Error: final.Error})
	}
	return true
}

// followJob feeds the job's events to fn — a "queued" state event each
// time it enters the coordinator queue, then its worker's SSE stream once
// dispatched, re-attaching through failover — until the job is terminal
// (returned), ctx ends, or fn returns false (nil).
func (s *Server) followJob(ctx context.Context, id string, fn func(serve.Event) bool) *serve.Manifest {
	queued := false
	for {
		m, err := s.spool.ReadManifest(id)
		if err != nil || ctx.Err() != nil {
			return nil
		}
		if m.State.Terminal() {
			return m
		}
		switch {
		case m.State == serve.StateQueued:
			if !queued && !fn(serve.Event{Type: "state", State: serve.StateQueued}) {
				return nil
			}
			queued = true
		case m.NodeAddr != "" && m.RemoteID != "":
			// Proxy the worker's stream until it ends (job finished there,
			// worker died, or the client went away), then loop to re-read
			// local state — which covers failover re-attachment.
			queued = false
			if !s.streamRemote(ctx, m.NodeAddr+"/api/v1/jobs/"+m.RemoteID+"/events", fn) {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(s.cfg.Poll):
		}
	}
}

// streamRemote reads one worker SSE stream into fn. It reports false only
// when fn refused an event; a stream that fails or ends (the worker died
// mid-job, or finished it) is the caller's to re-check.
func (s *Server) streamRemote(ctx context.Context, url string, fn func(serve.Event) bool) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return true
	}
	// Streaming call: bypass the default client timeout.
	client := &http.Client{Transport: s.client.Transport}
	resp, err := client.Do(req)
	if err != nil {
		return true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return true
	}
	ok := true
	serve.ReadEvents(resp.Body, func(e serve.Event) bool {
		ok = fn(e)
		return ok
	})
	return ok
}

// LiveArtifact proxies the owning worker's copy of a running job's
// artifact (finished jobs' artifacts were mirrored at finalize).
func (s *Server) LiveArtifact(w http.ResponseWriter, r *http.Request, m *serve.Manifest, name string) bool {
	if m.NodeAddr == "" || m.RemoteID == "" || m.State.Terminal() {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		m.NodeAddr+"/api/v1/jobs/"+m.RemoteID+"/artifacts/"+name, nil)
	var resp *http.Response
	if err == nil {
		resp, err = s.client.Do(req)
	}
	if err != nil {
		serve.WriteError(w, &serve.HTTPError{Status: http.StatusBadGateway, Err: fmt.Errorf("worker unreachable: %w", err)})
		return true
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// Readiness: a coordinator with zero live workers is alive but cannot
// make progress, so it reports not-ready with reason "no_workers" — load
// balancers stop routing submissions at a fleet that would only queue
// them.
func (s *Server) Readiness() ([]string, map[string]any) {
	var reasons []string
	if s.LiveNodes() == 0 {
		reasons = append(reasons, "no_workers")
	}
	s.mu.Lock()
	if s.pending >= s.cfg.PendingCap {
		reasons = append(reasons, "queue saturated")
	}
	s.mu.Unlock()
	return reasons, nil
}

// HealthFields names the role and the live fleet size.
func (s *Server) HealthFields() map[string]any {
	return map[string]any{
		"role":       "coordinator",
		"nodes_live": s.LiveNodes(),
	}
}

// OpsFields reports the node table, dispatch pressure, and the CAS.
func (s *Server) OpsFields() map[string]any {
	idx := s.store.Snapshot()
	var blobBytes int64
	for _, b := range idx.Blobs {
		blobBytes += b.Size
	}
	s.mu.Lock()
	pending := s.pending
	dispatched := len(s.jobs)
	s.mu.Unlock()
	return map[string]any{
		"role":        "coordinator",
		"nodes":       s.nodeRows(),
		"pending":     pending,
		"dispatched":  dispatched,
		"pending_cap": s.cfg.PendingCap,
		"cache": map[string]any{
			"blobs":      len(idx.Blobs),
			"blob_bytes": blobBytes,
			"results":    len(idx.Results),
		},
	}
}
