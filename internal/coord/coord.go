// Package coord is the fleet tier above the single-node job daemon: a
// coordinator that workers (unmodified serve.Server daemons) register with
// over HTTP, accepting job submissions, deduplicating them through a
// content-addressed result cache (internal/cas), dispatching cache misses
// to the least-loaded live worker with per-tenant fairness and rate
// limits, and mirroring checkpoints so a SIGKILLed worker's jobs re-admit
// on a survivor mid-flow. Its job API is serve.API itself, with the
// coordinator as the remote serve.Backend, so pufferctl works against a
// coordinator unchanged.
//
// The package layers are:
//
//	node.go     — the fleet vocabulary: NodeManifest, ParseNodeManifest, Announcer
//	coord.go    — Server lifecycle: registry, recovery, drain, metrics
//	backend.go  — the serve.Backend: admission (CAS + result cache), cancel,
//	              proxied worker events and artifacts, readiness, node routes
//	dispatch.go — tenant queues, rate limits, node selection, watchers,
//	              failover, result/artifact mirroring, trace merge
//	farm.go     — the distributed exploration controller (xfarm backend)
package coord

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"puffer/internal/cas"
	"puffer/internal/obs"
	"puffer/internal/serve"
)

// Config configures a coordinator.
type Config struct {
	// SpoolDir is the coordinator's own job spool (manifests, mirrored
	// checkpoints, fetched artifacts). Same layout as a worker spool.
	SpoolDir string
	// CASDir is the content-addressed store root (default: SpoolDir/cas).
	CASDir string
	// DeadAfter is the heartbeat age past which a node is considered dead
	// and its jobs fail over (default 10s).
	DeadAfter time.Duration
	// Poll is the per-job watcher's remote poll interval (default 1s).
	Poll time.Duration
	// PendingCap bounds jobs waiting for dispatch across all tenants
	// (default 64). Beyond it submissions get 429 + Retry-After — the
	// fleet-level layer in front of each worker's own admission queue.
	PendingCap int
	// TenantRate is the per-tenant dispatch rate limit in jobs/second
	// (0 = unlimited); TenantBurst is the bucket size (default 4).
	TenantRate  float64
	TenantBurst int
	// EarlyStopMargin is the domination factor for exploration early stop:
	// a trial is canceled once its streamed overflow exceeds this multiple
	// of the best competitor's at the same step (0 = xfarm's default 1.5).
	EarlyStopMargin float64
	// Client is the HTTP client for worker calls (default 15s timeout;
	// SSE and artifact proxying use streaming requests with no timeout).
	Client *http.Client
	// Log receives the coordinator's structured log records (nil = silent).
	Log *slog.Logger
}

// node is the registry entry for one worker.
type node struct {
	mf       NodeManifest
	lastSeen time.Time
	// unavailableUntil holds dispatch off a worker that answered 429, for
	// its own Retry-After estimate.
	unavailableUntil time.Time
	// jobs is the set of coordinator job IDs currently dispatched there.
	jobs map[string]struct{}
}

// Server is the fleet coordinator. Construct with New, start the
// background loops with Start, attach the HTTP surface via Handler, stop
// with Drain/Close.
type Server struct {
	cfg    Config
	spool  *serve.Spool
	store  *cas.Store
	reg    *obs.Registry
	log    *slog.Logger
	client *http.Client

	hHTTP      *obs.Histogram // wall of every coordinator HTTP request
	hDispatch  *obs.Histogram // submit (or requeue) → worker 202
	hHeartbeat *obs.Histogram // observed heartbeat ages at scan time
	startedAt  time.Time

	baseCtx  context.Context
	stopBase context.CancelFunc
	kick     chan struct{} // nudges the dispatcher
	wg       sync.WaitGroup

	mu       sync.Mutex
	nodes    map[string]*node
	tenants  map[string]*tenantQueue
	order    []string // tenant round-robin order
	rr       int
	pending  int
	jobs     map[string]*coordJob // dispatched, watched jobs
	farms    map[string]*farm     // running exploration-farm controllers
	draining bool

	// Recovered counts jobs re-attached or re-queued at boot.
	Recovered int
}

// New opens the coordinator spool and CAS store and recovers outstanding
// jobs: running jobs re-attach their watchers (the worker kept going while
// the coordinator was down), queued jobs re-enter their tenant queues.
func New(cfg Config) (*Server, error) {
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 10 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = time.Second
	}
	if cfg.PendingCap <= 0 {
		cfg.PendingCap = 64
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = 4
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 15 * time.Second}
	}
	if cfg.CASDir == "" {
		cfg.CASDir = cfg.SpoolDir + "/cas"
	}
	sp, err := serve.OpenSpool(cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	store, err := cas.Open(cfg.CASDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		spool:     sp,
		store:     store,
		reg:       obs.NewRegistry(),
		log:       cfg.Log,
		client:    cfg.Client,
		startedAt: time.Now(),
		baseCtx:   ctx,
		stopBase:  cancel,
		kick:      make(chan struct{}, 1),
		nodes:     make(map[string]*node),
		tenants:   make(map[string]*tenantQueue),
		jobs:      make(map[string]*coordJob),
		farms:     make(map[string]*farm),
	}
	s.hHTTP = s.reg.Histogram("coord.http_request_seconds")
	s.hDispatch = s.reg.Histogram("coord.dispatch_seconds")
	s.hHeartbeat = s.reg.Histogram("coord.heartbeat_age_seconds")
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	s.publishGauges()
	return s, nil
}

// recover scans the spool at boot. A coordinator restart must not rerun
// work that is still running on a worker, so running jobs with a node
// address re-attach watchers instead of re-dispatching; queued jobs (and
// running jobs that never recorded a dispatch) go back in line.
func (s *Server) recover() error {
	all, err := s.spool.List()
	if err != nil {
		return err
	}
	for _, m := range all {
		// Distributed explorations never dispatch to a worker: their
		// controller restarts here and resumes from the spooled
		// explore-state checkpoint (finished trials replay, in-flight trial
		// jobs — recovered below like any dispatched job — re-attach by ID).
		if m.Spec.Distributed && !m.State.Terminal() {
			s.startFarm(m)
			s.Recovered++
			continue
		}
		switch m.State {
		case serve.StateQueued:
			s.enqueueLocked(m)
			s.Recovered++
		case serve.StateRunning, serve.StateParked:
			if m.NodeAddr != "" {
				s.attachWatcher(m)
				s.log.Info("re-attached fleet job", "job", m.ID, "node", m.Node)
			} else {
				if _, err := s.spool.Update(m.ID, func(mm *serve.Manifest) error {
					mm.State = serve.StateQueued
					mm.StartedAt = nil
					return nil
				}); err != nil {
					return err
				}
				m.State = serve.StateQueued
				s.enqueueLocked(m)
			}
			s.Recovered++
		}
	}
	return nil
}

// Spool exposes the coordinator's spool (diagnostics).
func (s *Server) Spool() *serve.Spool { return s.spool }

// Store exposes the coordinator's CAS store (diagnostics).
func (s *Server) Store() *cas.Store { return s.store }

// Registry exposes the coordinator metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start launches the dispatcher and the node liveness monitor.
func (s *Server) Start() {
	s.wg.Add(2)
	go s.dispatchLoop()
	go s.monitorLoop()
}

// Draining reports whether the coordinator has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// liveNodesLocked returns registered nodes whose heartbeat is fresh.
func (s *Server) liveNodesLocked(now time.Time) []*node {
	var out []*node
	for _, n := range s.nodes {
		if now.Sub(n.lastSeen) <= s.cfg.DeadAfter {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].mf.ID < out[j].mf.ID })
	return out
}

// LiveNodes returns the number of dispatchable workers.
func (s *Server) LiveNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.liveNodesLocked(time.Now()))
}

// register upserts a node from a heartbeat and kicks the dispatcher (a
// returning node may unblock pending work).
func (s *Server) register(mf *NodeManifest) {
	s.mu.Lock()
	n, ok := s.nodes[mf.ID]
	if !ok {
		n = &node{jobs: make(map[string]struct{})}
		s.nodes[mf.ID] = n
		s.log.Info("node joined", "node", mf.ID, "addr", mf.Addr, "engine", mf.Engine)
	}
	n.mf = *mf
	n.lastSeen = time.Now()
	s.mu.Unlock()
	s.reg.Counter("coord.heartbeats").Inc()
	s.kickDispatch()
}

// kickDispatch nudges the dispatcher without blocking.
func (s *Server) kickDispatch() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// publishGauges refreshes the fleet gauges (called on mutation).
func (s *Server) publishGauges() {
	s.mu.Lock()
	live := len(s.liveNodesLocked(time.Now()))
	nodes := len(s.nodes)
	pending := s.pending
	active := len(s.jobs)
	s.mu.Unlock()
	s.reg.Gauge("coord.nodes_live").Set(float64(live))
	s.reg.Gauge("coord.nodes_known").Set(float64(nodes))
	s.reg.Gauge("coord.jobs_pending").Set(float64(pending))
	s.reg.Gauge("coord.jobs_dispatched").Set(float64(active))
	hits := float64(s.reg.Counter("coord.cache_hits").Value())
	misses := float64(s.reg.Counter("coord.cache_misses").Value())
	if hits+misses > 0 {
		s.reg.Gauge("coord.cache_hit_rate").Set(hits / (hits + misses))
	}
}

// Drain stops admission and dispatch. Jobs already on workers keep
// running there (their spools are durable and this coordinator may be
// replaced); pending jobs stay queued in the coordinator spool for the
// next boot.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.stopBase()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("coord: drain timed out: %w", context.Cause(ctx))
	}
}

// Close force-stops the coordinator.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Drain(ctx)
}
