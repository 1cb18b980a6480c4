package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"puffer/internal/obs"
)

// Config configures a job server.
type Config struct {
	// SpoolDir is the root of the durable job spool.
	SpoolDir string
	// QueueCap bounds the admission queue (default 16). Submissions beyond
	// it receive 429 + Retry-After; recovery re-admission is exempt.
	QueueCap int
	// Workers is the size of the job worker pool (default 2). Each worker
	// runs one staged pipeline at a time with its own telemetry registry.
	Workers int
	// DefaultJobTimeout applies to jobs that do not set their own
	// timeout_sec (0 = no deadline). The clock restarts on resume.
	DefaultJobTimeout time.Duration
	// SessionIdle is how long an ECO session's in-memory warm state may
	// sit unused before the janitor evicts it (the spooled snapshot stays;
	// the next delta rehydrates transparently). 0 disables eviction.
	SessionIdle time.Duration
	// QueueWaitSLO bounds the queue-wait p99 objective surfaced on /readyz
	// and /api/v1/ops (default 60s; negative disables the objective).
	QueueWaitSLO time.Duration
	// DrainGrace holds Drain open after readiness flips (admission stops,
	// /readyz answers 503) before running jobs are canceled, so load
	// balancers watching /readyz can route traffic away while in-flight
	// work still completes normally. 0 cancels immediately.
	DrainGrace time.Duration
	// Log receives the daemon's structured log records. Every record
	// carries trace/span/job/session correlation attrs when emitted under
	// a request or worker context (obs.LogHandler). Nil means silent.
	Log *slog.Logger
}

// Cancellation causes, distinguished through context.Cause so the worker
// can tell a drain-park from a client cancel from a deadline.
var (
	errParked      = errors.New("daemon draining: job parked")
	errJobCanceled = errors.New("job canceled by client")
	errJobDeadline = errors.New("job deadline exceeded")
)

// Server is the placement job service: spool + queue + worker pool +
// per-job progress hubs + daemon-level metrics. Construct with New,
// start the pool with Start, attach the HTTP surface via Handler, and
// stop with Drain (park) or Close.
type Server struct {
	cfg   Config
	spool *Spool
	queue *Queue
	reg   *obs.Registry // daemon-level metrics (queue depth, job counts)
	log   *slog.Logger

	// Service latency histograms, resolved once from reg so the hot paths
	// skip the registry map. Exposed on /metrics and fed to the SLOs.
	hHTTP      *obs.Histogram // wall of every HTTP request
	hQueueWait *obs.Histogram // submit → worker claim
	hJobWall   *obs.Histogram // worker claim → terminal/parked
	hColdOpen  *obs.Histogram // session base placement wall
	hWarmDelta *obs.Histogram // warm delta apply wall
	hSSE       *obs.Histogram // one SSE event write+flush
	slo        *obs.SLO
	startedAt  time.Time

	baseCtx  context.Context
	stopBase context.CancelFunc
	drainCh  chan struct{} // closed when Drain begins
	wg       sync.WaitGroup

	// designs shares parsed netlists and RSMT topology memos across jobs
	// of the same design (keyed by content address).
	designs *designCache

	// jobs and sessions hold the runtime entries (hub, cancel, telemetry)
	// of every job and session seen this boot.
	jobs     *runtimes
	sessions *runtimes

	mu       sync.Mutex
	draining bool

	// Recovered is the number of interrupted jobs re-admitted at boot.
	Recovered int
	// RecoveredSessions is the number of sessions parked at boot (resumed
	// lazily from their spooled snapshots on the next delta).
	RecoveredSessions int
}

// New opens the spool, re-admits interrupted jobs, and prepares the worker
// pool (not yet started).
func New(cfg Config) (*Server, error) {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 16
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	if cfg.QueueWaitSLO == 0 {
		cfg.QueueWaitSLO = time.Minute
	}
	sp, err := OpenSpool(cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		spool:     sp,
		queue:     NewQueue(cfg.QueueCap),
		reg:       obs.NewRegistry(),
		log:       cfg.Log,
		startedAt: time.Now(),
		baseCtx:   ctx,
		stopBase:  cancel,
		drainCh:   make(chan struct{}),
		designs:   newDesignCache(),
		jobs:      newRuntimes("job", sp.JobDir),
		sessions:  newRuntimes("session", sp.SessionDir),
	}
	s.hHTTP = s.reg.Histogram("serve.http_request_seconds")
	s.hQueueWait = s.reg.Histogram("serve.queue_wait_seconds")
	s.hJobWall = s.reg.Histogram("serve.job_wall_seconds")
	s.hColdOpen = s.reg.Histogram("serve.session_cold_open_seconds")
	s.hWarmDelta = s.reg.Histogram("serve.session_warm_delta_seconds")
	s.hSSE = s.reg.Histogram("serve.sse_fanout_seconds")
	s.slo = obs.NewSLO(
		// The paper's ECO promise: a warm delta must stay an order of
		// magnitude under the cold wall. Unevaluable until cold opens exist.
		obs.Objective{
			Name: "warm-delta-p95", Histogram: s.hWarmDelta, Quantile: 0.95, MinCount: 3,
			Bound: func() float64 { return s.hColdOpen.Snapshot().Mean() / 10 },
		},
		obs.Objective{
			Name: "queue-wait-p99", Histogram: s.hQueueWait, Quantile: 0.99, MinCount: 5,
			Bound: func() float64 { return cfg.QueueWaitSLO.Seconds() },
		},
	)
	recovered, err := sp.Recover()
	if err != nil {
		cancel()
		return nil, fmt.Errorf("serve: recover spool: %w", err)
	}
	for _, m := range recovered {
		s.jobs.ensure(m.ID)
		// ForcePush: every interrupted job gets back in line even if the
		// spool holds more than one queue's worth.
		if err := s.queue.ForcePush(m.ID); err != nil {
			cancel()
			return nil, err
		}
		s.log.Info("re-admitted interrupted job", "job", m.ID, "attempt", m.Attempts, "stage", m.Stage)
	}
	s.Recovered = len(recovered)
	parked, failedSessions, err := sp.RecoverSessions()
	if err != nil {
		cancel()
		return nil, fmt.Errorf("serve: recover sessions: %w", err)
	}
	for _, m := range parked {
		s.log.Info("session parked at boot; next delta rehydrates", "session", m.ID, "deltas", m.Deltas)
	}
	for _, m := range failedSessions {
		s.log.Warn("session failed at boot", "session", m.ID, "error", m.Error)
	}
	s.RecoveredSessions = len(parked)
	s.reg.Gauge("serve.queue_depth").Set(float64(s.queue.Len()))
	s.reg.Gauge("serve.queue_cap").Set(float64(cfg.QueueCap))
	s.reg.Gauge("serve.workers").Set(float64(cfg.Workers))
	return s, nil
}

// Spool exposes the server's spool (read-only use).
func (s *Server) Spool() *Spool { return s.spool }

// Stats is a point-in-time load summary of the job service. Fleet workers
// report it in every heartbeat so the coordinator can dispatch to the
// least-loaded live node; it is node-agnostic — nothing in it names the
// fleet.
type Stats struct {
	Draining   bool `json:"draining"`
	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	Workers    int  `json:"workers"`
	ActiveJobs int  `json:"active_jobs"`
}

// Stats captures the server's current load.
func (s *Server) Stats() Stats {
	return Stats{
		Draining:   s.Draining(),
		QueueDepth: s.queue.Len(),
		QueueCap:   s.queue.Cap(),
		Workers:    s.cfg.Workers,
		ActiveJobs: s.activeCount(),
	}
}

// Registry exposes the daemon-level metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start launches the worker pool and, when configured, the idle-session
// janitor.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	if s.cfg.SessionIdle > 0 {
		s.wg.Add(1)
		go s.sessionJanitor(s.cfg.SessionIdle)
	}
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the server: admission closes (submissions get
// 503), running jobs are canceled with the park cause so they stop within
// one pipeline iteration and keep their last stage-boundary checkpoint,
// and the pool is awaited up to ctx's deadline. Queued jobs stay queued in
// the spool; the next boot re-admits queued and parked jobs alike.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	close(s.drainCh)
	s.queue.Close()
	// Readiness has flipped; give load balancers the configured window to
	// observe it before in-flight jobs are told to park.
	if g := s.cfg.DrainGrace; g > 0 {
		select {
		case <-time.After(g):
		case <-ctx.Done():
		}
	}
	// A job claimed after draining flipped cancels itself (runJob).
	for _, a := range s.jobs.all() {
		a.cancelRun(errParked)
	}
	s.parkSessions()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out: %w", context.Cause(ctx))
	}
}

// Close force-stops the server (Drain with a generous default window,
// then the base context is canceled regardless).
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.Drain(ctx)
	s.stopBase()
	return err
}
