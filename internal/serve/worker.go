package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"puffer"
	"puffer/internal/bookshelf"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/padding"
	"puffer/internal/router"
	"puffer/internal/rsmt"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// errSkipJob marks a popped queue entry whose manifest is no longer
// queued (canceled while waiting, or a duplicate admission).
var errSkipJob = errors.New("serve: job no longer queued")

// workerLoop is one pool worker: pop, run, repeat until the queue closes.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	for {
		id, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.reg.Gauge("serve.queue_depth").Set(float64(s.queue.Len()))
		if s.Draining() {
			// Leave the job spooled as queued; the next boot re-admits it.
			continue
		}
		s.runJob(id)
	}
}

// runJob executes one admitted job end to end: claim, telemetry setup,
// kind dispatch, outcome classification, artifact/manifest finalization.
func (s *Server) runJob(id string) {
	start := time.Now()
	m, err := s.spool.Update(id, func(mm *Manifest) error {
		if mm.State != StateQueued {
			return errSkipJob
		}
		now := time.Now()
		mm.State = StateRunning
		mm.StartedAt = &now
		mm.Attempts++
		return nil
	})
	if err != nil {
		if !errors.Is(err, errSkipJob) {
			s.log.Error("job claim failed", "job", id, "error", err)
		}
		return
	}

	a := s.jobs.ensure(id)
	jobCtx, cancel := context.WithCancelCause(s.baseCtx)
	a.setCancel(cancel)
	if s.Draining() {
		cancel(errParked) // drain began between Pop and registration
	}
	defer cancel(nil)

	timeout := time.Duration(m.Spec.TimeoutSec * float64(time.Second))
	if timeout == 0 {
		timeout = s.cfg.DefaultJobTimeout
	}
	runCtx := jobCtx
	if timeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithDeadlineCause(jobCtx, time.Now().Add(timeout), errJobDeadline)
		defer tcancel()
	}

	// Per-job telemetry for the attempt. Adopt the submission's trace
	// context when one was spooled: the job's span tree (and under it the
	// whole pipeline) joins the client's trace, so a merged Chrome trace
	// shows client request, queue wait, and shard work as one tree under
	// one trace ID.
	var tc obs.TraceContext
	if m.TraceParent != "" {
		tc, _ = obs.ParseTraceparent(m.TraceParent)
	}
	rec := a.openTelemetry(tc)
	tracer := rec.Tracer()

	// The job span opens retroactively at submission, so the trace shows
	// the full client-observed wall; the queue wait (submission → claim)
	// is its first child and feeds the queue-wait SLO histogram.
	jobSpan := tracer.StartSpanAt("serve.job", m.SubmittedAt)
	jobSpan.SetArg("job", id)
	jobSpan.SetArg("kind", m.Spec.Kind)
	jobSpan.SetArg("attempt", m.Attempts)
	queueWait := start.Sub(m.SubmittedAt)
	if queueWait < 0 {
		queueWait = 0
	}
	jobSpan.RecordChild("serve.queue_wait", m.SubmittedAt, queueWait)
	s.hQueueWait.Observe(queueWait.Seconds())
	runCtx = obs.ContextWith(runCtx, jobSpan)
	lctx := obs.ContextWithLabels(runCtx, slog.String("job", id))

	s.reg.Gauge("serve.active_jobs").Set(float64(s.activeCount()))
	a.hub.Publish(Event{Type: "state", State: StateRunning})
	s.log.InfoContext(lctx, "job running",
		"kind", m.Spec.Kind, "attempt", m.Attempts,
		"queue_wait", queueWait.Round(time.Millisecond))

	var result *JobResult
	switch m.Spec.Kind {
	case KindExplore:
		result, err = s.execExplore(runCtx, m, a, rec)
	default:
		result, err = s.execPlace(runCtx, m, a, rec)
	}
	jobSpan.End()
	a.closeTelemetry(s.log)

	state, errMsg := classifyOutcome(runCtx, err)
	if result != nil {
		result.Artifacts = s.listArtifacts(id)
	}
	now := time.Now()
	if _, uerr := s.spool.Update(id, func(mm *Manifest) error {
		mm.State = state
		mm.Error = errMsg
		mm.Result = result
		if state.Terminal() {
			mm.FinishedAt = &now
		} else {
			mm.StartedAt = nil
		}
		return nil
	}); uerr != nil {
		s.log.ErrorContext(lctx, "finalize manifest", "error", uerr)
	}

	s.queue.ObserveJobDuration(time.Since(start))
	s.hJobWall.ObserveSince(start)
	switch state {
	case StateDone:
		s.reg.Counter("serve.jobs_completed").Inc()
	case StateFailed:
		s.reg.Counter("serve.jobs_failed").Inc()
	case StateCanceled:
		s.reg.Counter("serve.jobs_canceled").Inc()
	case StateParked:
		s.reg.Counter("serve.jobs_parked").Inc()
	}
	a.hub.Publish(Event{Type: "state", State: state, Error: errMsg})
	a.hub.Close()
	a.setCancel(nil)
	if state.Terminal() {
		s.jobs.retire(id)
	}
	s.reg.Gauge("serve.active_jobs").Set(float64(s.activeCount()))
	s.log.InfoContext(lctx, "job finished",
		"state", state, "wall", time.Since(start).Round(time.Millisecond), "error", errMsg)
}

// classifyOutcome maps an execution error to the job's next state using
// the context's cancellation cause: drain-park, client cancel, deadline,
// or a genuine engine failure.
func classifyOutcome(ctx context.Context, err error) (JobState, string) {
	if err == nil {
		return StateDone, ""
	}
	if errors.Is(err, pipeline.ErrCanceled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		cause := context.Cause(ctx)
		switch {
		case errors.Is(cause, errParked):
			return StateParked, ""
		case errors.Is(cause, errJobCanceled):
			return StateCanceled, errJobCanceled.Error()
		case errors.Is(cause, errJobDeadline):
			return StateFailed, errJobDeadline.Error()
		}
	}
	return StateFailed, err.Error()
}

// activeCount returns how many jobs are currently cancelable (running).
func (s *Server) activeCount() int {
	n := 0
	for _, a := range s.jobs.all() {
		if a.running() {
			n++
		}
	}
	return n
}

// buildDesign materializes the job's design through the per-worker design
// cache: the first job of a design parses (or generates) it and later jobs
// clone the pristine copy, sharing one RSMT topology memo — the farm's
// per-(design digest, worker) reuse. The returned design is always the
// job's own mutable instance; the memo is nil for uncacheable designs.
func (s *Server) buildDesign(m *Manifest) (*netlist.Design, *rsmt.Memo, error) {
	key := designKey(m)
	if key != "" {
		if e := s.designs.lookup(key); e != nil {
			s.reg.Counter("serve.design_cache_hits").Inc()
			return e.base.Clone(), e.topo, nil
		}
	}
	s.reg.Counter("serve.design_parses").Inc()
	d, err := newDesign(&m.Spec, s.spool.JobDir(m.ID))
	if err != nil {
		return nil, nil, err
	}
	if key == "" {
		return d, nil, nil
	}
	e := s.designs.insert(key, &designEntry{base: d, topo: rsmt.NewMemo(0)})
	return e.base.Clone(), e.topo, nil
}

// newDesign materializes a spec's design: a deterministic synthetic
// profile, or the Bookshelf upload spooled under dir/design/. Both rebuild
// bit-identically, which a rehydrating ECO session relies on (eco.Restore
// verifies it by design hash).
func newDesign(spec *JobSpec, dir string) (*netlist.Design, error) {
	if spec.Profile != "" {
		p, err := synth.ProfileByName(spec.Profile)
		if err != nil {
			return nil, err
		}
		return synth.Generate(p, spec.Scale, spec.Seed), nil
	}
	return bookshelf.Parse(filepath.Join(dir, "design", spec.AuxName()))
}

// placeConfig builds the pipeline configuration for a place job or an ECO
// session. It must be deterministic in the spec: a rehydrated session
// rebuilds the exact configuration its snapshot was captured under.
func placeConfig(spec *JobSpec, rec *obs.Recorder, hub *Hub) (pipeline.Config, error) {
	cfg := pipeline.DefaultConfig()
	cfg.Place.Seed = spec.Seed
	if spec.MaxIters > 0 {
		cfg.Place.MaxIters = spec.MaxIters
	}
	cfg.Workers = spec.Workers
	if len(spec.Strategy) > 0 {
		st := padding.DefaultStrategy()
		if err := json.Unmarshal(spec.Strategy, &st); err != nil {
			return cfg, fmt.Errorf("decode strategy: %w", err)
		}
		cfg.Strategy = st
		cfg.Legal.Theta = st.Theta
	}
	cfg.Obs = rec
	cfg.Logf = func(format string, args ...any) {
		hub.Publish(Event{Type: "log", Line: fmt.Sprintf(format, args...)})
	}
	return cfg, nil
}

// execPlace runs (or resumes) a placement job through the staged pipeline,
// checkpointing into the spool after every stage.
func (s *Server) execPlace(ctx context.Context, m *Manifest, a *entry, rec *obs.Recorder) (*JobResult, error) {
	d, topo, err := s.buildDesign(m)
	if err != nil {
		return nil, fmt.Errorf("build design: %w", err)
	}
	cfg, err := placeConfig(&m.Spec, rec, a.hub)
	if err != nil {
		return nil, err
	}
	// Share the design's RSMT memo across every trial/job of this design
	// on this worker. rsmt.Build is pure, so this never changes results.
	cfg.Strategy.Cong.Topo = topo
	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		return nil, err
	}
	stages := pipeline.Default()
	if m.Spec.Route {
		stages = append(stages, pipeline.Route(router.Config{}))
	}
	pl := pipeline.New(stages...)
	id := m.ID
	pl.OnStage = func(st pipeline.StageStats) {
		a.hub.Publish(Event{Type: "stage", Stage: st.Name, StageStatus: "done",
			Iters: st.Iters, WallMS: float64(st.Wall) / 1e6})
	}
	pl.Checkpointer = func(cp *pipeline.Checkpoint) error {
		if err := cp.Save(s.spool.CheckpointPath(id)); err != nil {
			return err
		}
		_, err := s.spool.Update(id, func(mm *Manifest) error {
			mm.Stage = cp.Stage
			return nil
		})
		return err
	}

	// Resume from the spooled checkpoint when one exists; a corrupt or
	// mismatched checkpoint demotes the job to a fresh run rather than
	// failing it (the design source is still authoritative).
	var runErr error
	ckptPath := s.spool.CheckpointPath(id)
	if cp, lerr := pipeline.LoadCheckpoint(ckptPath); lerr == nil {
		a.hub.Publish(Event{Type: "log", Line: fmt.Sprintf("resuming from checkpoint after stage %q", cp.Stage)})
		runErr = pl.Resume(ctx, rc, cp)
		if runErr != nil && !errors.Is(runErr, pipeline.ErrCanceled) {
			a.hub.Publish(Event{Type: "log", Line: fmt.Sprintf("resume failed (%v); restarting from scratch", runErr)})
			os.Remove(ckptPath)
			if d, _, err = s.buildDesign(m); err != nil {
				return nil, err
			}
			if rc, err = pipeline.NewRunContext(d, cfg); err != nil {
				return nil, err
			}
			runErr = pl.Run(ctx, rc)
		}
	} else {
		if !os.IsNotExist(lerr) {
			a.hub.Publish(Event{Type: "log", Line: fmt.Sprintf("ignoring unreadable checkpoint: %v", lerr)})
		}
		runErr = pl.Run(ctx, rc)
	}
	if runErr != nil {
		// A parked (or failed) attempt still reports what it did: the
		// partial result lands in the manifest, and the next attempt merges
		// it so a resumed job's statistics stay cumulative.
		return buildResult(rc, m.Result), runErr
	}

	// Artifacts of a completed job: the structured run report and the
	// placed design in Bookshelf form.
	if rp, perr := s.spool.ArtifactPath(id, "report.json"); perr == nil {
		if rep, berr := pipeline.BuildReport(rc); berr == nil {
			if werr := rep.Save(rp); werr != nil {
				s.log.ErrorContext(ctx, "write report artifact", "job", id, "error", werr)
			}
		}
	}
	if _, werr := bookshelf.Write(d, s.spool.JobDir(id), "placed"); werr != nil {
		s.log.ErrorContext(ctx, "write placed design", "job", id, "error", werr)
	}
	return buildResult(rc, m.Result), nil
}

// buildResult summarizes rc.Result as the manifest's JobResult, folding in
// the spooled result of prior interrupted attempts. pipeline.Resume replays
// positions/padding/weights but not run statistics, so without the merge a
// parked-then-resumed job would report gp_iters=0 and only the final
// attempt's runtime. Runtime accumulates across attempts; GP and padding
// counters are taken from whichever attempt actually ran those stages (a
// resume past a completed stage leaves this attempt's counter at zero).
func buildResult(rc *pipeline.RunContext, prior *JobResult) *JobResult {
	res := rc.Result
	out := &JobResult{
		HPWL:        res.HPWL,
		GPIters:     res.GP.Iters,
		GPOverflow:  res.GP.Overflow,
		PaddingRuns: len(res.PaddingRuns),
		RuntimeMS:   float64(res.Runtime) / float64(time.Millisecond),
	}
	if rr := res.Route; rr != nil {
		out.HOF, out.VOF, out.RoutedWL = rr.HOF, rr.VOF, rr.WL
	}
	if prior != nil {
		out.RuntimeMS += prior.RuntimeMS
		if out.GPIters == 0 {
			out.GPIters, out.GPOverflow = prior.GPIters, prior.GPOverflow
		}
		if out.PaddingRuns == 0 {
			out.PaddingRuns = prior.PaddingRuns
		}
	}
	return out
}

// execExplore runs an in-process strategy-exploration job (distributed
// explorations never reach a worker — the coordinator rejects them into
// its farm controller instead). In-process exploration carries no
// resumable design state, so a re-admitted exploration starts over.
func (s *Server) execExplore(ctx context.Context, m *Manifest, a *entry, rec *obs.Recorder) (*JobResult, error) {
	d, _, err := s.buildDesign(m)
	if err != nil {
		return nil, fmt.Errorf("build design: %w", err)
	}
	cfg, err := placeConfig(&m.Spec, rec, a.hub)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	final, _, trials, err := puffer.ExploreStrategy(ctx, d, cfg.Place, puffer.ExploreOptions{
		Budget:  m.Spec.Budget,
		Seed:    m.Spec.Seed,
		Workers: m.Spec.Workers,
		Logf:    cfg.Logf,
		Obs:     rec,
	})
	if err != nil {
		return nil, err
	}
	if sp, perr := s.spool.ArtifactPath(m.ID, "strategy.json"); perr == nil {
		if werr := puffer.SaveStrategy(sp, final); werr != nil {
			s.log.ErrorContext(ctx, "write strategy artifact", "job", m.ID, "error", werr)
		}
	}
	return &JobResult{
		Trials:    trials,
		BestScore: rec.Registry().Gauge("explore.best_score").Value(),
		RuntimeMS: float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// listArtifacts returns the downloadable files present in the job dir.
func (s *Server) listArtifacts(id string) []string {
	entries, err := os.ReadDir(s.spool.JobDir(id))
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || e.Name() == "manifest.json" {
			continue
		}
		out = append(out, e.Name())
	}
	return out
}
