package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	puffer "puffer"
	"puffer/internal/cas"
	"puffer/internal/explore"
	"puffer/internal/obs"
	"puffer/internal/padding"
	"puffer/internal/serve"
	"puffer/internal/xfarm"
)

// The exploration farm: a Distributed explore job does not dispatch to a
// worker — it runs as an xfarm controller inside the coordinator, and every
// TPE trial the controller schedules is submitted back through the normal
// fleet admission path as its own place job. Trials therefore get the full
// fleet treatment for free: content-addressed result caching (identical
// trial configs dedupe, and a resumed exploration re-runs zero finished
// placements), least-loaded engine-matched dispatch, checkpoint-mirrored
// failover, and SSE progress the controller taps for early-stop samples.
//
// Durability: the controller checkpoints a puffer/explore-state/v1 manifest
// into the exploration job's artifact dir after every observation. A
// SIGKILLed coordinator restarts the controller from that artifact at boot
// (recover), finished trials replay or cache-hit, and in-flight trials
// re-attach to their still-running jobs by ID.

// ExploreStateArtifact is the spooled checkpoint name of a distributed
// exploration (downloadable like any other artifact).
const ExploreStateArtifact = "explore-state.json"

// errFarmCanceled marks a client-initiated exploration cancel, so shutdown
// (which parks the farm for resume) and cancel (terminal) are told apart.
var errFarmCanceled = errors.New("exploration canceled by client")

// farm is the in-memory runtime of one distributed exploration.
type farm struct {
	id     string
	hub    *serve.Hub // trial lifecycle + sample + log events for watchers
	cancel context.CancelCauseFunc
}

// farmSink forwards the controller's metric samples (explore.trial.score,
// explore.best_score, xfarm.* counters) to the exploration's event hub.
type farmSink struct{ h *serve.Hub }

func (s farmSink) Observe(series string, sm obs.Sample) {
	s.h.Publish(serve.Event{Type: "sample", Series: series, Step: sm.Step, Value: sm.Value})
}

func (s farmSink) Flush() error { return nil }

// startFarm launches (or at boot, resumes) the controller goroutine for a
// Distributed exploration manifest.
func (s *Server) startFarm(m *serve.Manifest) {
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	f := &farm{id: m.ID, hub: serve.NewHub(), cancel: cancel}
	s.mu.Lock()
	s.farms[m.ID] = f
	n := len(s.farms)
	s.mu.Unlock()
	s.reg.Gauge("coord.farms_active").Set(float64(n))
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runFarm(ctx, f)
	}()
}

// removeFarm drops the farm runtime (the hub is closed by the caller).
func (s *Server) removeFarm(id string) {
	s.mu.Lock()
	delete(s.farms, id)
	n := len(s.farms)
	s.mu.Unlock()
	s.reg.Gauge("coord.farms_active").Set(float64(n))
}

// lookupFarm returns the live controller runtime for a job, or nil.
func (s *Server) lookupFarm(id string) *farm {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.farms[id]
}

// runFarm drives one exploration to a terminal state (or parks it for the
// next boot when the coordinator itself shuts down mid-run).
func (s *Server) runFarm(ctx context.Context, f *farm) {
	start := time.Now()
	m, err := s.spool.Update(f.id, func(mm *serve.Manifest) error {
		if mm.State.Terminal() { // canceled before the controller started
			return fmt.Errorf("exploration %s already %s", mm.ID, mm.State)
		}
		mm.State = serve.StateRunning
		mm.Attempts++
		now := time.Now()
		mm.StartedAt = &now
		return nil
	})
	if err != nil {
		s.removeFarm(f.id)
		f.hub.Close()
		return
	}
	f.hub.Publish(serve.Event{Type: "state", State: serve.StateRunning})

	// A spooled checkpoint from an interrupted attempt resumes the schedule.
	var prev *xfarm.State
	if path, perr := s.spool.ArtifactPath(f.id, ExploreStateArtifact); perr == nil {
		if data, rerr := os.ReadFile(path); rerr == nil {
			st, serr := xfarm.ParseState(data)
			switch {
			case serr != nil:
				s.log.Warn("explore checkpoint unreadable; starting fresh", "job", f.id, "error", serr)
			case st.Seed != m.Spec.Seed || st.Budget != m.Spec.Budget:
				s.log.Warn("explore checkpoint is for a different run; starting fresh",
					"job", f.id, "seed", st.Seed, "budget", st.Budget)
			default:
				prev = st
				s.log.Info("resuming exploration from checkpoint",
					"job", f.id, "attempt", st.Attempts+1, "trials", len(st.Trials))
			}
		}
	}

	var priors []explore.Observation
	var seedRanges map[string]explore.Range
	if m.Spec.WarmStart {
		priors, seedRanges = s.warmPriors(m)
		if len(priors) > 0 {
			s.log.Info("warm-starting exploration", "job", f.id,
				"priors", len(priors), "seeded_ranges", len(seedRanges))
		}
	}

	rec := obs.NewRecorder(nil, obs.NewRegistry(farmSink{f.hub}))
	res, runErr := xfarm.Run(ctx, xfarm.Config{
		Params:       puffer.StrategyParams(),
		Budget:       m.Spec.Budget,
		Seed:         m.Spec.Seed,
		DesignDigest: m.DesignDigest,
		Job:          m.ID,
		EarlyStop:    m.Spec.EarlyStop,
		Margin:       s.cfg.EarlyStopMargin,
		WarmStart:    m.Spec.WarmStart,
		Priors:       priors,
		SeedRanges:   seedRanges,
		Backend:      &farmBackend{s: s, parent: m},
		Checkpoint: func(st *xfarm.State) error {
			data, err := st.Encode()
			if err != nil {
				return err
			}
			return s.spool.WriteArtifact(m.ID, ExploreStateArtifact, data)
		},
		Logf: func(format string, args ...any) {
			f.hub.Publish(serve.Event{Type: "log", Line: fmt.Sprintf(format, args...)})
		},
		Obs: rec,
	}, prev)

	if runErr != nil {
		s.removeFarm(f.id)
		switch {
		case ctx.Err() != nil && errors.Is(context.Cause(ctx), errFarmCanceled):
			s.finish(m, serve.StateCanceled, errFarmCanceled.Error(), nil, "")
			f.hub.Publish(serve.Event{Type: "state", State: serve.StateCanceled, Error: errFarmCanceled.Error()})
		case ctx.Err() != nil:
			// Coordinator shutdown: leave the manifest running — the next
			// boot restarts the controller from the last checkpoint.
			s.log.Info("exploration parked by shutdown", "job", f.id)
		default:
			s.finish(m, serve.StateFailed, runErr.Error(), nil, "")
			f.hub.Publish(serve.Event{Type: "state", State: serve.StateFailed, Error: runErr.Error()})
		}
		f.hub.Close()
		return
	}

	final := padding.DefaultStrategy()
	puffer.ApplyAssignment(&final, res.Final)
	if data, err := json.MarshalIndent(final, "", "  "); err == nil {
		if werr := s.spool.WriteArtifact(m.ID, "strategy.json", append(data, '\n')); werr != nil {
			s.log.Warn("strategy artifact write failed", "job", f.id, "error", werr)
		}
	}
	result := &serve.JobResult{
		Trials:    res.Trials,
		BestScore: res.BestScore,
		RuntimeMS: float64(time.Since(start)) / float64(time.Millisecond),
		Artifacts: []string{ExploreStateArtifact, "strategy.json"},
	}

	// Only deterministic explorations land in the result cache: early stop
	// and warm start both make the scores depend on fleet timing or spool
	// history, so their results must never answer a future submission.
	var rd cas.Digest
	if !m.Spec.EarlyStop && !m.Spec.WarmStart && m.DesignDigest != "" && m.ConfigDigest != "" {
		if canon, err := json.Marshal(canonicalResult(result)); err == nil {
			rd = cas.Sum(canon)
		}
	}
	s.removeFarm(f.id)
	s.finish(m, serve.StateDone, "", result, string(rd))
	if rd != "" {
		if err := s.store.PutResult(cas.ResultEntry{
			Design:       cas.Digest(m.DesignDigest),
			Config:       cas.Digest(m.ConfigDigest),
			Engine:       serve.EngineVersion,
			Job:          m.ID,
			ResultDigest: rd,
		}); err != nil {
			s.log.Warn("result cache record failed", "job", m.ID, "error", err)
		}
	}
	s.reg.Counter("coord.explorations_done").Inc()
	s.log.Info("exploration finished", "job", f.id, "trials", res.Trials,
		"best_score", res.BestScore, "cache_hits", res.CacheHits,
		"replayed", res.Replayed, "canceled", res.Canceled,
		"attempts", res.State.Attempts)
	f.hub.Publish(serve.Event{Type: "state", State: serve.StateDone})
	f.hub.Close()
}

// warmPriorCap bounds how many prior observations seed a warm start — the
// best few shape TPE's good/bad split; hundreds would drown the new run.
const warmPriorCap = 16

// warmPriors scans the spool for the most recent finished distributed
// exploration of the same design family (same synthetic profile, or the
// byte-identical uploaded design) and returns its best observations as TPE
// priors plus its final merged ranges as the starting search intervals.
func (s *Server) warmPriors(m *serve.Manifest) ([]explore.Observation, map[string]explore.Range) {
	all, err := s.spool.List()
	if err != nil {
		return nil, nil
	}
	var newest *serve.Manifest
	for _, c := range all {
		if c.ID == m.ID || c.State != serve.StateDone ||
			c.Spec.Kind != serve.KindExplore || !c.Spec.Distributed {
			continue
		}
		if !sameDesignFamily(c, m) {
			continue
		}
		if newest == nil || c.SubmittedAt.After(newest.SubmittedAt) {
			newest = c
		}
	}
	if newest == nil {
		return nil, nil
	}
	path, err := s.spool.ArtifactPath(newest.ID, ExploreStateArtifact)
	if err != nil {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil
	}
	st, err := xfarm.ParseState(data)
	if err != nil {
		s.log.Warn("warm-start donor state unreadable", "donor", newest.ID, "error", err)
		return nil, nil
	}
	var priors []explore.Observation
	for _, t := range st.Trials {
		if t.State != xfarm.TrialDone {
			continue
		}
		priors = append(priors, explore.Observation{X: explore.Assignment(t.X), Y: t.Score})
	}
	sort.Slice(priors, func(i, j int) bool { return priors[i].Y < priors[j].Y })
	if len(priors) > warmPriorCap {
		priors = priors[:warmPriorCap]
	}
	var ranges map[string]explore.Range
	if len(st.Ranges) > 0 {
		ranges = make(map[string]explore.Range, len(st.Ranges))
		for name, r := range st.Ranges {
			ranges[name] = explore.Range{Lo: r.Lo, Hi: r.Hi}
		}
	}
	return priors, ranges
}

// sameDesignFamily reports whether two exploration manifests tuned the same
// design family: profile jobs match on the profile name (any scale/seed —
// the paper tunes on a small instance and applies the strategy to larger
// ones), uploads only on the identical design blob.
func sameDesignFamily(a, b *serve.Manifest) bool {
	if b.Spec.Profile != "" {
		return a.Spec.Profile == b.Spec.Profile
	}
	return a.DesignDigest != "" && a.DesignDigest == b.DesignDigest
}

// farmBackend implements xfarm.Backend over the coordinator's own
// admission, spool, and proxy machinery.
type farmBackend struct {
	s      *Server
	parent *serve.Manifest
}

// Submit turns one TPE trial into a place job: the parent exploration's
// design, the candidate strategy as the job's strategy document, and the
// evaluation-routing stage appended so the job's result carries the
// objective (HOF + VOF) the sampler scores.
func (b *farmBackend) Submit(ctx context.Context, t explore.Trial) (string, error) {
	strat := padding.DefaultStrategy()
	puffer.ApplyAssignment(&strat, t.X)
	sj, err := json.Marshal(strat)
	if err != nil {
		return "", err
	}
	spec := serve.JobSpec{
		Kind:       serve.KindPlace,
		Profile:    b.parent.Spec.Profile,
		Scale:      b.parent.Spec.Scale,
		Seed:       b.parent.Spec.Seed,
		MaxIters:   b.parent.Spec.MaxIters,
		Route:      true,
		Strategy:   sj,
		TimeoutSec: b.parent.Spec.TimeoutSec,
		// The parent's NoCache is deliberately NOT inherited: it bypasses
		// the exploration-level result cache (force a fresh controller
		// run), while per-trial dedupe through the result index is the
		// farm's architecture — it is what makes resume replays and
		// re-explorations of a known design family cheap.
	}
	m, err := b.s.admitTrial(b.parent, spec)
	if err != nil {
		return "", err
	}
	return m.ID, nil
}

// Await polls the trial's local manifest (the coordinator's watchers keep
// it current) until it is terminal.
func (b *farmBackend) Await(ctx context.Context, jobID string) (xfarm.TrialOutcome, error) {
	for {
		m, err := b.s.spool.ReadManifest(jobID)
		if err != nil {
			return xfarm.TrialOutcome{}, err
		}
		switch m.State {
		case serve.StateDone:
			res := m.Result
			if res == nil {
				res = b.s.spool.Origin(m).Result
			}
			if res == nil {
				return xfarm.TrialOutcome{}, fmt.Errorf("trial %s finished without a result", jobID)
			}
			return xfarm.TrialOutcome{Score: res.HOF + res.VOF, CacheHit: m.CacheHit}, nil
		case serve.StateCanceled:
			return xfarm.TrialOutcome{Canceled: true}, nil
		case serve.StateFailed:
			return xfarm.TrialOutcome{}, fmt.Errorf("trial %s failed: %s", jobID, m.Error)
		}
		select {
		case <-ctx.Done():
			return xfarm.TrialOutcome{}, context.Cause(ctx)
		case <-time.After(b.s.cfg.Poll):
		}
	}
}

// Cancel requests mid-flight cancellation of a dominated trial.
func (b *farmBackend) Cancel(jobID, reason string) error {
	_, err := b.s.cancelJob(jobID, reason)
	return err
}

// WatchOverflow streams the trial's place.overflow samples from its
// worker's SSE feed, re-attaching wherever failover lands the job.
func (b *farmBackend) WatchOverflow(ctx context.Context, jobID string, fn func(step int, overflow float64)) {
	b.s.followJob(ctx, jobID, func(e serve.Event) bool {
		if e.Type == "sample" && e.Series == "place.overflow" {
			fn(e.Step, e.Value)
		}
		return true
	})
}

// admitTrial is the internal admission path for farm trial jobs: the same
// content addressing and result-cache check as Admit, minus the HTTP
// concerns, the pending cap (the controller self-limits at one in-flight
// trial per relevance group), and spec validation (the spec is built here,
// not received). The trial manifest carries Parent for provenance.
func (s *Server) admitTrial(parent *serve.Manifest, spec serve.JobSpec) (*serve.Manifest, error) {
	spec.Normalize()
	config, err := configDigest(&spec)
	if err != nil {
		return nil, err
	}
	m := &serve.Manifest{
		ID:           serve.NewJobID(),
		Spec:         spec,
		State:        serve.StateQueued,
		Tenant:       parent.Tenant,
		Parent:       parent.ID,
		DesignDigest: parent.DesignDigest,
		ConfigDigest: string(config),
		SubmittedAt:  time.Now().UTC(),
		TraceParent:  parent.TraceParent,
	}
	if !spec.NoCache {
		hit, err := s.answerFromCache(m)
		if err != nil {
			return nil, err
		}
		if hit {
			s.reg.Counter("coord.trial_cache_hits").Inc()
			return m, nil
		}
	}
	s.reg.Counter("coord.cache_misses").Inc()
	if strings.HasPrefix(parent.DesignDigest, "sha256-") && spec.Profile == "" {
		// Uploaded design: the trial references the parent's blob, and its
		// own ref balances the Release in finish.
		if err := s.store.AddRef(cas.Digest(parent.DesignDigest)); err != nil {
			return nil, err
		}
	}
	if err := s.spool.CreateJob(m); err != nil {
		return nil, err
	}
	s.reg.Counter("coord.trials_submitted").Inc()
	s.enqueue(m)
	return m, nil
}
