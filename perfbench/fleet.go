package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	puffer "puffer"
	"puffer/internal/cas"
	"puffer/internal/coord"
	"puffer/internal/explore"
	"puffer/internal/padding"
	"puffer/internal/serve"
	"puffer/internal/xfarm"
	"puffer/pipeline"
)

// fleetParams sizes the fleet-explore workload; the tests shrink it.
type fleetParams struct {
	profile    string
	scale      int
	designSeed int64
	budget     int
	maxIters   int // trial GP cap (0 = engine default)
	nodes      int // fleet workers, one job slot each
	setups     int

	// pufferd's deployed defaults: -poll, -heartbeat, -dead-after.
	poll, heartbeat, deadAfter time.Duration
}

// The design and exploration seed are fixed for the same reason as
// flow-media's: the best score is a routed overflow (README.md).
var fullFleet = fleetParams{profile: "MEDIA_SUBSYS", scale: 1500, designSeed: 1, budget: 2,
	nodes: 2, setups: 25, poll: time.Second, heartbeat: 2 * time.Second, deadAfter: 10 * time.Second}

// exploreSpec is the distributed exploration the client submits. Early
// stop and warm start stay off, so the trial schedule is deterministic
// and the exploration is cacheable.
func (p fleetParams) exploreSpec(nocache bool) serve.JobSpec {
	return serve.JobSpec{
		Kind: serve.KindExplore, Profile: p.profile, Scale: p.scale, Seed: p.designSeed,
		Budget: p.budget, MaxIters: p.maxIters, Distributed: true, NoCache: nocache,
	}
}

// fleet is an in-process coordinator plus workers, each behind its own
// loopback listener, the workers registered through coord.Announcer.
type fleet struct {
	coord   *coord.Server
	cl      *listener
	casDir  string
	workers []*serve.Server
	wls     []*listener
	stop    context.CancelFunc
	ann     sync.WaitGroup
}

func startFleet(dir string, p fleetParams) (*fleet, error) {
	f := &fleet{casDir: filepath.Join(dir, "coord", "cas")}
	cs, err := coord.New(coord.Config{
		SpoolDir: filepath.Join(dir, "coord"), CASDir: f.casDir,
		Poll: p.poll, DeadAfter: p.deadAfter,
	})
	if err != nil {
		return nil, err
	}
	cs.Start()
	f.coord = cs
	if f.cl, err = listen(cs.Handler()); err != nil {
		cs.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	for i := 0; i < p.nodes; i++ {
		srv, err := serve.New(serve.Config{SpoolDir: filepath.Join(dir, fmt.Sprintf("worker-%d", i)), Workers: 1})
		if err != nil {
			f.close()
			return nil, err
		}
		srv.Start()
		l, err := listen(srv.Handler())
		if err != nil {
			srv.Close()
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, srv)
		f.wls = append(f.wls, l)
		id, addr := fmt.Sprintf("w%d", i), l.url
		ann := &coord.Announcer{
			Coordinator: f.cl.url,
			Interval:    p.heartbeat,
			Manifest: func() coord.NodeManifest {
				return coord.NodeManifest{ID: id, Addr: addr, Engine: serve.EngineVersion, Stats: srv.Stats()}
			},
		}
		f.ann.Add(1)
		go func() {
			defer f.ann.Done()
			ann.Run(ctx)
		}()
	}
	// Ready once the coordinator lists every worker live.
	c := newClient(f.cl.url)
	for deadline := time.Now().Add(30 * time.Second); ; {
		var rows []struct {
			Live bool `json:"live"`
		}
		if err := c.call("GET", "/api/v1/nodes", nil, 200, &rows); err != nil {
			f.close()
			return nil, err
		}
		live := 0
		for _, row := range rows {
			if row.Live {
				live++
			}
		}
		if live == p.nodes {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("%d of %d workers registered", live, p.nodes)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the announcers, the coordinator, then the workers, and
// waits for each to exit.
func (f *fleet) close() {
	if f.stop != nil {
		f.stop()
	}
	f.ann.Wait()
	if f.cl != nil {
		f.cl.close()
	}
	f.coord.Close()
	for i, srv := range f.workers {
		f.wls[i].close()
		srv.Close()
	}
}

// exploreOnce submits one exploration and follows its events to the end.
func exploreOnce(ctx context.Context, c *client, spec serve.JobSpec) (*serve.Manifest, error) {
	var m serve.Manifest
	if err := c.call("POST", "/api/v1/jobs", spec, 202, &m); err != nil {
		return nil, err
	}
	if !m.State.Terminal() {
		if _, err := c.waitState(ctx, "/api/v1/jobs/"+m.ID+"/events", func(s string) bool { return serve.JobState(s).Terminal() }); err != nil {
			return nil, fmt.Errorf("exploration %s: %w", m.ID, err)
		}
	}
	var done serve.Manifest
	if err := c.call("GET", "/api/v1/jobs/"+m.ID, nil, 200, &done); err != nil {
		return nil, err
	}
	if done.State != serve.StateDone || done.Result == nil {
		return &done, fmt.Errorf("exploration %s ended %s: %s", done.ID, done.State, done.Error)
	}
	if done.Result.BestScore >= xfarm.Infeasible {
		return &done, fmt.Errorf("exploration %s: every trial infeasible", done.ID)
	}
	return &done, nil
}

func runFleet(r *run, p fleetParams) error {
	ctx := context.Background()

	var setups []float64
	var f *fleet
	for i := 0; i < p.setups; i++ {
		if f != nil {
			f.close()
		}
		t := time.Now()
		var err error
		if f, err = startFleet(filepath.Join(r.dir, fmt.Sprintf("fleet-%d", i)), p); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer f.close()
	r.set("setup_s", median(setups))
	c := newClient(f.cl.url)

	t := time.Now()
	cold, err := exploreOnce(ctx, c, p.exploreSpec(false))
	if !r.op(err) {
		return fmt.Errorf("cold exploration: %w", err)
	}
	r.set("cold_s", time.Since(t).Seconds())
	best := cold.Result.BestScore
	r.note("cold exploration: %d trials, best score %v", cold.Result.Trials, best)

	// Warm closed loop: the same exploration, forced past the exploration
	// cache, so every trial answers from the per-trial result cache.
	var warm []float64
	var warmIDs []string
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for len(warm) == 0 || time.Now().Before(deadline) {
		t := time.Now()
		m, err := exploreOnce(ctx, c, p.exploreSpec(true))
		if !r.op(err) {
			if len(warmIDs) == 0 && len(warm) == 0 && time.Now().After(deadline) {
				return fmt.Errorf("warm exploration: %w", err)
			}
			continue
		}
		warm = append(warm, ms(time.Since(t)))
		warmIDs = append(warmIDs, m.ID)
		r.gate(m.Result.BestScore == best, "warm re-exploration %s best score %v != cold %v (cached != fresh)", m.ID, m.Result.BestScore, best)
	}
	r.set("warm_ms_p50", median(warm))
	r.set("warm.samples", float64(len(warm)))
	r.set("warm_ms_p90", quantile(warm, 0.9))
	r.note("warm: %d re-explorations; p90 %s", len(warm), tailNote(len(warm), 0.9))

	var all []*serve.Manifest
	if !r.op(c.call("GET", "/api/v1/jobs", nil, 200, &all)) {
		return errors.New("list coordinator jobs")
	}
	trials := func(parents ...string) []*serve.Manifest {
		set := map[string]bool{}
		for _, p := range parents {
			set[p] = true
		}
		var out []*serve.Manifest
		for _, m := range all {
			if set[m.Parent] {
				out = append(out, m)
			}
		}
		return out
	}
	coldTrials := trials(cold.ID)
	r.gate(len(coldTrials) == cold.Result.Trials, "spool holds %d trials of the cold exploration, result says %d", len(coldTrials), cold.Result.Trials)
	// Every trial is an operation of the fleet: one that failed, was
	// canceled, or scored infeasible counts as failed.
	for _, m := range append(coldTrials, trials(warmIDs...)...) {
		var err error
		if m.State != serve.StateDone || m.Result == nil || m.Result.HOF+m.Result.VOF >= xfarm.Infeasible {
			err = fmt.Errorf("trial %s ended %s: %s", m.ID, m.State, m.Error)
		}
		r.op(err)
	}

	// The winner: the trial whose routed overflow is the best score.
	var win *serve.Manifest
	for _, m := range coldTrials {
		if m.State == serve.StateDone && m.Result != nil && m.Result.HOF+m.Result.VOF == best && (win == nil || m.SubmittedAt.Before(win.SubmittedAt)) {
			win = m
		}
	}
	if !r.gate(win != nil, "no cold trial scored the best score %v", best) {
		return nil
	}
	win = resolveOrigin(all, win)
	r.set("hpwl", win.Result.HPWL)
	r.set("routed_wl", win.Result.RoutedWL)
	r.set("routed_overflow_pct", win.Result.HOF+win.Result.VOF)

	if !r.traced {
		return nil
	}
	return fleetLedger(ctx, r, f, c, cold, coldTrials, trials(warmIDs...), win)
}

// resolveOrigin follows a cache-hit trial to the job that computed it.
func resolveOrigin(all []*serve.Manifest, m *serve.Manifest) *serve.Manifest {
	if !m.CacheHit || m.Origin == "" {
		return m
	}
	for _, o := range all {
		if o.ID == m.Origin {
			return o
		}
	}
	return m
}

// fleetLedger derives the fleet layers' metrics from the trial manifests
// (read through the public job API of the coordinator and the workers)
// and from replays on the coordinator's store, then replays the winning
// trial in process through the traced stage list.
func fleetLedger(ctx context.Context, r *run, f *fleet, c *client, cold *serve.Manifest, coldTrials, warmTrials []*serve.Manifest, win *serve.Manifest) error {
	hitRate := func(ms []*serve.Manifest) float64 {
		if len(ms) == 0 {
			return 0
		}
		hits := 0
		for _, m := range ms {
			if m.CacheHit {
				hits++
			}
		}
		return float64(hits) / float64(len(ms))
	}
	r.set("cas.trials_cold", float64(len(coldTrials)))
	r.set("cas.hit_rate_cold", hitRate(coldTrials))
	r.set("cas.trials_warm", float64(len(warmTrials)))
	r.set("cas.hit_rate_warm", hitRate(warmTrials))

	// Dispatch, poll lag, and worker runtime of every trial that ran.
	var runtime, dispatch, lag []float64
	for _, m := range coldTrials {
		if m.CacheHit || m.NodeAddr == "" || m.FinishedAt == nil {
			continue
		}
		var wm serve.Manifest
		if !r.op(newClient(m.NodeAddr).call("GET", "/api/v1/jobs/"+m.RemoteID, nil, 200, &wm)) {
			continue
		}
		if wm.StartedAt == nil || wm.FinishedAt == nil || wm.Result == nil {
			r.gate(false, "worker manifest of trial %s lacks timestamps or result", m.ID)
			continue
		}
		runtime = append(runtime, wm.Result.RuntimeMS)
		dispatch = append(dispatch, ms(wm.StartedAt.Sub(m.SubmittedAt)))
		lag = append(lag, ms(m.FinishedAt.Sub(*wm.FinishedAt)))
	}
	r.set("trial.runtime_ms_p50", median(runtime))
	r.set("coord.dispatch_ms_p50", median(dispatch))
	r.set("coord.poll_lag_ms_p50", median(lag))

	// A cached trial, as a client sees it: resubmitting a cold trial's spec
	// answers from the result index without dispatching.
	var cached []float64
	for _, m := range coldTrials {
		t := time.Now()
		var hit serve.Manifest
		if !r.op(c.call("POST", "/api/v1/jobs", m.Spec, 202, &hit)) {
			continue
		}
		cached = append(cached, ms(time.Since(t)))
		r.gate(hit.CacheHit && hit.State == serve.StateDone, "resubmitted trial %s did not answer from the cache", m.ID)
	}
	r.set("trial.cached_ms_p50", median(cached))

	// Result-index lookups on the coordinator's store.
	store, err := cas.Open(f.casDir)
	if err != nil {
		return fmt.Errorf("open cas: %w", err)
	}
	var lookups []float64
	for _, m := range coldTrials {
		const reps = 50
		t := time.Now()
		var ok bool
		for i := 0; i < reps; i++ {
			_, ok = store.Result(cas.Digest(m.DesignDigest), cas.Digest(m.ConfigDigest), serve.EngineVersion)
		}
		lookups = append(lookups, float64(time.Since(t).Microseconds())/reps)
		r.gate(ok, "trial %s has no result-index entry", m.ID)
	}
	r.set("cas.lookup_us", median(lookups))

	// Spool writes: the manifest write each trial admission costs.
	sp, err := serve.OpenSpool(filepath.Join(r.dir, "replay-spool"))
	if err != nil {
		return err
	}
	var writes []float64
	var replayID string
	for _, m := range coldTrials {
		cp := *m
		cp.ID = serve.NewJobID()
		t := time.Now()
		err := sp.CreateJob(&cp)
		writes = append(writes, ms(time.Since(t)))
		if !r.gate(err == nil, "spool replay: %v", err) {
			return nil
		}
		replayID = cp.ID
	}
	r.set("serve.spool_write_ms", median(writes))

	// The farm controller's checkpoint and the TPE sampler, replayed on
	// the cold exploration's own explore-state manifest.
	var raw json.RawMessage
	if !r.op(c.call("GET", "/api/v1/jobs/"+cold.ID+"/artifacts/"+coord.ExploreStateArtifact, nil, 200, &raw)) {
		return errors.New("fetch explore state")
	}
	st, err := xfarm.ParseState(raw)
	if err != nil {
		return fmt.Errorf("explore state: %w", err)
	}
	r.set("xfarm.checkpoint_ms", timeMedian(9, func() {
		data, err := st.Encode()
		if err == nil {
			err = sp.WriteArtifact(replayID, coord.ExploreStateArtifact, data)
		}
		r.gate(err == nil, "checkpoint replay: %v", err)
	}))
	var obs []explore.Observation
	for _, tr := range st.Trials {
		obs = append(obs, explore.Observation{X: explore.Assignment(tr.X), Y: tr.Score})
	}
	ranges := map[string]explore.Range{}
	for k, v := range st.Ranges {
		ranges[k] = explore.Range{Lo: v.Lo, Hi: v.Hi}
	}
	params := puffer.StrategyParams()
	rng := rand.New(rand.NewSource(deriveSeed(r.seed, "tpe-replay")))
	tpe := explore.DefaultTPE()
	r.set("explore.suggest_ms", timeMedian(9, func() { tpe.Suggest(rng, params, ranges, obs) }))

	// The winning trial, re-run in process through the traced stage list,
	// must reproduce the worker's result bit for bit.
	d, err := generate(win.Spec.Profile, win.Spec.Scale, win.Spec.Seed)
	if err != nil {
		return err
	}
	cfg, err := trialConfig(win.Spec)
	if err != nil {
		return err
	}
	tr, err := tracedFlow(ctx, r, d, cfg, true)
	if !r.op(err) {
		return fmt.Errorf("winner replay: %w", err)
	}
	res := win.Result
	r.gate(tr.rc.Result.HPWL == res.HPWL, "in-process winner hpwl %v != fleet %v", tr.rc.Result.HPWL, res.HPWL)
	r.gate(tr.route.WL == res.RoutedWL, "in-process winner routed_wl %v != fleet %v", tr.route.WL, res.RoutedWL)
	r.gate(tr.route.HOF+tr.route.VOF == res.HOF+res.VOF, "in-process winner overflow %v != fleet %v", tr.route.HOF+tr.route.VOF, res.HOF+res.VOF)
	ledgerFromTrace(r, tr)
	return nil
}

// trialConfig mirrors pufferd's place-job configuration for a trial spec.
func trialConfig(spec serve.JobSpec) (pipeline.Config, error) {
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
	return cfg, nil
}
