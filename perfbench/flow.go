package main

import (
	"context"
	"fmt"
	"time"

	"puffer/internal/cong"
	"puffer/internal/density"
	"puffer/internal/dp"
	"puffer/internal/feature"
	"puffer/internal/geom"
	"puffer/internal/legal"
	"puffer/internal/netlist"
	"puffer/internal/padding"
	"puffer/internal/place"
	"puffer/internal/router"
	"puffer/internal/rsmt"
	"puffer/internal/synth"
	"puffer/internal/wirelength"
	"puffer/pipeline"
)

// flowParams sizes the flow-media workload; the tests shrink it.
type flowParams struct {
	profile    string
	scale      int
	designSeed int64
	setups     int // set-ups per pass; setup_s is their median
}

// The design is fixed: routed overflow on this profile swings between
// 1.8% and 8.6% across generator seeds (1:200, seeds 1–3), more than any
// bound could absorb, so the seed varies nothing here (README.md).
var fullFlow = flowParams{profile: "MEDIA_SUBSYS", scale: 200, designSeed: 1, setups: 9}

func generate(profile string, scale int, seed int64) (*netlist.Design, error) {
	p, err := synth.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	return synth.Generate(p, scale, seed), nil
}

// flowConfig is cmd/puffer's default configuration for a design seed.
func flowConfig(p flowParams) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Place.Seed = p.designSeed
	return cfg
}

// evalConfig is the evaluation-router configuration cmd/puffer uses after
// a flow: the flow's Gcell grid and its estimator's cached topologies.
func evalConfig(rc *pipeline.RunContext) router.Config {
	cfg := router.DefaultConfig()
	if po := rc.PadOptimizer(); po.Iter() > 0 {
		cfg.GridW, cfg.GridH = rc.GridW, rc.GridH
		cfg.Topo = po.Estimator()
	}
	return cfg
}

// flowOutcome is what one flow produced: the quality numbers the twin
// check compares bit for bit, plus the state the warm loop reuses.
type flowOutcome struct {
	rc      *pipeline.RunContext
	route   *router.Result
	evalCfg router.Config
	wall    time.Duration
}

func (f flowOutcome) overflow() float64 { return f.route.HOF + f.route.VOF }

// untracedFlow runs the default pipeline and the evaluation router exactly
// as cmd/puffer does (puffer.RunCtx is the same pipeline; the RunContext
// is kept so the router can reuse the estimator's topologies).
func untracedFlow(ctx context.Context, d *netlist.Design, cfg pipeline.Config) (flowOutcome, error) {
	t := time.Now()
	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		return flowOutcome{}, err
	}
	if err := pipeline.New().Run(ctx, rc); err != nil {
		return flowOutcome{}, err
	}
	ecfg := evalConfig(rc)
	rr, err := router.RouteCtx(ctx, d, ecfg)
	if err != nil {
		return flowOutcome{}, err
	}
	return flowOutcome{rc: rc, route: rr, evalCfg: ecfg, wall: time.Since(t)}, nil
}

func runFlow(r *run, p flowParams) error {
	ctx := context.Background()

	var setups []float64
	var d *netlist.Design
	for i := 0; i < p.setups; i++ {
		t := time.Now()
		var err error
		if d, err = generate(p.profile, p.scale, p.designSeed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.set("setup_s", median(setups))
	st := d.Stats()
	r.note("design %s 1:%d (seed %d): %d cells, %d nets, %d macros", p.profile, p.scale, p.designSeed, st.Cells, st.Nets, st.Macros)

	cold, err := untracedFlow(ctx, d, flowConfig(p))
	if !r.op(err) {
		return fmt.Errorf("cold flow: %w", err)
	}
	r.set("cold_s", cold.wall.Seconds())
	r.set("hpwl", cold.rc.Result.HPWL)
	r.set("routed_wl", cold.route.WL)
	r.set("routed_overflow_pct", cold.overflow())
	checkLegal(r, d, "flow placement")

	// Warm loop: routing evaluations of the placed design, the request a
	// user makes to judge a placement. Each must repeat the first exactly.
	var warm []float64
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for len(warm) == 0 || time.Now().Before(deadline) {
		t := time.Now()
		rr, err := router.RouteCtx(ctx, d, cold.evalCfg)
		warm = append(warm, ms(time.Since(t)))
		if r.op(err) {
			r.gate(rr.WL == cold.route.WL && rr.HOF == cold.route.HOF && rr.VOF == cold.route.VOF,
				"re-evaluation %d differs from the first (WL %v vs %v)", len(warm), rr.WL, cold.route.WL)
		}
	}
	r.set("warm_ms_p50", median(warm))
	r.set("warm.samples", float64(len(warm)))
	r.set("warm_ms_p90", quantile(warm, 0.9))
	r.note("warm: %d routing evaluations; p90 %s", len(warm), tailNote(len(warm), 0.9))

	if !r.traced {
		return nil
	}

	// Traced pass: the same flow on a fresh copy of the design, through the
	// re-composed stage list with bench spans around each layer call.
	td, err := generate(p.profile, p.scale, p.designSeed)
	if err != nil {
		return err
	}
	tr, err := tracedFlow(ctx, r, td, flowConfig(p), false)
	if !r.op(err) {
		return fmt.Errorf("traced flow: %w", err)
	}
	twinCheck(r, "traced flow", cold.rc.Result.HPWL, cold.route, tr.rc.Result.HPWL, tr.route)
	r.set("trace.overhead_pct", 100*(tr.wall.Seconds()-cold.wall.Seconds())/cold.wall.Seconds())
	ledgerFromTrace(r, tr)
	return nil
}

func tailNote(n int, q float64) string {
	if tailCounts(n, q) {
		return "counts"
	}
	return fmt.Sprintf("does not count (%d samples, fewer than 10 beyond it)", n)
}

// checkLegal runs the independent legality checker on a placement that
// left the engine. A violation fails the pass and counts as a failed
// operation.
func checkLegal(r *run, d *netlist.Design, what string) {
	vs := legal.Check(d, 5)
	var err error
	if len(vs) > 0 {
		err = fmt.Errorf("%s has %d+ legality violations (first: %v)", what, len(vs), vs[0])
	}
	r.op(err)
	r.gate(err == nil, "%v", err)
}

// twinCheck gates that two runs of the same flow produced bit-identical
// quality numbers.
func twinCheck(r *run, what string, hpwlA float64, a *router.Result, hpwlB float64, b *router.Result) {
	r.gate(hpwlA == hpwlB, "%s: hpwl %v != %v", what, hpwlB, hpwlA)
	r.gate(a.WL == b.WL, "%s: routed_wl %v != %v", what, b.WL, a.WL)
	r.gate(a.HOF+a.VOF == b.HOF+b.VOF, "%s: routed_overflow_pct %v != %v", what, b.HOF+b.VOF, a.HOF+a.VOF)
}

// tracedOutcome extends a flow outcome with the snapshots the replays use.
type tracedOutcome struct {
	flowOutcome
	padSnaps []*pipeline.Checkpoint // design state after each padding call
	postGP   *pipeline.Checkpoint   // design state when global placement ends
	gridM    int                    // finest density grid of the run
	gridN    int
}

// tracedFlow re-composes the default stage list from the same public calls
// pipeline.Default makes, with bench spans around each layer call, then
// routes. Without routeStage the router runs after the pipeline, as in
// cmd/puffer; with it the router runs as a pipeline stage configured like
// pipeline.Route(router.Config{}), as in a pufferd place job.
func tracedFlow(ctx context.Context, r *run, d *netlist.Design, cfg pipeline.Config, routeStage bool) (*tracedOutcome, error) {
	t := time.Now()
	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		return nil, err
	}
	out := &tracedOutcome{}
	sp := r.spans
	root := sp.begin("flow", -1)
	stages := []pipeline.Stage{
		tracedPlace(sp, root, out),
		pipeline.StageFunc{StageName: pipeline.StageLegal, Fn: func(ctx context.Context, rc *pipeline.RunContext) error {
			lcfg := rc.Cfg.Legal
			lcfg.Theta = rc.Cfg.Strategy.Theta
			id := sp.begin("legal", root)
			lres, err := legal.LegalizeCtx(ctx, rc.Design, lcfg)
			sp.end(id)
			if err != nil {
				return err
			}
			rc.Result.Legal = lres
			rc.SetIters(lres.Cells)
			return nil
		}},
		pipeline.StageFunc{StageName: pipeline.StageDP, Fn: func(ctx context.Context, rc *pipeline.RunContext) error {
			if rc.Cfg.DP.Passes <= 0 {
				return nil
			}
			id := sp.begin("dp", root)
			dres, err := dp.RefineCtx(ctx, rc.Design, rc.Cfg.DP)
			sp.end(id)
			if err != nil {
				return err
			}
			rc.Result.DP = dres
			rc.SetIters(dres.Passes)
			return nil
		}},
	}
	if routeStage {
		stages = append(stages, pipeline.StageFunc{StageName: pipeline.StageRoute, Fn: func(ctx context.Context, rc *pipeline.RunContext) error {
			rcfg := router.Config{GridW: rc.GridW, GridH: rc.GridH, Workers: rc.Cfg.Workers}
			if po := rc.PadOptimizer(); po.Iter() > 0 {
				rcfg.Topo = po.Estimator()
			}
			id := sp.begin("router", root)
			rr, err := router.RouteCtx(ctx, rc.Design, rcfg)
			sp.end(id)
			if err != nil {
				return err
			}
			rc.Result.Route = rr
			rc.SetIters(rr.Segments)
			return nil
		}})
	}
	if err := pipeline.New(stages...).Run(ctx, rc); err != nil {
		sp.end(root)
		return nil, err
	}
	out.rc = rc
	if routeStage {
		out.route = rc.Result.Route
	} else {
		out.evalCfg = evalConfig(rc)
		id := sp.begin("router", root)
		out.route, err = router.RouteCtx(ctx, d, out.evalCfg)
		sp.end(id)
		if err != nil {
			return nil, err
		}
	}
	sp.end(root)
	out.wall = time.Since(t)
	return out, nil
}

// tracedPlace mirrors pipeline.GlobalPlace: place.NewChecked with a
// place.Hook that runs the routability optimizer when it triggers. The
// hook also snapshots the design after each optimizer call for the
// estimator/feature/RSMT replays.
func tracedPlace(sp *tracer, root int, out *tracedOutcome) pipeline.Stage {
	return pipeline.StageFunc{StageName: pipeline.StagePlace, Fn: func(ctx context.Context, rc *pipeline.RunContext) error {
		opt := rc.PadOptimizer()
		id := sp.begin("place", root)
		defer sp.end(id)
		placer, err := place.NewChecked(rc.Design, rc.Cfg.Place)
		if err != nil {
			return err
		}
		var hookErr error
		hook := place.HookFunc(func(iter int, overflow float64) bool {
			if hookErr != nil || !opt.ShouldTrigger(iter, overflow) {
				return false
			}
			pid := sp.begin("padding", id)
			info, err := opt.RunCtx(ctx)
			sp.end(pid)
			if err != nil {
				hookErr = err
				return false
			}
			rc.Result.PaddingRuns = append(rc.Result.PaddingRuns, info)
			out.padSnaps = append(out.padSnaps, pipeline.Capture("padding", rc.Design))
			return true
		})
		gp, err := placer.RunCtx(ctx, hook)
		rc.Result.GP = *gp
		rc.SetIters(gp.Iters)
		rc.SetGridLevel(placer.Level())
		rc.SetEngineReuse(placer.ReuseState())
		if opt.Iter() > 0 {
			rc.SetEstimatorStats(opt.Estimator().Stats())
		}
		if r := placer.ReuseState(); r != nil && r.Den != nil {
			fine := r.Den.Finest()
			out.gridM, out.gridN = fine.M, fine.N
		}
		out.postGP = pipeline.Capture(pipeline.StagePlace, rc.Design)
		if err == nil {
			err = hookErr
		}
		return err
	}}
}

// ledgerFromTrace turns a traced flow's spans, stage stats, and replays
// into the per-layer metrics of the flow layers.
func ledgerFromTrace(r *run, tr *tracedOutcome) {
	sp := r.spans
	placeWall, _ := sp.total("place")
	padWall, padCalls := sp.total("padding")
	legalWall, _ := sp.total("legal")
	dpWall, _ := sp.total("dp")
	routeWall, _ := sp.total("router")
	res := tr.rc.Result
	r.set("place.wall_s", placeWall.Seconds())
	r.set("place.iters", float64(res.GP.Iters))
	if res.GP.Iters > 0 {
		r.set("place.gp_ms_per_iter", ms(placeWall-padWall)/float64(res.GP.Iters))
	}
	r.set("padding.calls", float64(padCalls))
	r.set("padding.wall_s", padWall.Seconds())
	r.set("legal.wall_s", legalWall.Seconds())
	r.set("dp.wall_s", dpWall.Seconds())
	r.set("router.wall_s", routeWall.Seconds())
	r.set("router.rerouted", float64(tr.route.Rerouted))
	for _, s := range res.Stages {
		switch s.Name {
		case pipeline.StagePlace:
			r.set("place.allocs", float64(s.AllocsDelta))
			if e := s.Estimator; e != nil {
				r.set("cong.lookups", float64(e.CacheHits+e.CacheMisses))
				r.set("cong.hit_rate", e.HitRate())
			}
		case pipeline.StageLegal:
			r.set("legal.allocs", float64(s.AllocsDelta))
		}
	}
	d := tr.rc.Design
	r.set("legal.check_ms", timeMedian(3, func() { legal.Check(d, 0) }))
	replayKernels(r, d, tr.postGP, tr.gridM, tr.gridN, tr.rc.Cfg.Workers)
	replayEstimator(r, d, tr.padSnaps, tr.rc.GridW, tr.rc.GridH, tr.rc.Cfg.Strategy)
}

// replayKernels times the GP kernels on the post-GP design: the WA
// wirelength gradient, deposit + spectral solve on the run's finest grid,
// and the field force on every movable cell.
func replayKernels(r *run, base *netlist.Design, snap *pipeline.Checkpoint, m, n, workers int) {
	if snap == nil || m == 0 || n == 0 {
		return
	}
	d := base.Clone()
	if !r.gate(snap.Apply(d) == nil, "post-GP snapshot does not apply to the design") {
		return
	}
	const reps = 9
	gamma := 8 * d.Region.W() / float64(m) // ePlace's γ base: eight bin widths
	wl := wirelength.New(d, gamma)
	wl.SetWorkers(workers)
	gx := make([]float64, len(d.Cells))
	gy := make([]float64, len(d.Cells))
	r.set("wirelength.grad_ms", timeMedian(reps, func() { wl.WirelengthAndGrad(gx, gy) }))

	g := density.NewGrid(d.Region, m, n)
	g.SetWorkers(workers)
	var rects [2][]geom.Rect
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			g.AddFixedRect(c.Rect(), 1)
			continue
		}
		pr := c.PaddedRect()
		rects[0] = append(rects[0], pr)
		// The second list shifts every rect by a hundredth of a site, so
		// alternating deposits always miss the deposit fingerprint.
		shift := d.SiteWidth / 100
		rects[1] = append(rects[1], geom.Rect{
			Lo: geom.Point{X: pr.Lo.X + shift, Y: pr.Lo.Y},
			Hi: geom.Point{X: pr.Hi.X + shift, Y: pr.Hi.Y},
		})
	}
	before := g.Solves()
	k := 0
	r.set("density.solve_ms", timeMedian(reps, func() {
		g.DepositRects(rects[k%2])
		g.Solve()
		k++
	}))
	r.gate(g.Solves()-before == reps, "density replay solved %d times for %d deposits: the fingerprint hit", g.Solves()-before, reps)
	r.set("density.force_ms", timeMedian(reps, func() {
		for _, rc := range rects[(k-1)%2] {
			g.ForceOnRect(rc)
		}
	}))
}

// replayEstimator times a from-scratch congestion estimate, feature
// extraction, and RSMT construction of every net on each design snapshot
// taken at a padding call, reporting the median per call.
func replayEstimator(r *run, base *netlist.Design, snaps []*pipeline.Checkpoint, gw, gh int, s padding.Strategy) {
	if len(snaps) == 0 {
		return
	}
	var est, feat, trees []float64
	for _, snap := range snaps {
		d := base.Clone()
		if !r.gate(snap.Apply(d) == nil, "padding snapshot does not apply to the design") {
			return
		}
		p := s.Cong
		p.Topo = nil
		e := cong.NewEstimator(d, gw, gh, p)
		t := time.Now()
		cm := e.Estimate()
		est = append(est, ms(time.Since(t)))
		ts, err := e.SyncTopologies(context.Background())
		if !r.gate(err == nil, "estimator replay: %v", err) {
			return
		}
		t = time.Now()
		feature.Extract(d, cm, ts, s.Feat)
		feat = append(feat, ms(time.Since(t)))
		t = time.Now()
		buildAllTrees(d)
		trees = append(trees, ms(time.Since(t)))
	}
	r.set("cong.estimate_ms", median(est))
	r.set("feature.extract_ms", median(feat))
	r.set("rsmt.build_ms", median(trees))
}

var treeSink int

// buildAllTrees builds the rectilinear Steiner tree of every net.
func buildAllTrees(d *netlist.Design) {
	var pts []geom.Point
	for ni := range d.Nets {
		pts = pts[:0]
		for _, p := range d.Nets[ni].Pins {
			pts = append(pts, d.PinPos(p))
		}
		treeSink += len(rsmt.Build(pts).Edges)
	}
}
