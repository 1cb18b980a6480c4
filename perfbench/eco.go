package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"puffer/internal/eco"
	"puffer/internal/geom"
	"puffer/internal/legal"
	"puffer/internal/netlist"
	"puffer/internal/router"
	"puffer/internal/serve"
	"puffer/pipeline"
)

// ecoParams sizes the eco-a53 workload; the tests shrink it.
type ecoParams struct {
	profile    string
	scale      int
	designSeed int64
	setups     int
	movePct    float64 // share of movable cells each delta relocates
	resizes    int     // cells resized per delta
	reweights  int     // nets reweighted per delta
	maxIters   int     // cold GP cap (0 = engine default)
}

// A53_ADB_WRAP at 1:600 has OR1200 1:60's size (~2,050 cells) but routes
// with non-zero overflow, so routed_overflow_pct means something here.
var fullECO = ecoParams{profile: "A53_ADB_WRAP", scale: 600, designSeed: 1, setups: 25,
	movePct: 0.01, resizes: 3, reweights: 3}

// deriveSeed mixes the workload seed with a purpose label, so each input
// stream has its own seed and the program never sees the workload seed.
func deriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

// deltaStream generates ECO deltas from a seed and the pristine design
// alone — never from program output — so a seed names the same inputs on
// every commit. Each delta relocates movePct of the movable cells to
// uniform random spots in the region, resizes a few cells by one site,
// and reweights a few nets; the three sets are disjoint within a delta.
type deltaStream struct {
	rng     *rand.Rand
	p       ecoParams
	region  geom.Rect
	movable []int
	w, h    []float64 // current cell sizes, tracked across resizes
	site    float64
	nets    int
}

func newDeltaStream(seed int64, d *netlist.Design, p ecoParams) *deltaStream {
	s := &deltaStream{
		rng:     rand.New(rand.NewSource(deriveSeed(seed, "eco-deltas"))),
		p:       p,
		region:  d.Region,
		movable: d.MovableIDs(),
		site:    d.SiteWidth,
		nets:    len(d.Nets),
	}
	for i := range d.Cells {
		s.w = append(s.w, d.Cells[i].W)
		s.h = append(s.h, d.Cells[i].H)
	}
	return s
}

func (s *deltaStream) next() *eco.Delta {
	dl := &eco.Delta{Format: eco.DeltaFormat}
	k := int(math.Round(s.p.movePct * float64(len(s.movable))))
	if k < 1 {
		k = 1
	}
	picked := map[int]bool{}
	pick := func() int {
		for {
			c := s.movable[s.rng.Intn(len(s.movable))]
			if !picked[c] {
				picked[c] = true
				return c
			}
		}
	}
	for i := 0; i < k; i++ {
		c := pick()
		w, h := s.w[c], s.h[c]
		x := s.region.Lo.X + w/2 + s.rng.Float64()*(s.region.W()-w)
		y := s.region.Lo.Y + h/2 + s.rng.Float64()*(s.region.H()-h)
		dl.Moves = append(dl.Moves, eco.CellMove{Cell: c, X: x, Y: y})
	}
	for i := 0; i < s.p.resizes; i++ {
		c := pick()
		w := s.w[c] + s.site
		if s.rng.Intn(2) == 0 && s.w[c] >= 3*s.site {
			w = s.w[c] - s.site
		}
		s.w[c] = w
		dl.Resizes = append(dl.Resizes, eco.CellResize{Cell: c, W: w})
	}
	for i := 0; i < s.p.reweights; i++ {
		dl.Weights = append(dl.Weights, eco.NetReweight{
			Net:    s.rng.Intn(s.nets),
			Weight: 0.5 + float64(s.rng.Intn(26))/10, // 0.5 … 3.0
		})
	}
	return dl
}

// ecoServer is one in-process pufferd worker serving sessions.
type ecoServer struct {
	srv   *serve.Server
	l     *listener
	spool string
}

func startServer(spool string) (*ecoServer, error) {
	srv, err := serve.New(serve.Config{SpoolDir: spool, Workers: 1})
	if err != nil {
		return nil, err
	}
	srv.Start()
	l, err := listen(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	if err := newClient(l.url).call("GET", "/healthz", nil, 200, nil); err != nil {
		l.close()
		srv.Close()
		return nil, err
	}
	return &ecoServer{srv: srv, l: l, spool: spool}, nil
}

func (s *ecoServer) close() {
	s.l.close()
	s.srv.Close()
}

// sessionSpec is the JSON a client posts to open a session (serve.SessionSpec).
func (p ecoParams) sessionSpec() serve.SessionSpec {
	return serve.SessionSpec{Profile: p.profile, Scale: p.scale, Seed: p.designSeed, MaxIters: p.maxIters}
}

// sessionConfig mirrors pufferd's session configuration for the spec
// above, for the direct replay.
func (p ecoParams) sessionConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Place.Seed = p.designSeed
	if p.maxIters > 0 {
		cfg.Place.MaxIters = p.maxIters
	}
	return cfg
}

// statusPoll is how often the client polls a session it waits on; it
// bounds the quantization error of cold_s.
const statusPoll = 5 * time.Millisecond

type deltaAck struct {
	Deltas int     `json:"deltas"`
	HPWL   float64 `json:"hpwl"`
}

type sessionStatus struct {
	ID       string  `json:"id"`
	State    string  `json:"state"`
	Deltas   int     `json:"deltas"`
	LastHPWL float64 `json:"last_hpwl"`
}

func runECO(r *run, p ecoParams) error {
	ctx := context.Background()

	// Set-up: the client's copy of the design (the delta model) and a
	// fresh daemon; repeated, the last one serves the session.
	var setups []float64
	var d *netlist.Design
	var srv *ecoServer
	for i := 0; i < p.setups; i++ {
		if srv != nil {
			srv.close()
		}
		t := time.Now()
		var err error
		if d, err = generate(p.profile, p.scale, p.designSeed); err != nil {
			return err
		}
		if srv, err = startServer(filepath.Join(r.dir, fmt.Sprintf("spool-%d", i))); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer srv.close()
	r.set("setup_s", median(setups))
	st := d.Stats()
	r.note("design %s 1:%d (seed %d): %d cells, %d nets, %d macros", p.profile, p.scale, p.designSeed, st.Cells, st.Nets, st.Macros)
	c := newClient(srv.l.url)

	// Cold open: POST, then poll the session until it is open, as
	// pufferctl does (at a finer interval).
	t := time.Now()
	var opened sessionStatus
	err := c.call("POST", "/api/v1/sessions", p.sessionSpec(), 202, &opened)
	for err == nil && opened.State == string(serve.SessionOpening) {
		time.Sleep(statusPoll)
		err = c.call("GET", "/api/v1/sessions/"+opened.ID, nil, 200, &opened)
	}
	if err == nil && opened.State != string(serve.SessionOpen) {
		err = fmt.Errorf("session ended %s", opened.State)
	}
	if !r.op(err) {
		return fmt.Errorf("open session: %w", err)
	}
	r.set("cold_s", time.Since(t).Seconds())
	id := opened.ID
	spool, err := serve.OpenSpool(srv.spool)
	if err != nil {
		return err
	}
	snapPath := spool.SessionSnapshotPath(id)

	// The base placement, read back from the daemon's crash-safe snapshot,
	// is judged by the evaluation router and the legality checker.
	base, err := placedFromSnapshot(d, snapPath)
	if err != nil {
		return fmt.Errorf("base snapshot: %w", err)
	}
	checkLegal(r, base, "session base placement")
	rid := r.spans.begin("router", -1)
	rr, err := router.RouteCtx(ctx, base, router.DefaultConfig())
	r.spans.end(rid)
	if !r.op(err) {
		return fmt.Errorf("route base placement: %w", err)
	}
	r.set("routed_wl", rr.WL)
	r.set("routed_overflow_pct", rr.HOF+rr.VOF)
	if r.traced {
		rwall, _ := r.spans.total("router")
		r.set("router.wall_s", rwall.Seconds())
		r.set("router.rerouted", float64(rr.Rerouted))
	}

	// Warm closed loop: one delta at a time, each ack timed.
	stream := newDeltaStream(r.seed, d, p)
	var acks, hpwls []float64
	var sent []*eco.Delta
	var last deltaAck
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for len(acks) == 0 || time.Now().Before(deadline) {
		dl := stream.next()
		body, err := json.Marshal(dl)
		if err != nil {
			return err
		}
		t := time.Now()
		var ack deltaAck
		err = c.call("POST", "/api/v1/sessions/"+id+"/deltas", body, 200, &ack)
		if r.op(err) {
			acks = append(acks, ms(time.Since(t)))
			hpwls = append(hpwls, ack.HPWL)
			sent = append(sent, dl)
			last = ack
		}
		if len(sent) == 0 && err != nil {
			return fmt.Errorf("first delta: %w", err)
		}
	}
	r.set("warm_ms_p50", median(acks))
	r.set("warm.samples", float64(len(acks)))
	r.set("warm_ms_p90", quantile(acks, 0.9))
	r.note("warm: %d delta acks; p90 %s", len(acks), tailNote(len(acks), 0.9))

	var status sessionStatus
	if r.op(c.call("GET", "/api/v1/sessions/"+id, nil, 200, &status)) {
		r.gate(status.Deltas == len(sent), "session applied %d deltas, client got %d acks", status.Deltas, len(sent))
		r.gate(status.LastHPWL == last.HPWL, "session last_hpwl %v != last ack hpwl %v", status.LastHPWL, last.HPWL)
	}
	// The stream's length follows the clock, so the final HPWL depends on
	// how many deltas fit; the median over the acked placements does not.
	r.set("hpwl", median(hpwls))
	final, err := placedFromSnapshot(d, snapPath)
	if err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	checkLegal(r, final, "session final placement")
	r.op(c.call("DELETE", "/api/v1/sessions/"+id, nil, 200, nil))

	if !r.traced {
		return nil
	}
	return replaySession(r, p, sent, acks, status.LastHPWL)
}

// placedFromSnapshot applies a session snapshot's positions, padding,
// weights, and cell sizes to a copy of the pristine design.
func placedFromSnapshot(pristine *netlist.Design, path string) (*netlist.Design, error) {
	sn, err := eco.LoadSnapshot(path)
	if err != nil {
		return nil, err
	}
	d := pristine.Clone()
	if len(sn.CellW) != len(d.Cells) || len(sn.CellH) != len(d.Cells) {
		return nil, fmt.Errorf("snapshot has %d cell sizes for %d cells", len(sn.CellW), len(d.Cells))
	}
	for i := range d.Cells {
		d.Cells[i].W, d.Cells[i].H = sn.CellW[i], sn.CellH[i]
	}
	if err := sn.Checkpoint.Apply(d); err != nil {
		return nil, err
	}
	return d, nil
}

// replaySession replays the acknowledged delta stream through
// eco.Session.Apply directly, timing each call with a bench span and
// reading the program-reported stage walls from the returned Result.
func replaySession(r *run, p ecoParams, deltas []*eco.Delta, acks []float64, sessionHPWL float64) error {
	ctx := context.Background()
	d, err := generate(p.profile, p.scale, p.designSeed)
	if err != nil {
		return err
	}
	sess, err := eco.New(d, p.sessionConfig(), eco.Options{})
	if err != nil {
		return err
	}
	open, err := sess.Place(ctx)
	if !r.op(err) {
		return fmt.Errorf("direct session place: %w", err)
	}
	startHits, startMiss, _ := estimatorCounts(open)
	hits, miss := startHits, startMiss

	var apply, placeMS, legalMS, dpMS, iters, unaccounted, snaps []float64
	var placeWall, legalWall, dpWall time.Duration
	var placeAllocs, legalAllocs, padCalls uint64
	snapPath := filepath.Join(r.dir, "replay-snapshot.json")
	for i, dl := range deltas {
		id := r.spans.begin("eco.apply", -1)
		res, err := sess.Apply(ctx, dl)
		wall := r.spans.end(id)
		if !r.op(err) {
			return fmt.Errorf("direct apply of delta %d: %w", i+1, err)
		}
		apply = append(apply, ms(wall))
		var staged time.Duration
		for _, s := range res.Stages {
			staged += s.Wall
			switch s.Name {
			case pipeline.StagePlace:
				placeMS = append(placeMS, ms(s.Wall))
				iters = append(iters, float64(s.Iters))
				placeWall += s.Wall
				placeAllocs += s.AllocsDelta
			case pipeline.StageLegal:
				legalMS = append(legalMS, ms(s.Wall))
				legalWall += s.Wall
				legalAllocs += s.AllocsDelta
			case pipeline.StageDP:
				dpMS = append(dpMS, ms(s.Wall))
				dpWall += s.Wall
			}
		}
		unaccounted = append(unaccounted, ms(wall-staged))
		padCalls += uint64(len(res.PaddingRuns))
		if h, m, ok := estimatorCounts(res); ok {
			hits, miss = h, m
		}

		sid := r.spans.begin("eco.snapshot", -1)
		sn, err := sess.Snapshot()
		if err == nil {
			err = sn.Save(snapPath)
		}
		snaps = append(snaps, ms(r.spans.end(sid)))
		if !r.op(err) {
			return fmt.Errorf("snapshot after delta %d: %w", i+1, err)
		}
	}
	r.gate(sess.LastHPWL() == sessionHPWL, "direct-Apply replay hpwl %v != session last_hpwl %v", sess.LastHPWL(), sessionHPWL)
	checkLegal(r, d, "direct-Apply replay final design")

	r.set("eco.deltas", float64(len(deltas)))
	r.set("eco.apply_ms_p50", median(apply))
	r.set("eco.place_ms_p50", median(placeMS))
	r.set("eco.legal_ms_p50", median(legalMS))
	r.set("eco.dp_ms_p50", median(dpMS))
	r.set("eco.gp_iters_p50", median(iters))
	r.set("eco.unaccounted_ms_p50", median(unaccounted))
	r.set("eco.snapshot_ms", median(snaps))
	// Paired by delta, so the delta's own cost cancels.
	overhead := make([]float64, len(apply))
	for i := range apply {
		overhead[i] = acks[i] - apply[i]
	}
	r.set("serve.delta_overhead_ms", median(overhead))
	lookups := (hits - startHits) + (miss - startMiss)
	r.set("cong.lookups", float64(lookups))
	if lookups > 0 {
		r.set("cong.hit_rate", float64(hits-startHits)/float64(lookups))
	}
	r.set("place.wall_s", placeWall.Seconds())
	r.set("place.iters", sum(iters))
	r.set("place.allocs", float64(placeAllocs))
	r.set("legal.wall_s", legalWall.Seconds())
	r.set("legal.allocs", float64(legalAllocs))
	r.set("dp.wall_s", dpWall.Seconds())
	r.set("padding.calls", float64(padCalls))
	r.set("legal.check_ms", timeMedian(3, func() { legal.Check(d, 0) }))

	// Kernel and estimator replays on the final design at the session's
	// density and congestion grids.
	sn, err := sess.Snapshot()
	if err != nil {
		return err
	}
	cp := pipeline.Capture("final", d)
	replayKernels(r, d, cp, sn.GridM, sn.GridN, 0)
	gw, gh := pipeline.GridFor(d)
	replayEstimator(r, d, []*pipeline.Checkpoint{cp}, gw, gh, p.sessionConfig().Strategy)
	return nil
}

// estimatorCounts reads the cumulative congestion-journal hit and miss
// counters from the place stage of a pipeline result.
func estimatorCounts(res *pipeline.Result) (hits, misses uint64, ok bool) {
	for _, s := range res.Stages {
		if s.Name == pipeline.StagePlace && s.Estimator != nil {
			return s.Estimator.CacheHits, s.Estimator.CacheMisses, true
		}
	}
	return 0, 0, false
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
