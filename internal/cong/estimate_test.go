package cong

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"puffer/internal/netlist"
)

// randomDesign builds a reproducible random design with movable cells and
// small multi-pin nets, the workload shape of the in-loop estimator.
func randomDesign(rng *rand.Rand, nCells, nNets int) *netlist.Design {
	d := testDesign()
	for c := 0; c < nCells; c++ {
		d.AddCell(netlist.Cell{
			W: 0.8, H: 0.8,
			X: rng.Float64() * 31,
			Y: rng.Float64() * 31,
		})
	}
	for n := 0; n < nNets; n++ {
		net := d.AddNet("n", 1)
		deg := 2 + rng.Intn(3)
		for k := 0; k < deg; k++ {
			d.Connect(rng.Intn(nCells), net, 0.4, 0.4)
		}
	}
	return d
}

// moveSomeCells displaces a fraction of the cells by up to two Gcells,
// clamped to the region.
func moveSomeCells(rng *rand.Rand, d *netlist.Design, frac float64) {
	for ci := range d.Cells {
		if rng.Float64() >= frac {
			continue
		}
		c := &d.Cells[ci]
		c.X = math.Min(31, math.Max(0, c.X+(rng.Float64()-0.5)*16))
		c.Y = math.Min(31, math.Max(0, c.Y+(rng.Float64()-0.5)*16))
	}
}

func demandMaxDiff(a, b *Map) float64 {
	worst := 0.0
	for i := range a.DmdH {
		worst = math.Max(worst, math.Abs(a.DmdH[i]-b.DmdH[i]))
		worst = math.Max(worst, math.Abs(a.DmdV[i]-b.DmdV[i]))
		worst = math.Max(worst, math.Abs(a.Pins[i]-b.Pins[i]))
	}
	return worst
}

// TestReusedEstimatorMatchesFresh: with the detour expansion active, an
// estimator that has already run over earlier placements publishes a map
// bit-identical to a fresh estimator's — no state carries across calls.
func TestReusedEstimatorMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := randomDesign(rng, 60, 90)
	p := Params{PinPenalty: 0.2, ExpandRadius: 3, TransferRatio: 0.5, Workers: 2}
	reused := NewEstimator(d, 8, 8, p)
	fresh := NewEstimator(d, 8, 8, p)
	// Choke the same row on both maps so the expansion actually fires.
	for i := 0; i < 8; i++ {
		reused.M.CapH[reused.M.Index(i, 3)] = 0.2
		fresh.M.CapH[fresh.M.Index(i, 3)] = 0.2
	}
	for step := 0; step < 6; step++ {
		moveSomeCells(rng, d, 0.1)
		reused.Estimate()
	}
	mr := reused.Estimate()
	mf := fresh.Estimate()
	for i := range mr.DmdH {
		if mr.DmdH[i] != mf.DmdH[i] || mr.DmdV[i] != mf.DmdV[i] || mr.Pins[i] != mf.Pins[i] {
			t.Fatalf("reused estimator diverges at %d: H %v vs %v, V %v vs %v",
				i, mr.DmdH[i], mf.DmdH[i], mr.DmdV[i], mf.DmdV[i])
		}
	}
	if len(reused.Segs) != len(fresh.Segs) {
		t.Fatalf("segments: reused %d, fresh %d", len(reused.Segs), len(fresh.Segs))
	}
	for i := range reused.Segs {
		if reused.Segs[i] != fresh.Segs[i] {
			t.Fatalf("segment %d: reused %+v, fresh %+v", i, reused.Segs[i], fresh.Segs[i])
		}
	}
}

// TestEstimateDeterministicAcrossRuns: the same design, params, and move
// sequence produce bit-identical maps on every call — the parallel pass
// merges in static shard order.
func TestEstimateDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		rng := rand.New(rand.NewSource(3))
		d := randomDesign(rng, 70, 100)
		e := NewEstimator(d, 8, 8, Params{PinPenalty: 0.15, ExpandRadius: 2, TransferRatio: 0.4, Workers: 4})
		var out []float64
		for step := 0; step < 8; step++ {
			moveSomeCells(rng, d, 0.1)
			m := e.Estimate()
			out = append(out, m.DmdH...)
			out = append(out, m.DmdV...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEstimateDeterministicAcrossWorkers: the estimator's results are
// bit-identical no matter how many workers execute them — the shard count
// depends on the design size alone, and Workers only caps concurrency.
// This is the estimator's half of the any-worker-count contract that
// Session.Apply (internal/eco) relies on: an interactive delta re-placed
// at Workers=1 and at Workers=16 must land on the same bits. The design is
// sized so the shard count actually exceeds one.
func TestEstimateDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []float64 {
		rng := rand.New(rand.NewSource(17))
		d := randomDesign(rng, 400, 700)
		p := Params{PinPenalty: 0.2, ExpandRadius: 3, TransferRatio: 0.5, Workers: workers}
		e := NewEstimator(d, 16, 16, p)
		var out []float64
		for step := 0; step < 10; step++ {
			moveSomeCells(rng, d, 0.06)
			m := e.Estimate()
			out = append(out, m.DmdH...)
			out = append(out, m.DmdV...)
			out = append(out, m.Pins...)
		}
		return out
	}
	if shardCount(700) <= 1 {
		t.Fatal("test design too small: the pass runs in one shard, proving nothing")
	}
	ref := run(1)
	for _, w := range []int{2, 4, 16} {
		got := run(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("Workers=%d diverges from Workers=1 at %d: %v vs %v", w, i, got[i], ref[i])
			}
		}
	}
}

// TestEstimateCtxCancel: a canceled context aborts the pass without
// touching the published map, and the next uncanceled call matches a
// fresh estimator.
func TestEstimateCtxCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := randomDesign(rng, 40, 60)
	e := NewEstimator(d, 8, 8, Params{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EstimateCtx(ctx); err == nil {
		t.Fatal("EstimateCtx ignored a canceled context")
	}
	m, err := e.EstimateCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewEstimator(d, 8, 8, Params{Workers: 2}).Estimate()
	if diff := demandMaxDiff(m, scratch); diff != 0 {
		t.Errorf("post-cancel estimate differs from scratch by %g", diff)
	}
}

// TestStatsCountEveryNet: every pass estimates every net, so the lookup
// base grows by the net count per pass and nothing is ever a hit.
func TestStatsCountEveryNet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomDesign(rng, 50, 60)
	e := NewEstimator(d, 8, 8, Params{})
	e.Estimate()
	d.Cells[0].X += 0.25
	if _, err := e.SyncTopologies(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.Estimate()
	st := e.Stats()
	if st.Calls != 3 || st.CacheMisses != 3*60 || st.CacheHits != 0 || st.HitRate() != 0 {
		t.Errorf("stats = %+v, want 3 calls, 180 misses, no hits", st)
	}
}

// TestDesignResizeTriggersRebuild: nets and cells added after the first
// estimate are estimated by the next call.
func TestDesignResizeTriggersRebuild(t *testing.T) {
	d := horizontalPairDesign()
	e := NewEstimator(d, 8, 8, Params{})
	e.Estimate()
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 5, Y: 20})
	b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 25, Y: 20})
	n := d.AddNet("late", 1)
	d.Connect(a, n, 0.5, 0.5)
	d.Connect(b, n, 0.5, 0.5)
	m := e.Estimate()
	if got := m.DmdH[m.Index(3, 5)]; got != 1 {
		t.Errorf("new net not stamped: DmdH = %v, want 1", got)
	}
	if len(e.Trees) != len(d.Nets) {
		t.Errorf("trees = %d, want %d", len(e.Trees), len(d.Nets))
	}
}

// TestSyncTopologiesSharing: SyncTopologies returns one tree per net,
// runs no pass while no pin has moved since the last completed one, and
// refreshes a net's topology in place after its pins move.
func TestSyncTopologiesSharing(t *testing.T) {
	d := horizontalPairDesign()
	e := NewEstimator(d, 8, 8, Params{})
	ctx := context.Background()
	trees, err := e.SyncTopologies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != len(d.Nets) || len(trees[0].Edges) == 0 {
		t.Fatalf("trees = %d nets, first has %d edges", len(trees), len(trees[0].Edges))
	}

	// Unchanged placement: the trees are current, no pass runs.
	if _, err := e.SyncTopologies(ctx); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Calls; got != 1 {
		t.Errorf("SyncTopologies on an unchanged placement ran a pass: %d calls, want 1", got)
	}

	// A canceled pass leaves the trees unknown: the next call rebuilds
	// even though no pin moved.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.EstimateCtx(canceled); err == nil {
		t.Fatal("EstimateCtx ignored a canceled context")
	}
	if _, err := e.SyncTopologies(ctx); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Calls; got != 3 {
		t.Errorf("SyncTopologies after a canceled pass: %d calls, want 3", got)
	}

	d.Cells[1].X -= 12
	trees, err = e.SyncTopologies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := trees[0].Nodes[1].P.X; math.Abs(got-(26.5-12)) > 1e-12 {
		t.Errorf("tree node not refreshed: X = %v, want %v", got, 26.5-12)
	}
}

// TestSyncTopologiesKeepsEstimateMap: the routability optimizer keeps the
// map the last Estimate returned (padding.Optimizer.LastMap), so a later
// SyncTopologies for the evaluation router must refresh the trees without
// overwriting that map or its segments.
func TestSyncTopologiesKeepsEstimateMap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := randomDesign(rng, 60, 90)
	e := NewEstimator(d, 8, 8, Params{PinPenalty: 0.2, ExpandRadius: 3, TransferRatio: 0.5})
	m := e.Estimate()
	h := append([]float64(nil), m.DmdH...)
	v := append([]float64(nil), m.DmdV...)
	pins := append([]float64(nil), m.Pins...)
	segs := append([]Seg(nil), e.Segs...)

	moveSomeCells(rng, d, 1)
	if _, err := e.SyncTopologies(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range h {
		if m.DmdH[i] != h[i] || m.DmdV[i] != v[i] || m.Pins[i] != pins[i] {
			t.Fatalf("SyncTopologies overwrote the estimate map at %d", i)
		}
	}
	if len(e.Segs) != len(segs) {
		t.Fatalf("SyncTopologies replaced the segments: %d -> %d", len(segs), len(e.Segs))
	}
	for i := range segs {
		if e.Segs[i] != segs[i] {
			t.Fatalf("SyncTopologies changed segment %d", i)
		}
	}
}

// --- Detour-expansion clipping at the remaining grid borders (the bottom
// edge and left column are covered in stats_test.go). ---

func chokedEstimate(t *testing.T, e *Estimator) {
	t.Helper()
	e.Estimate()
	for idx := range e.M.DmdH {
		if e.M.DmdH[idx] < -1e-9 || e.M.DmdV[idx] < -1e-9 {
			t.Fatalf("negative demand at %d: H=%v V=%v", idx, e.M.DmdH[idx], e.M.DmdV[idx])
		}
	}
}

// TestExpansionTopEdgeClipping: a congested horizontal segment on the top
// row with ExpandRadius far past H-1 must clip its row search at the grid.
func TestExpansionTopEdgeClipping(t *testing.T) {
	d := testDesign()
	a := d.AddCell(netlist.Cell{W: 0.8, H: 0.8, X: 1, Y: 31})
	b := d.AddCell(netlist.Cell{W: 0.8, H: 0.8, X: 29, Y: 31})
	n := d.AddNet("top", 1)
	d.Connect(a, n, 0.4, 0.4)
	d.Connect(b, n, 0.4, 0.4)
	e := NewEstimator(d, 8, 8, Params{ExpandRadius: 100, TransferRatio: 0.5})
	for i := 0; i < e.M.W; i++ {
		e.M.CapH[e.M.Index(i, e.M.H-1)] = 0.01
	}
	chokedEstimate(t, e)
	// The transfer conserves horizontal demand.
	total := 0.0
	for _, v := range e.M.DmdH {
		total += v
	}
	if math.Abs(total-8) > 1e-9 { // pins in Gcells 0 and 7: 8-Gcell span
		t.Errorf("horizontal demand not conserved: %v, want 8", total)
	}
}

// TestExpansionRightEdgeClipping: a congested vertical segment on the last
// column with a huge radius must clip its column search at W-1.
func TestExpansionRightEdgeClipping(t *testing.T) {
	d := testDesign()
	a := d.AddCell(netlist.Cell{W: 0.8, H: 0.8, X: 31, Y: 1})
	b := d.AddCell(netlist.Cell{W: 0.8, H: 0.8, X: 31, Y: 29})
	c := d.AddCell(netlist.Cell{W: 0.8, H: 0.8, X: 15, Y: 15})
	n := d.AddNet("right", 1)
	d.Connect(a, n, 0.4, 0.4)
	d.Connect(b, n, 0.4, 0.4)
	d.Connect(c, n, 0.4, 0.4)
	e := NewEstimator(d, 8, 8, Params{ExpandRadius: 100, TransferRatio: 0.9})
	for j := 0; j < e.M.H; j++ {
		e.M.CapV[e.M.Index(e.M.W-1, j)] = 0.01
	}
	chokedEstimate(t, e)
}

// TestExpansionRadiusLargerThanGrid: every row choked, radius far past the
// grid in both directions; the search must stay in bounds and, with no
// slack anywhere, move nothing.
func TestExpansionRadiusLargerThanGrid(t *testing.T) {
	d := horizontalPairDesign()
	e := NewEstimator(d, 8, 8, Params{ExpandRadius: 1000, TransferRatio: 0.5})
	for idx := range e.M.CapH {
		e.M.CapH[idx] = 0.01
	}
	before := make([]float64, len(e.M.DmdH))
	chokedEstimate(t, e)
	copy(before, e.M.DmdH)
	// Re-estimate: same demand (no slack found, nothing transferred).
	e.Estimate()
	for i := range before {
		if e.M.DmdH[i] != before[i] {
			t.Fatalf("demand changed between identical estimates at %d", i)
		}
	}
}
