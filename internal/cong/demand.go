package cong

import (
	"context"
	"math"

	"puffer/internal/geom"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/rsmt"
)

// Params are the tunable strategy parameters of the congestion estimator.
// Several of them are explored by the Bayesian strategy search
// (Sec. III-C).
type Params struct {
	// PinPenalty is the routing demand added per pin in each direction to
	// capture local nets whose pins share one Gcell (Sec. III-A2).
	PinPenalty float64
	// ExpandRadius is how many Gcell rows/columns away the detour
	// expansion may push demand (Sec. III-A3).
	ExpandRadius int
	// TransferRatio is the fraction of a congested I-segment's demand
	// moved to the surrounding region.
	TransferRatio float64
	// CongestThreshold is the per-Gcell overflow above which an I-segment
	// counts as congested.
	CongestThreshold float64

	// Workers caps the estimator's data parallelism (0 = GOMAXPROCS).
	// Results never depend on it: nets and pins are sharded statically by
	// design size, per-shard accumulators merge in fixed shard order, and
	// Workers only bounds how many shards run concurrently — the same
	// any-worker-count bit-determinism contract the GP inner loop keeps
	// (DESIGN.md §3e).
	Workers int
	// Topo, when non-nil, memoizes RSMT construction across estimators
	// sharing one design (exploration trials on the same worker). It is
	// runtime wiring, not a strategy parameter: rsmt.Build is pure, so
	// attaching a memo never changes results, and the field is excluded
	// from strategy JSON and canonical config digests.
	Topo *rsmt.Memo `json:"-"`
}

// DefaultParams returns the hand-tuned defaults; the strategy exploration
// scheme replaces them with searched values.
func DefaultParams() Params {
	return Params{
		PinPenalty:       0.3,
		ExpandRadius:     3,
		TransferRatio:    0.5,
		CongestThreshold: 0,
	}
}

// Seg is an I-shaped two-point segment of a net topology in Gcell
// coordinates. Horizontal segments have J0 == J1 and I0 <= I1; vertical
// segments have I0 == I1 and J0 <= J1. The endpoint Steiner tags drive the
// detour expansion: only Steiner endpoints need extra perpendicular demand
// when the segment is detoured, because cells (pin endpoints) can simply
// move (Sec. III-A3).
type Seg struct {
	Horizontal         bool
	I0, J0, I1, J1     int
	ASteiner, BSteiner bool
}

// Estimator produces congestion maps by the routing-detour-imitating
// estimation algorithm of Sec. III-A. Every call estimates from the
// current placement; the pass shards nets and pins across Params.Workers
// (estimate.go).
type Estimator struct {
	d *netlist.Design
	M *Map
	P Params

	// Segs holds the I-shaped segments found during the last Estimate
	// call, in net order; the detour expansion ran over them in this
	// order.
	Segs []Seg

	// Trees holds the last RSMT topology per net; feature extraction
	// (GNN-inspired pin congestion) walks the same topology, and the
	// evaluation router reuses it through SyncTopologies.
	Trees []rsmt.Tree

	shards []shard // per-shard scratch of the estimator pass

	// pinPos holds every pin's position as of the last completed pass
	// (current is false while a pass is in flight or after one failed),
	// so SyncTopologies can tell that Trees still match the placement.
	pinPos  []geom.Point
	current bool

	ovH, ovV []uint64 // expansion overflow bitsets

	stats Stats

	// Telemetry (obs.go): resolved once by SetObs; nil — and therefore a
	// no-op — until a recorder is attached.
	rec        *obs.Recorder
	cEstimates *obs.Counter
}

// NewEstimator creates an estimator over a fresh W×H capacity map for d.
func NewEstimator(d *netlist.Design, w, h int, p Params) *Estimator {
	return &Estimator{d: d, M: NewMap(d, w, h), P: p}
}

// Grid returns the estimator's Gcell grid dimensions.
func (e *Estimator) Grid() (int, int) { return e.M.W, e.M.H }

// Estimate runs the full pipeline — topology generation, probabilistic
// demand, pin penalty, detour expansion — from the current placement and
// returns the resulting map.
func (e *Estimator) Estimate() *Map {
	// The background context cannot cancel, and estimation has no other
	// error source, so the error is impossible here.
	m, _ := e.EstimateCtx(context.Background())
	return m
}

// stampNet builds the RSMT topology of net n from the current pin
// positions, deposits the demand of every I- and L-shaped edge into the
// shard's accumulators, and appends the net's I-segments, which the
// detour expansion consumes, to the shard. Besides shard-owned state it
// writes only Trees[n], so distinct shards stamp in parallel.
func (e *Estimator) stampNet(n int, sh *shard) {
	net := &e.d.Nets[n]
	e.Trees[n] = rsmt.Tree{}
	if len(net.Pins) < 2 {
		return
	}
	sh.pts = sh.pts[:0]
	for _, pid := range net.Pins {
		sh.pts = append(sh.pts, e.d.PinPos(pid))
	}
	tree := e.P.Topo.Build(sh.pts) // nil memo degrades to plain rsmt.Build
	e.Trees[n] = tree

	for _, edge := range tree.Edges {
		a, b := tree.Nodes[edge.A], tree.Nodes[edge.B]
		ai, aj := e.M.GcellOf(a.P)
		bi, bj := e.M.GcellOf(b.P)
		switch {
		case ai == bi && aj == bj:
			// Both endpoints in one Gcell: covered by the pin penalty.
		case aj == bj: // horizontal I-shape
			i0, i1 := ai, bi
			as, bs := a.Steiner, b.Steiner
			if i0 > i1 {
				i0, i1 = i1, i0
				as, bs = bs, as
			}
			for i := i0; i <= i1; i++ {
				sh.h[e.M.Index(i, aj)]++
			}
			sh.segs = append(sh.segs, Seg{Horizontal: true, I0: i0, J0: aj, I1: i1, J1: aj, ASteiner: as, BSteiner: bs})
		case ai == bi: // vertical I-shape
			j0, j1 := aj, bj
			as, bs := a.Steiner, b.Steiner
			if j0 > j1 {
				j0, j1 = j1, j0
				as, bs = bs, as
			}
			for jj := j0; jj <= j1; jj++ {
				sh.v[e.M.Index(ai, jj)]++
			}
			sh.segs = append(sh.segs, Seg{Horizontal: false, I0: ai, J0: j0, I1: ai, J1: j1, ASteiner: as, BSteiner: bs})
		default: // L-shape: average demand over the bounding box
			i0, i1 := ai, bi
			if i0 > i1 {
				i0, i1 = i1, i0
			}
			j0, j1 := aj, bj
			if j0 > j1 {
				j0, j1 = j1, j0
			}
			w := float64(i1 - i0 + 1)
			h := float64(j1 - j0 + 1)
			dh := 1 / h // total horizontal wire w spread over w·h Gcells
			dv := 1 / w
			for jj := j0; jj <= j1; jj++ {
				row := jj * e.M.W
				for i := i0; i <= i1; i++ {
					sh.h[row+i] += dh
					sh.v[row+i] += dv
				}
			}
		}
	}
}

// expand performs the detour-imitating demand expansion (Sec. III-A3):
// congested I-shaped segments transfer part of their demand to a nearby
// parallel row/column with routing slack; Steiner endpoints additionally
// pay perpendicular connection demand, pin endpoints do not (the cell can
// move instead — that is the "clustered cell spreading" the estimator
// imitates).
//
// The congested-span test is served by per-direction overflow bitsets that
// are rebuilt once per call and kept current through every demand transfer,
// so uncongested segments — the common case — cost a word scan instead of
// a float pass over their span. The transfer semantics are unchanged.
func (e *Estimator) expand() {
	if e.P.ExpandRadius <= 0 || e.P.TransferRatio <= 0 {
		return
	}
	e.buildOverflowBits()
	for _, s := range e.Segs {
		if s.Horizontal {
			e.expandH(s)
		} else {
			e.expandV(s)
		}
	}
}

// buildOverflowBits recomputes the overflow bitsets from the current
// demand: bit g of ovH/ovV is set iff the Gcell's directional overflow
// exceeds the congestion threshold.
func (e *Estimator) buildOverflowBits() {
	words := (e.M.W*e.M.H + 63) / 64
	if cap(e.ovH) < words {
		e.ovH = make([]uint64, words)
		e.ovV = make([]uint64, words)
	}
	e.ovH = e.ovH[:words]
	e.ovV = e.ovV[:words]
	for i := range e.ovH {
		e.ovH[i] = 0
		e.ovV[i] = 0
	}
	for g := range e.M.DmdH {
		if e.M.OverflowH(g) > e.P.CongestThreshold {
			e.ovH[g>>6] |= 1 << (uint(g) & 63)
		}
		if e.M.OverflowV(g) > e.P.CongestThreshold {
			e.ovV[g>>6] |= 1 << (uint(g) & 63)
		}
	}
}

// anyBitInRange reports whether any bit in the inclusive flat index range
// [lo, hi] of bits is set.
func anyBitInRange(bits []uint64, lo, hi int) bool {
	if lo > hi {
		lo, hi = hi, lo
	}
	w0, w1 := lo>>6, hi>>6
	if w0 == w1 {
		mask := (^uint64(0) << (uint(lo) & 63)) & (^uint64(0) >> (63 - (uint(hi) & 63)))
		return bits[w0]&mask != 0
	}
	if bits[w0]&(^uint64(0)<<(uint(lo)&63)) != 0 {
		return true
	}
	for w := w0 + 1; w < w1; w++ {
		if bits[w] != 0 {
			return true
		}
	}
	return bits[w1]&(^uint64(0)>>(63-(uint(hi)&63))) != 0
}

// addDmdH mutates horizontal demand during expansion, keeping the overflow
// bitset in sync.
func (e *Estimator) addDmdH(idx int, delta float64) {
	e.M.DmdH[idx] += delta
	bit := uint64(1) << (uint(idx) & 63)
	if e.M.OverflowH(idx) > e.P.CongestThreshold {
		e.ovH[idx>>6] |= bit
	} else {
		e.ovH[idx>>6] &^= bit
	}
}

// addDmdV is addDmdH for the vertical direction.
func (e *Estimator) addDmdV(idx int, delta float64) {
	e.M.DmdV[idx] += delta
	bit := uint64(1) << (uint(idx) & 63)
	if e.M.OverflowV(idx) > e.P.CongestThreshold {
		e.ovV[idx>>6] |= bit
	} else {
		e.ovV[idx>>6] &^= bit
	}
}

func (e *Estimator) expandH(s Seg) {
	m := e.M
	j := s.J0
	// Congested if any Gcell on the span overflows: a horizontal span is
	// contiguous in flat indices, so one word scan answers it.
	if !anyBitInRange(e.ovH, m.Index(s.I0, j), m.Index(s.I1, j)) {
		return
	}
	// Best alternative row: maximum total slack over the span.
	bestJ, bestSlack := -1, 0.0
	for dj := -e.P.ExpandRadius; dj <= e.P.ExpandRadius; dj++ {
		jj := j + dj
		if dj == 0 || jj < 0 || jj >= m.H {
			continue
		}
		slack := 0.0
		for i := s.I0; i <= s.I1; i++ {
			idx := m.Index(i, jj)
			slack += math.Max(0, m.CapH[idx]-m.DmdH[idx])
		}
		if slack > bestSlack {
			bestSlack = slack
			bestJ = jj
		}
	}
	if bestJ < 0 {
		return
	}
	delta := e.P.TransferRatio
	for i := s.I0; i <= s.I1; i++ {
		e.addDmdH(m.Index(i, j), -delta)
		e.addDmdH(m.Index(i, bestJ), delta)
	}
	// Perpendicular connection demand at Steiner endpoints only.
	lo, hi := j, bestJ
	if lo > hi {
		lo, hi = hi, lo
	}
	if s.ASteiner {
		for jj := lo; jj <= hi; jj++ {
			e.addDmdV(m.Index(s.I0, jj), delta)
		}
	}
	if s.BSteiner {
		for jj := lo; jj <= hi; jj++ {
			e.addDmdV(m.Index(s.I1, jj), delta)
		}
	}
}

func (e *Estimator) expandV(s Seg) {
	m := e.M
	i := s.I0
	congested := false
	for j := s.J0; j <= s.J1; j++ {
		idx := m.Index(i, j)
		if e.ovV[idx>>6]&(1<<(uint(idx)&63)) != 0 {
			congested = true
			break
		}
	}
	if !congested {
		return
	}
	bestI, bestSlack := -1, 0.0
	for di := -e.P.ExpandRadius; di <= e.P.ExpandRadius; di++ {
		ii := i + di
		if di == 0 || ii < 0 || ii >= m.W {
			continue
		}
		slack := 0.0
		for j := s.J0; j <= s.J1; j++ {
			idx := m.Index(ii, j)
			slack += math.Max(0, m.CapV[idx]-m.DmdV[idx])
		}
		if slack > bestSlack {
			bestSlack = slack
			bestI = ii
		}
	}
	if bestI < 0 {
		return
	}
	delta := e.P.TransferRatio
	for j := s.J0; j <= s.J1; j++ {
		e.addDmdV(m.Index(i, j), -delta)
		e.addDmdV(m.Index(bestI, j), delta)
	}
	lo, hi := i, bestI
	if lo > hi {
		lo, hi = hi, lo
	}
	if s.ASteiner {
		for ii := lo; ii <= hi; ii++ {
			e.addDmdH(m.Index(ii, s.J0), delta)
		}
	}
	if s.BSteiner {
		for ii := lo; ii <= hi; ii++ {
			e.addDmdH(m.Index(ii, s.J1), delta)
		}
	}
}
