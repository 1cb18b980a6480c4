package cong

import (
	"context"
	"time"

	"puffer/internal/flow"
	"puffer/internal/geom"
	"puffer/internal/obs"
	"puffer/internal/par"
	"puffer/internal/rsmt"
)

// This file implements the parallel core of the estimator. Every call
// estimates from the current placement, as Sec. III-A describes: pins and
// nets are sharded statically, each shard deposits its pin penalties and
// net stamps into a private demand grid, and the grids merge per Gcell in
// fixed shard order. The shard count is a function of the design size
// alone (never of Params.Workers, which only caps concurrency), so the
// result is bit-deterministic for any worker count. The detour expansion
// is order-dependent and global; it runs serially over the merged demand
// (its cost is bounded by the overflow bitsets in demand.go).

// Stats reports what the estimator did, cumulatively over its lifetime.
// The pipeline snapshots it into StageStats.
type Stats struct {
	// Calls counts estimator passes: every Estimate, and every
	// SyncTopologies that found a moved pin.
	Calls int
	// CacheMisses counts nets estimated across all passes. CacheHits is
	// always zero: every pass estimates every net from scratch. Both stay
	// so that reports and ledgers keep one "lookups" base
	// (CacheHits+CacheMisses) across engine versions.
	CacheHits, CacheMisses uint64
	// Cumulative wall time per phase: the shard pass (pin penalties, RSMT
	// topologies and demand stamps), the per-Gcell shard merge, and the
	// detour expansion.
	TopoWall, MergeWall, ExpandWall time.Duration
}

// HitRate returns CacheHits over all net lookups (zero; see CacheHits).
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Stats returns a snapshot of the estimator statistics.
func (e *Estimator) Stats() Stats { return e.stats }

// shard is one static slice of the estimator pass: private demand
// accumulators, the I-segments of its nets in net order, and pin scratch.
type shard struct {
	h, v, pins []float64
	segs       []Seg
	pts        []geom.Point
}

// EstimateCtx is Estimate with cancellation: the parallel shard pass stops
// scheduling work once ctx is done. A canceled call returns an error
// wrapping flow.ErrCanceled and leaves the map of the previous call in
// place; the next call estimates from scratch as always.
func (e *Estimator) EstimateCtx(ctx context.Context) (*Map, error) {
	sp, ctx := obs.Start(ctx, e.rec, "cong.estimate")
	defer sp.End()
	if err := e.pass(ctx); err != nil {
		return nil, err
	}
	t := time.Now()
	e.merge()
	e.stats.MergeWall += time.Since(t)
	t = time.Now()
	e.expand()
	e.stats.ExpandWall += time.Since(t)
	return e.M, nil
}

// SyncTopologies brings the per-net RSMT topologies up to date with the
// current pin positions and returns the tree slice. The evaluation router
// consumes it instead of decomposing nets itself; feature extraction
// receives the same slice through Estimator.Trees. The map and segments of
// the previous Estimate call are left untouched. When no pin has moved
// since the last pass the trees are already current and no pass runs: the
// routing evaluation of an unchanged placement (repeated, or right after
// the final Estimate) costs one comparison per pin.
func (e *Estimator) SyncTopologies(ctx context.Context) ([]rsmt.Tree, error) {
	sp, ctx := obs.Start(ctx, e.rec, "cong.sync_topologies")
	defer sp.End()
	if e.treesCurrent() {
		return e.Trees, nil
	}
	if err := e.pass(ctx); err != nil {
		return nil, err
	}
	return e.Trees, nil
}

// treesCurrent reports whether the last pass completed and no pin has
// moved since, so Trees match the placement (rsmt.Build is pure).
func (e *Estimator) treesCurrent() bool {
	if !e.current || len(e.pinPos) != len(e.d.Pins) || len(e.Trees) != len(e.d.Nets) {
		return false
	}
	for p, pos := range e.pinPos {
		if e.d.PinPos(p) != pos {
			return false
		}
	}
	return true
}

// maxShards bounds the number of per-shard demand accumulators a pass
// allocates (three float64 grids per shard), so many-core hosts do not
// trade hundreds of megabytes for the parallel merge.
const maxShards = 16

// shardGrain is the minimum number of work items (pins or nets) per shard.
// Together with maxShards it fixes the shard count as a function of the
// design size alone — never of Params.Workers — so shard boundaries, and
// therefore the order every floating-point sum is merged in, are identical
// no matter how many goroutines execute the shards. This is what extends
// the estimator's determinism contract from "reproducible for a fixed
// worker count" to "bit-identical for ANY worker count".
const shardGrain = 192

// shardCount picks the deterministic static shard count for n items.
// Workers only bounds how many shards run concurrently (see the
// par.ForErrN calls), not how the work is partitioned.
func shardCount(n int) int {
	return max(1, min(n/shardGrain, maxShards, n))
}

// pass estimates every net from scratch: each static shard zeroes its
// accumulators, deposits the pin penalties of its pin range, then builds
// and stamps the nets of its net range in net order. Besides shard-owned
// state it writes only the pinPos entries of its pins and the Trees
// entries of its nets, so a canceled pass leaves the merged map of the
// previous call intact.
func (e *Estimator) pass(ctx context.Context) error {
	e.stats.Calls++
	nNets, nPins := len(e.d.Nets), len(e.d.Pins)
	size := e.M.W * e.M.H
	if len(e.Trees) != nNets {
		e.Trees = make([]rsmt.Tree, nNets)
	}
	if len(e.pinPos) != nPins {
		e.pinPos = make([]geom.Point, nPins)
	}
	e.current = false
	W := shardCount(max(nNets, nPins))
	if len(e.shards) != W || len(e.shards[0].h) != size {
		e.shards = make([]shard, W)
		for w := range e.shards {
			e.shards[w] = shard{
				h:    make([]float64, size),
				v:    make([]float64, size),
				pins: make([]float64, size),
			}
		}
	}

	// Parallel shards overlap the pass span in time; Fork gives each a
	// fresh logical thread so trace viewers render them side by side.
	parent := obs.FromContext(ctx)
	t := time.Now()
	err := par.ForErrN(ctx, e.P.Workers, W, func(w int) error {
		wsp := parent.Fork("cong.shard")
		wsp.SetArg("shard", w)
		defer wsp.End()
		sh := &e.shards[w]
		clear(sh.h)
		clear(sh.v)
		clear(sh.pins)
		sh.segs = sh.segs[:0]
		lo, hi := par.ShardRange(w, W, nPins)
		for p := lo; p < hi; p++ {
			pos := e.d.PinPos(p)
			e.pinPos[p] = pos
			i, j := e.M.GcellOf(pos)
			idx := e.M.Index(i, j)
			sh.pins[idx]++
			sh.h[idx] += e.P.PinPenalty
			sh.v[idx] += e.P.PinPenalty
		}
		lo, hi = par.ShardRange(w, W, nNets)
		for n := lo; n < hi; n++ {
			if (n-lo)%256 == 0 {
				if err := flow.Check(ctx); err != nil {
					return err
				}
			}
			e.stampNet(n, sh)
		}
		return nil
	})
	e.stats.TopoWall += time.Since(t)
	if err != nil {
		return err
	}
	e.current = true
	e.stats.CacheMisses += uint64(nNets)
	e.cEstimates.Inc()
	return nil
}

// merge sums the shard accumulators into the published map and collects
// the shards' I-segments. Each worker owns a disjoint Gcell range and sums
// the shards in fixed shard order, so the result is independent of
// scheduling; shards cover contiguous net ranges, so concatenating their
// segments in shard order yields net order.
func (e *Estimator) merge() {
	W, size := len(e.shards), e.M.W*e.M.H
	par.ForN(e.P.Workers, W, func(w int) {
		lo, hi := par.ShardRange(w, W, size)
		for g := lo; g < hi; g++ {
			var h, v, pn float64
			for k := range e.shards {
				h += e.shards[k].h[g]
				v += e.shards[k].v[g]
				pn += e.shards[k].pins[g]
			}
			e.M.DmdH[g], e.M.DmdV[g], e.M.Pins[g] = h, v, pn
		}
	})
	e.Segs = e.Segs[:0]
	for k := range e.shards {
		e.Segs = append(e.Segs, e.shards[k].segs...)
	}
}
