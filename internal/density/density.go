// Package density implements the electrostatic density model of the
// placement engine (paper Sec. II-B, Eqs. 3–6).
//
// The placement region is divided into an M×N bin grid. Every cell deposits
// its (padded) area as electric charge into the bins it overlaps (Eq. 6).
// The electric potential ψ and field E = -∇ψ are obtained by solving
// Poisson's equation ∇²ψ = -ρ spectrally in a half-sample cosine basis
// (Neumann boundary: no force pushes cells across the chip edge). The
// density penalty D(x, y) of Eq. 3 is the total potential energy Σ qᵢψ, and
// its gradient with respect to a cell position is -qᵢ·E at the cell.
//
// # Parallelism and determinism
//
// The grid is the placement engine's per-iteration hot path, so the heavy
// operations — rasterization (DepositRects), the spectral solve (Solve),
// and the overflow reduction (Overflow) — run across SetWorkers workers.
// All of them are bit-deterministic regardless of the worker count:
//
//   - DepositRects shards the OUTPUT (bands of bin rows): each band owner
//     scans the rectangle list in order and accumulates only its own rows,
//     so every bin receives its contributions in the same rectangle order a
//     serial sweep would use — identical bits for any band count. This
//     replaces the per-worker-accumulator-plus-merge design: it needs no
//     extra grids, no zeroing, no merge pass, and is worker-count
//     independent rather than merely fixed-worker-count reproducible.
//   - Solve batches independent 1-D row/column transforms (each writes a
//     disjoint output range) over per-worker fft.RealPlan scratch cloned
//     from one precomputed plan, so scheduling cannot change any value.
//   - Overflow reduces over a FIXED shard count derived from the grid size
//     (never from the worker count) and sums the per-shard partials in
//     shard order.
//
// Once constructed (and after the first SetWorkers), the steady-state
// DepositRects → Solve → ForceOnRect → Overflow cycle performs no heap
// allocation with one worker, and only the O(workers) goroutine dispatch
// inside internal/par otherwise.
package density

import (
	"fmt"
	"math"
	"time"

	"puffer/internal/fft"
	"puffer/internal/geom"
	"puffer/internal/par"
)

// maxGridWorkers bounds the per-worker transform scratch (two spectral
// clones plus three vectors per worker), so many-core hosts do not trade
// memory for shards the row/column batches cannot use anyway.
const maxGridWorkers = 16

// ovfBinsPerShard sizes the fixed overflow-reduction shards. The shard
// count depends only on the grid size, so the partial-sum structure — and
// therefore the result, bit for bit — is identical for every worker count.
const ovfBinsPerShard = 4096

// solveScratch is one worker's private transform state: transform clones
// sharing the grid's precomputed FFT plans, plus gather/scatter vectors.
type solveScratch struct {
	sx, sy fft.Transform
	row    []float64 // length M, x-direction staging
	col    []float64 // length N, y-direction gather
	colOut []float64 // length N, y-direction result
}

// Grid is the electrostatic bin grid. Bins are indexed [j*M+i] with i the
// x (column) index and j the y (row) index.
type Grid struct {
	M, N   int // bin counts in x and y (powers of two)
	Region geom.Rect
	BinW   float64
	BinH   float64

	Rho []float64 // charge density: deposited area / bin area
	Psi []float64 // electric potential
	Ex  []float64 // field x-component (-∂ψ/∂x)
	Ey  []float64 // field y-component (-∂ψ/∂y)

	sx, sy fft.Transform

	// scratch buffers reused across Solve calls
	coef           []float64
	bufPsi, bufEx  []float64
	bufEy          []float64
	fixedRho       []float64 // baseline charge from fixed cells
	hasFixed       bool
	totalFixedArea float64

	// Deposit fingerprint: lastRects retains the operand of the most
	// recent DepositRects (so an identical re-deposit skips the raster)
	// and solvedRects the operand whose deposit the current Psi/Ex/Ey
	// were solved from (so an identical re-deposit lets Solve skip the
	// spectral work entirely). rhoFromRects / solvedFromRects record
	// whether those fingerprints are authoritative — any AddRect /
	// AddFixedRect / Reset in between voids them.
	lastRects       []geom.Rect
	solvedRects     []geom.Rect
	rhoFromRects    bool
	solvedFromRects bool
	fieldCurrent    bool // the latest deposit matched solvedRects
	solves          int  // spectral solves actually executed
	solveSkips      int  // Solve calls satisfied by the fingerprint

	// Per-phase walls of the spectral solve, cumulative across the grid's
	// lifetime (exposed through Solver.PhaseWalls into the place.phase.*
	// density gauges).
	wallAnalysis, wallFreq, wallSynth time.Duration

	// Precomputed frequency-response tables, flat [v*M+u], with the
	// 4/(M·N) analysis normalization and the u=0 / v=0 halving folded in:
	// ψ̂ = coef·psiTab, Êx = coef·exTab, Êy = coef·eyTab.
	psiTab, exTab, eyTab []float64

	// parallel execution state
	workers    int
	scratch    []solveScratch
	ovfShards  int
	ovfPartial []float64
	ovfTarget  float64
	depRects   []geom.Rect // operand of the in-flight DepositRects
	synCoef    []float64   // operands of the in-flight synthesize
	synOut     []float64
	synSinX    bool
	synSinY    bool

	// Stage bodies are bound once here so the dispatcher can hand them to
	// par.ForShards (or run them inline) without constructing a closure —
	// and therefore without allocating — on every Solve/Deposit call.
	stageFwdRows func(w, lo, hi int)
	stageFwdCols func(w, lo, hi int)
	stageFreq    func(w, lo, hi int)
	stageSynCols func(w, lo, hi int)
	stageSynRows func(w, lo, hi int)
	stageDeposit func(w, lo, hi int)
	stageOvf     func(s int)
}

// NewGrid creates an M×N grid over region. M and N must be powers of two,
// at least 2. The grid starts serial; call SetWorkers to enable data
// parallelism. The spectral solve runs on the real-input engine
// (fft.RealPlan).
func NewGrid(region geom.Rect, m, n int) *Grid {
	return newGrid(region, m, n, realPlan)
}

func realPlan(m int) fft.Transform { return fft.NewRealPlan(m) }

// newGrid is NewGrid over an explicit 1-D transform engine — the hook the
// tests use to cross-check and time the reference engine.
func newGrid(region geom.Rect, m, n int, transform func(m int) fft.Transform) *Grid {
	if m < 2 || m&(m-1) != 0 || n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("density: grid %dx%d must be powers of two >= 2", m, n))
	}
	g := &Grid{
		M: m, N: n, Region: region,
		BinW: region.W() / float64(m),
		BinH: region.H() / float64(n),
		sx:   transform(m),
		sy:   transform(n),
	}
	size := m * n
	g.Rho = make([]float64, size)
	g.Psi = make([]float64, size)
	g.Ex = make([]float64, size)
	g.Ey = make([]float64, size)
	g.coef = make([]float64, size)
	g.bufPsi = make([]float64, size)
	g.bufEx = make([]float64, size)
	g.bufEy = make([]float64, size)
	g.fixedRho = make([]float64, size)

	g.psiTab = make([]float64, size)
	g.exTab = make([]float64, size)
	g.eyTab = make([]float64, size)
	norm := 4 / (float64(m) * float64(n))
	for v := 0; v < n; v++ {
		kv := g.sy.Freq(v) / g.BinH
		for u := 0; u < m; u++ {
			ku := g.sx.Freq(u) / g.BinW
			k2 := ku*ku + kv*kv
			if k2 <= 0 {
				continue // DC mode: neutralizing background, no force
			}
			c := norm
			if u == 0 {
				c /= 2
			}
			if v == 0 {
				c /= 2
			}
			idx := v*m + u
			a := c / k2
			g.psiTab[idx] = a
			g.exTab[idx] = a * ku
			g.eyTab[idx] = a * kv
		}
	}

	g.workers = 1
	g.scratch = []solveScratch{{
		sx:  g.sx,
		sy:  g.sy,
		row: make([]float64, m), col: make([]float64, n), colOut: make([]float64, n),
	}}
	g.ovfShards = size / ovfBinsPerShard
	if g.ovfShards < 1 {
		g.ovfShards = 1
	}
	if g.ovfShards > maxGridWorkers {
		g.ovfShards = maxGridWorkers
	}
	g.ovfPartial = make([]float64, g.ovfShards)
	g.bindStages()
	return g
}

// SetWorkers caps the grid's data parallelism (0 or negative selects
// GOMAXPROCS, clamped to an internal bound) and allocates the per-worker
// transform scratch up front so later Solve/DepositRects calls stay
// allocation-free. Results never depend on the worker count.
func (g *Grid) SetWorkers(n int) {
	w := par.Workers(n)
	if w > maxGridWorkers {
		w = maxGridWorkers
	}
	if w < 1 {
		w = 1
	}
	g.workers = w
	for len(g.scratch) < w {
		g.scratch = append(g.scratch, solveScratch{
			sx:  g.sx.CloneTransform(),
			sy:  g.sy.CloneTransform(),
			row: make([]float64, g.M), col: make([]float64, g.N), colOut: make([]float64, g.N),
		})
	}
}

// Workers reports the resolved worker cap.
func (g *Grid) Workers() int { return g.workers }

// dispatch runs a pre-bound stage over [0, n): inline with one worker,
// sharded across the worker pool otherwise. Stage bodies receive the
// executor index w so they can use g.scratch[w].
func (g *Grid) dispatch(n int, stage func(w, lo, hi int)) {
	if g.workers <= 1 || n < 2 {
		stage(0, 0, n)
		return
	}
	par.ForShards(g.workers, n, stage)
}

// bindStages constructs the worker bodies once, capturing g, so the hot
// path never builds a closure per call.
func (g *Grid) bindStages() {
	// Forward analysis along x: one independent DCT per bin row.
	g.stageFwdRows = func(w, lo, hi int) {
		s := &g.scratch[w]
		m := g.M
		for j := lo; j < hi; j++ {
			s.sx.CosCoeffs(g.Rho[j*m:(j+1)*m], g.coef[j*m:(j+1)*m])
		}
	}
	// Forward analysis along y: one independent DCT per coefficient column.
	g.stageFwdCols = func(w, lo, hi int) {
		s := &g.scratch[w]
		m, n := g.M, g.N
		for u := lo; u < hi; u++ {
			for j := 0; j < n; j++ {
				s.col[j] = g.coef[j*m+u]
			}
			s.sy.CosCoeffs(s.col, s.colOut)
			for v := 0; v < n; v++ {
				g.coef[v*m+u] = s.colOut[v]
			}
		}
	}
	// Frequency-domain solve: ψ̂ = ρ̂/k², Êx = ρ̂·ku/k², Êy = ρ̂·kv/k²,
	// via the precomputed response tables; disjoint per coefficient row.
	g.stageFreq = func(w, lo, hi int) {
		m := g.M
		for v := lo; v < hi; v++ {
			for idx := v * m; idx < (v+1)*m; idx++ {
				c := g.coef[idx]
				g.bufPsi[idx] = c * g.psiTab[idx]
				g.bufEx[idx] = c * g.exTab[idx]
				g.bufEy[idx] = c * g.eyTab[idx]
			}
		}
	}
	// Synthesis along y (columns) into the output grid.
	g.stageSynCols = func(w, lo, hi int) {
		s := &g.scratch[w]
		m, n := g.M, g.N
		coef, out := g.synCoef, g.synOut
		for u := lo; u < hi; u++ {
			for v := 0; v < n; v++ {
				s.col[v] = coef[v*m+u]
			}
			if g.synSinY {
				s.sy.EvalSin(s.col, s.colOut)
			} else {
				s.sy.EvalCos(s.col, s.colOut)
			}
			for j := 0; j < n; j++ {
				out[j*m+u] = s.colOut[j]
			}
		}
	}
	// Synthesis along x (rows), in place row by row.
	g.stageSynRows = func(w, lo, hi int) {
		s := &g.scratch[w]
		m := g.M
		out := g.synOut
		for j := lo; j < hi; j++ {
			row := out[j*m : (j+1)*m]
			copy(s.row, row)
			if g.synSinX {
				s.sx.EvalSin(s.row, row)
			} else {
				s.sx.EvalCos(s.row, row)
			}
		}
	}
	// Banded rasterization: the executor owns bin rows [lo, hi), restores
	// the fixed baseline there, then scans the rectangle list in order and
	// deposits only the rows it owns. Per-bin addition order equals the
	// serial rectangle order for any band partition.
	g.stageDeposit = func(w, lo, hi int) {
		m := g.M
		copy(g.Rho[lo*m:hi*m], g.fixedRho[lo*m:hi*m])
		invArea := 1 / (g.BinW * g.BinH)
		for _, r := range g.depRects {
			rc := r.Intersect(g.Region)
			if rc.Empty() {
				continue
			}
			i0, i1, j0, j1 := g.binRange(rc)
			if j0 < lo {
				j0 = lo
			}
			if j1 > hi {
				j1 = hi
			}
			for j := j0; j < j1; j++ {
				y0 := g.Region.Lo.Y + float64(j)*g.BinH
				oy := geom.Interval{Lo: y0, Hi: y0 + g.BinH}.Overlap(geom.Interval{Lo: rc.Lo.Y, Hi: rc.Hi.Y})
				if oy <= 0 {
					continue
				}
				row := g.Rho[j*m:]
				for i := i0; i < i1; i++ {
					x0 := g.Region.Lo.X + float64(i)*g.BinW
					ox := geom.Interval{Lo: x0, Hi: x0 + g.BinW}.Overlap(geom.Interval{Lo: rc.Lo.X, Hi: rc.Hi.X})
					if ox > 0 {
						row[i] += ox * oy * invArea
					}
				}
			}
		}
	}
	// Fixed-shard overflow partial: shard s always owns the same bin range.
	g.stageOvf = func(s int) {
		lo, hi := par.ShardRange(s, g.ovfShards, len(g.Rho))
		target := g.ovfTarget
		over := 0.0
		for i := lo; i < hi; i++ {
			free := target - g.fixedRho[i]
			if free < 0 {
				free = 0
			}
			movable := g.Rho[i] - g.fixedRho[i]
			if movable > free {
				over += movable - free
			}
		}
		g.ovfPartial[s] = over
	}
}

// Index returns the flat bin index of column i, row j.
func (g *Grid) Index(i, j int) int { return j*g.M + i }

// BinRect returns the geometric extent of bin (i, j).
func (g *Grid) BinRect(i, j int) geom.Rect {
	return geom.RectWH(
		g.Region.Lo.X+float64(i)*g.BinW,
		g.Region.Lo.Y+float64(j)*g.BinH,
		g.BinW, g.BinH)
}

// BinOf returns the bin coordinates containing point p, clamped to the grid.
func (g *Grid) BinOf(p geom.Point) (int, int) {
	i := int((p.X - g.Region.Lo.X) / g.BinW)
	j := int((p.Y - g.Region.Lo.Y) / g.BinH)
	return geom.ClampInt(i, 0, g.M-1), geom.ClampInt(j, 0, g.N-1)
}

// Reset clears movable charge, keeping the fixed baseline.
func (g *Grid) Reset() {
	copy(g.Rho, g.fixedRho)
	g.voidFingerprint()
}

// voidFingerprint discards the deposit fingerprints after any charge
// mutation that DepositRects does not describe, so neither the raster nor
// the solve skip can fire against stale state.
func (g *Grid) voidFingerprint() {
	g.rhoFromRects = false
	g.solvedFromRects = false
	g.fieldCurrent = false
}

// rectsEqual reports whether two rectangle lists are bitwise identical
// (exact float comparison — the fingerprint must never conflate rounding
// neighbours, only true re-deposits).
func rectsEqual(a, b []geom.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// binRange returns the clamped half-open bin index ranges covered by r.
func (g *Grid) binRange(r geom.Rect) (i0, i1, j0, j1 int) {
	i0 = geom.ClampInt(int((r.Lo.X-g.Region.Lo.X)/g.BinW), 0, g.M-1)
	i1 = geom.ClampInt(int(math.Ceil((r.Hi.X-g.Region.Lo.X)/g.BinW)), i0+1, g.M)
	j0 = geom.ClampInt(int((r.Lo.Y-g.Region.Lo.Y)/g.BinH), 0, g.N-1)
	j1 = geom.ClampInt(int(math.Ceil((r.Hi.Y-g.Region.Lo.Y)/g.BinH)), j0+1, g.N)
	return
}

// AddRect deposits scale × overlap(rect, bin) area into each bin the
// rectangle overlaps, as charge density (area / bin area).
func (g *Grid) AddRect(r geom.Rect, scale float64) {
	g.addRectTo(g.Rho, r, scale)
	g.voidFingerprint()
}

// AddFixedRect deposits the rectangle into the fixed baseline so it
// survives Reset. Call once per fixed cell during setup.
func (g *Grid) AddFixedRect(r geom.Rect, scale float64) {
	g.addRectTo(g.fixedRho, r, scale)
	g.hasFixed = true
	g.totalFixedArea += r.Intersect(g.Region).Area() * scale
	// A new baseline changes what any rect list deposits to, so both the
	// raster and the solve fingerprints are stale.
	g.voidFingerprint()
}

func (g *Grid) addRectTo(dst []float64, r geom.Rect, scale float64) {
	r = r.Intersect(g.Region)
	if r.Empty() {
		return
	}
	i0, i1, j0, j1 := g.binRange(r)
	invArea := scale / (g.BinW * g.BinH)
	for j := j0; j < j1; j++ {
		y0 := g.Region.Lo.Y + float64(j)*g.BinH
		oy := geom.Interval{Lo: y0, Hi: y0 + g.BinH}.Overlap(geom.Interval{Lo: r.Lo.Y, Hi: r.Hi.Y})
		if oy <= 0 {
			continue
		}
		row := dst[j*g.M:]
		for i := i0; i < i1; i++ {
			x0 := g.Region.Lo.X + float64(i)*g.BinW
			ox := geom.Interval{Lo: x0, Hi: x0 + g.BinW}.Overlap(geom.Interval{Lo: r.Lo.X, Hi: r.Hi.X})
			if ox > 0 {
				row[i] += ox * oy * invArea
			}
		}
	}
}

// DepositRects replaces the movable charge with the given unit-scale
// rectangles in one pass: Rho = fixedRho + Σ rects. It is the parallel
// equivalent of Reset followed by AddRect per rectangle, sharded by output
// bin rows, and produces bit-identical charge for every worker count. The
// rects slice is only read during the call; callers may reuse it.
//
// The call fingerprints its operand: depositing a list bitwise identical to
// the previous one skips the raster (Rho is already exact, since the deposit
// fully rewrites it), and depositing the list the current field was solved
// from arms the next Solve to return without any spectral work.
func (g *Grid) DepositRects(rects []geom.Rect) {
	if !g.rhoFromRects || !rectsEqual(rects, g.lastRects) {
		g.depRects = rects
		g.dispatch(g.N, g.stageDeposit)
		g.depRects = nil
		g.lastRects = append(g.lastRects[:0], rects...)
		g.rhoFromRects = true
	}
	g.fieldCurrent = g.solvedFromRects && rectsEqual(rects, g.solvedRects)
}

// Solve computes the potential and field from the current charge. The DC
// component of the charge is removed first (the u=v=0 mode has no force and
// corresponds to the neutralizing background of the electrostatic analogy).
// The row/column transform batches run across the SetWorkers pool with
// per-worker spectral scratch; every batch writes a disjoint output range,
// so the solution is bit-identical for any worker count.
// When the most recent DepositRects matched the list the current field was
// solved from, the charge — and therefore the solution — is unchanged, and
// Solve returns immediately (see SolveSkips). Mutating the charge by any
// other means (AddRect, Reset, direct Rho writes) always forces a full
// solve on the next call.
func (g *Grid) Solve() {
	if g.fieldCurrent {
		g.solveSkips++
		return
	}

	// Forward analysis: cosine coefficients along x for each row, then
	// along y for each column, then the per-mode frequency response.
	t := time.Now()
	g.dispatch(g.N, g.stageFwdRows)
	g.dispatch(g.M, g.stageFwdCols)
	t = g.lap(t, &g.wallAnalysis)
	g.dispatch(g.N, g.stageFreq)
	t = g.lap(t, &g.wallFreq)

	// Synthesis. ψ uses cos·cos; Ex = -∂ψ/∂x uses sin in x (the derivative
	// of cos(ku·x) is -ku·sin(ku·x), and E = -∇ψ cancels the sign);
	// Ey symmetric.
	g.synthesize(g.bufPsi, g.Psi, false, false)
	g.synthesize(g.bufEx, g.Ex, true, false)
	g.synthesize(g.bufEy, g.Ey, false, true)
	g.lap(t, &g.wallSynth)

	g.solves++
	g.solvedFromRects = g.rhoFromRects
	if g.solvedFromRects {
		g.solvedRects = append(g.solvedRects[:0], g.lastRects...)
	}
}

// lap accumulates the time since t into *wall and returns the new mark.
func (g *Grid) lap(t time.Time, wall *time.Duration) time.Time {
	now := time.Now()
	*wall += now.Sub(t)
	return now
}

// synthesize evaluates the 2-D series with sine evaluation in x and/or y.
func (g *Grid) synthesize(coef, out []float64, sinX, sinY bool) {
	g.synCoef, g.synOut, g.synSinX, g.synSinY = coef, out, sinX, sinY
	g.dispatch(g.M, g.stageSynCols)
	g.dispatch(g.N, g.stageSynRows)
	g.synCoef, g.synOut = nil, nil
}

// Energy returns the total potential energy Σ ρ·ψ·binArea (Eq. 3 up to the
// constant factor absorbed by λ).
func (g *Grid) Energy() float64 {
	e := 0.0
	binArea := g.BinW * g.BinH
	for i, r := range g.Rho {
		e += r * g.Psi[i]
	}
	return e * binArea
}

// ForceOnRect returns the overlap-weighted electric force on a rectangle of
// charge (the negative gradient of the energy with respect to the
// rectangle's position). The returned vector is Σ overlapArea·E over the
// bins the rectangle covers. It only reads the solved field, so any number
// of goroutines may call it concurrently (the placement engine's force
// sweep does).
func (g *Grid) ForceOnRect(r geom.Rect) (fx, fy float64) {
	rc := r.Intersect(g.Region)
	if rc.Empty() {
		// Pull cells that escaped the region back toward it.
		c := g.Region.ClampPoint(r.Center())
		i, j := g.BinOf(c)
		idx := g.Index(i, j)
		return g.Ex[idx] * r.Area(), g.Ey[idx] * r.Area()
	}
	i0, i1, j0, j1 := g.binRange(rc)
	for j := j0; j < j1; j++ {
		y0 := g.Region.Lo.Y + float64(j)*g.BinH
		oy := geom.Interval{Lo: y0, Hi: y0 + g.BinH}.Overlap(geom.Interval{Lo: rc.Lo.Y, Hi: rc.Hi.Y})
		if oy <= 0 {
			continue
		}
		for i := i0; i < i1; i++ {
			x0 := g.Region.Lo.X + float64(i)*g.BinW
			ox := geom.Interval{Lo: x0, Hi: x0 + g.BinW}.Overlap(geom.Interval{Lo: rc.Lo.X, Hi: rc.Hi.X})
			if ox <= 0 {
				continue
			}
			idx := j*g.M + i
			a := ox * oy
			fx += a * g.Ex[idx]
			fy += a * g.Ey[idx]
		}
	}
	return fx, fy
}

// Overflow returns the density overflow ratio: the summed movable charge
// area exceeding target density in each bin, divided by the total movable
// area. This is the τ trigger metric of Sec. III-B3 in normalized form.
// The reduction runs over a fixed shard count derived from the grid size,
// so the floating-point result is identical for every worker count.
func (g *Grid) Overflow(target, totalMovableArea float64) float64 {
	if totalMovableArea <= 0 {
		return 0
	}
	g.ovfTarget = target
	if g.workers <= 1 || g.ovfShards <= 1 {
		for s := 0; s < g.ovfShards; s++ {
			g.stageOvf(s)
		}
	} else {
		par.ForN(g.workers, g.ovfShards, g.stageOvf)
	}
	over := 0.0
	for _, p := range g.ovfPartial {
		over += p
	}
	return over * g.BinW * g.BinH / totalMovableArea
}

// Solves reports how many Solve calls actually ran the spectral pipeline.
func (g *Grid) Solves() int { return g.solves }

// SolveSkips reports how many Solve calls returned immediately because the
// deposited charge matched the list the current field was solved from.
func (g *Grid) SolveSkips() int { return g.solveSkips }

// PhaseWalls returns the cumulative wall time of the spectral solve split
// by phase: forward analysis (row+column DCTs), the frequency-domain
// response, and the three synthesis passes.
func (g *Grid) PhaseWalls() (analysis, freq, synth time.Duration) {
	return g.wallAnalysis, g.wallFreq, g.wallSynth
}

// The Solver methods below make a bare Grid the single-level degenerate
// case of the multi-resolution pyramid: one level, never refining.

// Active returns the grid itself.
func (g *Grid) Active() *Grid { return g }

// Finest returns the grid itself.
func (g *Grid) Finest() *Grid { return g }

// Level returns 0: a bare grid is always at the finest level.
func (g *Grid) Level() int { return 0 }

// Levels returns 1.
func (g *Grid) Levels() int { return 1 }

// Refine is a no-op on a single grid and reports false.
func (g *Grid) Refine() bool { return false }
