package density

import (
	"math"
	"testing"

	"puffer/internal/fft"
	"puffer/internal/fft/fftref"
	"puffer/internal/geom"
)

// reference builds the mirror-extension complex engine (fftref.Spectral)
// for newGrid.
func reference(m int) fft.Transform { return fftref.NewSpectral(m) }

// TestGridComplexVsRealSolve cross-checks the two transform engines: the
// fused real-input path must reproduce the mirror-extension reference's
// potential and field to rounding error.
func TestGridComplexVsRealSolve(t *testing.T) {
	region := geom.RectWH(0, 0, 64, 64)
	rects := rectSoup(200, region)

	ref := newGrid(region, 64, 32, reference)
	ref.DepositRects(rects)
	ref.Solve()

	g := NewGrid(region, 64, 32)
	g.DepositRects(rects)
	g.Solve()

	scale := 0.0
	for _, v := range ref.Psi {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	tol := 1e-11 * scale
	for i := range g.Psi {
		if math.Abs(g.Psi[i]-ref.Psi[i]) > tol ||
			math.Abs(g.Ex[i]-ref.Ex[i]) > tol ||
			math.Abs(g.Ey[i]-ref.Ey[i]) > tol {
			t.Fatalf("bin %d: real/complex mismatch psi %v/%v ex %v/%v ey %v/%v",
				i, g.Psi[i], ref.Psi[i], g.Ex[i], ref.Ex[i], g.Ey[i], ref.Ey[i])
		}
	}
}

// TestSolveSkipOnRedeposit covers the fingerprint skip, including the
// placement engine's actual call pattern: a full deposit + solve, a
// movables-only deposit (overflow probe, no solve) in between, then the
// same full deposit again — the second solve must be skipped and leave the
// field bit-identical.
func TestSolveSkipOnRedeposit(t *testing.T) {
	region := geom.RectWH(0, 0, 32, 32)
	full := rectSoup(50, region)
	probe := full[:30] // a different list, as computeOverflow would deposit

	g := NewGrid(region, 16, 16)
	g.DepositRects(full)
	g.Solve()
	if g.Solves() != 1 || g.SolveSkips() != 0 {
		t.Fatalf("after first solve: solves=%d skips=%d", g.Solves(), g.SolveSkips())
	}
	psi := append([]float64(nil), g.Psi...)

	g.DepositRects(probe) // no solve: overflow-style probe
	g.DepositRects(full)
	g.Solve()
	if g.Solves() != 1 || g.SolveSkips() != 1 {
		t.Fatalf("after redeposit solve: solves=%d skips=%d, want 1/1", g.Solves(), g.SolveSkips())
	}
	for i := range psi {
		if g.Psi[i] != psi[i] {
			t.Fatalf("skipped solve changed Psi[%d]: %v vs %v", i, g.Psi[i], psi[i])
		}
	}

	// A genuinely different list must solve again.
	g.DepositRects(probe)
	g.Solve()
	if g.Solves() != 2 || g.SolveSkips() != 1 {
		t.Fatalf("after new-list solve: solves=%d skips=%d, want 2/1", g.Solves(), g.SolveSkips())
	}
}

// TestSolveSkipInvalidation proves every non-DepositRects charge mutation
// voids the skip: AddRect, Reset, a new fixed baseline, and direct Rho
// writes all force the next Solve to run.
func TestSolveSkipInvalidation(t *testing.T) {
	region := geom.RectWH(0, 0, 32, 32)
	rects := rectSoup(40, region)

	g := NewGrid(region, 16, 16)
	g.DepositRects(rects)
	g.Solve()

	// AddRect on top of the deposit: same list must not skip afterwards.
	g.AddRect(geom.RectWH(1, 1, 3, 3), 1)
	g.DepositRects(rects)
	g.Solve()
	if g.Solves() != 2 {
		t.Fatalf("solve skipped across AddRect: solves=%d", g.Solves())
	}

	// A changed fixed baseline makes the same rect list a different charge.
	g.AddFixedRect(geom.RectWH(20, 20, 6, 6), 1)
	g.DepositRects(rects)
	g.Solve()
	if g.Solves() != 3 {
		t.Fatalf("solve skipped across AddFixedRect: solves=%d", g.Solves())
	}

	// Reset, then direct Rho writes (TestPoissonResidual style): no
	// fingerprint, so Solve always runs.
	g.Reset()
	g.Rho[0] += 1
	g.Solve()
	g.Solve()
	if g.Solves() != 5 || g.SolveSkips() != 0 {
		t.Fatalf("direct-Rho solves skipped: solves=%d skips=%d", g.Solves(), g.SolveSkips())
	}
}

// TestGridSteadyStateZeroAllocAlternating guards the full solve path under
// the zero-alloc contract: alternating between two rect lists defeats the
// fingerprint skip, so every iteration rasterizes and solves for real.
func TestGridSteadyStateZeroAllocAlternating(t *testing.T) {
	region := geom.RectWH(0, 0, 64, 64)
	a := rectSoup(64, region)
	b := append([]geom.Rect(nil), a...)
	for i := range b {
		b[i] = b[i].Translate(geom.Pt(0.25, -0.25))
	}
	g := NewGrid(region, 32, 32)
	g.DepositRects(a) // warm up both fingerprint buffers
	g.Solve()
	g.DepositRects(b)
	g.Solve()

	flip := false
	if n := testing.AllocsPerRun(10, func() {
		r := a
		if flip {
			r = b
		}
		flip = !flip
		g.DepositRects(r)
		g.Solve()
		g.ForceOnRect(r[0])
		g.Overflow(0.8, 100)
	}); n != 0 {
		t.Errorf("alternating steady-state iteration allocates %v per run, want 0", n)
	}
	if g.SolveSkips() != 0 {
		t.Errorf("alternating deposits skipped %d solves, want 0", g.SolveSkips())
	}
}

// TestPyramidConstruction checks level sizing, clamping, and the starting
// level.
func TestPyramidConstruction(t *testing.T) {
	region := geom.RectWH(0, 0, 64, 64)
	p := NewPyramid(region, 64, 32, 3)
	if p.Levels() != 3 {
		t.Fatalf("Levels = %d, want 3", p.Levels())
	}
	if p.Level() != 2 {
		t.Fatalf("starting Level = %d, want coarsest (2)", p.Level())
	}
	if g := p.Finest(); g.M != 64 || g.N != 32 {
		t.Errorf("Finest = %dx%d, want 64x32", g.M, g.N)
	}
	if g := p.Active(); g.M != 16 || g.N != 8 {
		t.Errorf("coarsest Active = %dx%d, want 16x8", g.M, g.N)
	}

	// Requesting more levels than the minimum dimension allows clamps: a
	// 32x32 finest grid supports at most 8x8 coarsest (32>>2), i.e. 3 levels.
	p = NewPyramid(region, 32, 32, 7)
	if p.Levels() != 3 {
		t.Errorf("clamped Levels = %d, want 3", p.Levels())
	}
	if g := p.Active(); g.M != 8 || g.N != 8 {
		t.Errorf("clamped coarsest = %dx%d, want 8x8", g.M, g.N)
	}

	// Degenerate single level behaves like a bare grid.
	p = NewPyramid(region, 16, 16, 0)
	if p.Levels() != 1 || p.Level() != 0 || p.Refine() {
		t.Error("single-level pyramid should start and stay at level 0")
	}
}

// TestPyramidRefineAndDelegation walks the refinement ladder and checks the
// Solver methods always act on the active level, with the fixed baseline
// present on every level.
func TestPyramidRefineAndDelegation(t *testing.T) {
	region := geom.RectWH(0, 0, 64, 64)
	p := NewPyramid(region, 32, 32, 2)
	p.SetWorkers(2)
	p.AddFixedRect(geom.RectWH(4, 4, 8, 8), 1)
	rects := rectSoup(100, region)

	for lvl := p.Level(); ; lvl-- {
		g := p.Active()
		if got := p.Level(); got != lvl {
			t.Fatalf("Level = %d, want %d", got, lvl)
		}
		if g.M != 32>>lvl {
			t.Fatalf("level %d grid is %dx%d", lvl, g.M, g.N)
		}
		if !g.hasFixed || g.totalFixedArea == 0 {
			t.Fatalf("level %d missing the fixed baseline", lvl)
		}
		p.DepositRects(rects)
		p.Solve()
		if g.Solves() != 1 {
			t.Fatalf("level %d: active grid did not solve", lvl)
		}
		if p.Energy() != g.Energy() {
			t.Fatal("Energy not delegated to the active level")
		}
		fx, fy := p.ForceOnRect(rects[0])
		gfx, gfy := g.ForceOnRect(rects[0])
		if fx != gfx || fy != gfy {
			t.Fatal("ForceOnRect not delegated to the active level")
		}
		if p.Overflow(0.8, 100) != g.Overflow(0.8, 100) {
			t.Fatal("Overflow not delegated to the active level")
		}
		if lvl == 0 {
			break
		}
		if !p.Refine() {
			t.Fatal("Refine returned false above level 0")
		}
	}
	if p.Refine() {
		t.Error("Refine at level 0 must report false")
	}
	if p.Solves() != p.Levels() {
		t.Errorf("summed Solves = %d, want %d", p.Solves(), p.Levels())
	}
	a, f, s := p.PhaseWalls()
	if a <= 0 || f < 0 || s <= 0 {
		t.Errorf("PhaseWalls = %v/%v/%v, want positive analysis and synthesis", a, f, s)
	}

	p.SetLevel(99)
	if p.Level() != p.Levels()-1 {
		t.Errorf("SetLevel(99) = %d, want clamp to coarsest", p.Level())
	}
	p.SetLevel(-3)
	if p.Level() != 0 {
		t.Errorf("SetLevel(-3) = %d, want clamp to 0", p.Level())
	}
}
