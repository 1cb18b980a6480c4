package fft

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// realTestSizes spans the production grid range (place.MinGridDim = 16 up
// to the auto-selection cap 512) plus the small edge sizes the plan
// supports.
var realTestSizes = []int{2, 4, 8, 16, 32, 64, 128, 256, 512}

// TestRealPlanMatchesNaive is the property test against the O(M²)
// references: for every supported size and several random signals, the
// fused real-input path must agree with the direct cosine/sine sums.
func TestRealPlanMatchesNaive(t *testing.T) {
	for _, m := range realTestSizes {
		p := NewRealPlan(m)
		got := make([]float64, m)
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			x := make([]float64, m)
			for i := range x {
				x[i] = rng.NormFloat64() * 5
			}
			tol := 1e-9 * float64(m)

			p.CosCoeffs(x, got)
			want := naiveCosCoeffs(x)
			for i := range got {
				if math.Abs(got[i]-want[i]) > tol {
					t.Logf("m=%d seed=%d: CosCoeffs[%d] = %v, want %v", m, seed, i, got[i], want[i])
					return false
				}
			}

			p.EvalCos(x, got)
			want = naiveEvalCos(x)
			for i := range got {
				if math.Abs(got[i]-want[i]) > tol {
					t.Logf("m=%d seed=%d: EvalCos[%d] = %v, want %v", m, seed, i, got[i], want[i])
					return false
				}
			}

			p.EvalSin(x, got)
			want = naiveEvalSin(x)
			for i := range got {
				if math.Abs(got[i]-want[i]) > tol {
					t.Logf("m=%d seed=%d: EvalSin[%d] = %v, want %v", m, seed, i, got[i], want[i])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
	}
}

// TestRealPlanReconstruction checks the DCT-II / DCT-III inversion
// identity through the fused path: analysis followed by normalized
// synthesis reproduces the signal.
func TestRealPlanReconstruction(t *testing.T) {
	for _, m := range []int{16, 64, 512} {
		p := NewRealPlan(m)
		rng := rand.New(rand.NewSource(int64(m)))
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		a := make([]float64, m)
		p.CosCoeffs(x, a)
		for u := range a {
			a[u] *= 2 / float64(m)
		}
		a[0] /= 2
		y := make([]float64, m)
		p.EvalCos(a, y)
		for i := range y {
			if math.Abs(y[i]-x[i]) > 1e-8 {
				t.Fatalf("m=%d: reconstruction[%d] = %v, want %v", m, i, y[i], x[i])
			}
		}
	}
}

func TestRealPlanFreqAndSize(t *testing.T) {
	p := NewRealPlan(8)
	if p.Size() != 8 {
		t.Errorf("Size = %d, want 8", p.Size())
	}
	if p.Freq(0) != 0 {
		t.Error("Freq(0) != 0")
	}
	if got, want := p.Freq(4), math.Pi/2; math.Abs(got-want) > 1e-15 {
		t.Errorf("Freq(4) = %v, want %v", got, want)
	}
}

func TestNewRealPlanRejectsBadSizes(t *testing.T) {
	for _, m := range []int{0, -8, 1, 3, 6, 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRealPlan(%d) did not panic", m)
				}
			}()
			NewRealPlan(m)
		}()
	}
}

func TestRealPlanRejectsWrongLength(t *testing.T) {
	p := NewRealPlan(8)
	defer func() {
		if recover() == nil {
			t.Error("CosCoeffs accepted wrong-length input")
		}
	}()
	p.CosCoeffs(make([]float64, 4), make([]float64, 8))
}

// TestRealPlanCloneConcurrent checks clones share the immutable plan and
// produce bit-identical results while running concurrently (go test -race
// guards the immutability claim).
func TestRealPlanCloneConcurrent(t *testing.T) {
	const m = 128
	p := NewRealPlan(m)
	in := make([]float64, m)
	for i := range in {
		in[i] = math.Sin(0.2*float64(i)) + 0.1*float64(i%7)
	}
	want := make([]float64, m)
	p.CosCoeffs(in, want)

	c := p.Clone()
	if c.half != p.half || &c.pa[0] != &p.pa[0] {
		t.Fatal("clone did not share the plan and twiddle tables")
	}
	if &c.buf[0] == &p.buf[0] {
		t.Fatal("clone shares scratch with the original")
	}

	var wg sync.WaitGroup
	outs := make([][]float64, 8)
	for k := range outs {
		outs[k] = make([]float64, m)
		cl := p.Clone()
		wg.Add(1)
		go func(out []float64, cl *RealPlan) {
			defer wg.Done()
			cl.CosCoeffs(in, out)
		}(outs[k], cl)
	}
	wg.Wait()
	for k := range outs {
		for i := range want {
			if outs[k][i] != want[i] {
				t.Fatalf("concurrent clone %d diverged at %d: %v vs %v", k, i, outs[k][i], want[i])
			}
		}
	}
}

// TestRealPlanZeroAllocSteadyState proves the three fused primitives do
// not allocate per call once constructed.
func TestRealPlanZeroAllocSteadyState(t *testing.T) {
	const m = 64
	p := NewRealPlan(m)
	in := make([]float64, m)
	out := make([]float64, m)
	for i := range in {
		in[i] = float64(i%11) - 5
	}
	allocs := testing.AllocsPerRun(50, func() {
		p.CosCoeffs(in, out)
		p.EvalCos(in, out)
		p.EvalSin(in, out)
	})
	if allocs != 0 {
		t.Fatalf("real-plan primitives allocate %v per call set, want 0", allocs)
	}
}

func BenchmarkRealPlanCos256(b *testing.B) {
	p := NewRealPlan(256)
	x := make([]float64, 256)
	out := make([]float64, 256)
	for i := range x {
		x[i] = float64(i % 13)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.CosCoeffs(x, out)
	}
}
