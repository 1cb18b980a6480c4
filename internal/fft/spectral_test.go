package fft_test

// The reference engine's own tests, and the production RealPlan's
// cross-check against it, run here with the package's tests; the
// reference itself lives in fftref so no production binary links it.

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"puffer/internal/fft"
	"puffer/internal/fft/fftref"
)

func TestSpectralMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{2, 4, 16, 32} {
		s := fftref.NewSpectral(m)
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, m)

		s.CosCoeffs(x, got)
		want := fft.NaiveCosCoeffs(x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*float64(m) {
				t.Fatalf("m=%d: CosCoeffs[%d] = %v, want %v", m, i, got[i], want[i])
			}
		}

		s.EvalCos(x, got)
		want = fft.NaiveEvalCos(x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*float64(m) {
				t.Fatalf("m=%d: EvalCos[%d] = %v, want %v", m, i, got[i], want[i])
			}
		}

		s.EvalSin(x, got)
		want = fft.NaiveEvalSin(x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*float64(m) {
				t.Fatalf("m=%d: EvalSin[%d] = %v, want %v", m, i, got[i], want[i])
			}
		}
	}
}

// Property: analysis followed by normalized synthesis reconstructs the
// signal (the DCT-II / DCT-III inversion identity).
func TestSpectralReconstruction(t *testing.T) {
	m := 64
	s := fftref.NewSpectral(m)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		a := make([]float64, m)
		s.CosCoeffs(x, a)
		for u := range a {
			a[u] *= 2 / float64(m)
		}
		a[0] /= 2
		y := make([]float64, m)
		s.EvalCos(a, y)
		for i := range y {
			if math.Abs(y[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFreq(t *testing.T) {
	s := fftref.NewSpectral(8)
	if s.Freq(0) != 0 {
		t.Error("Freq(0) != 0")
	}
	if got, want := s.Freq(4), math.Pi/2; math.Abs(got-want) > 1e-15 {
		t.Errorf("Freq(4) = %v, want %v", got, want)
	}
	if s.Size() != 8 {
		t.Errorf("Size = %d", s.Size())
	}
}

func BenchmarkSpectral256(b *testing.B) {
	s := fftref.NewSpectral(256)
	x := make([]float64, 256)
	out := make([]float64, 256)
	for i := range x {
		x[i] = float64(i % 13)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.CosCoeffs(x, out)
	}
}

// TestCloneSharesPlanMatchesOriginal checks a clone produces bit-identical
// transforms while running concurrently with the original on the shared
// plan (go test -race guards the immutability claim).
func TestCloneSharesPlanMatchesOriginal(t *testing.T) {
	const m = 64
	s := fftref.NewSpectral(m)
	c := s.Clone() // fftref.TestCloneSharesPlanOwnsScratch checks the sharing

	in := make([]float64, m)
	for i := range in {
		in[i] = math.Sin(0.1*float64(i)) + 0.3*float64(i%5)
	}
	want := make([]float64, m)
	s.CosCoeffs(in, want)

	var wg sync.WaitGroup
	outs := make([][]float64, 8)
	for k := range outs {
		outs[k] = make([]float64, m)
		sp := s
		if k%2 == 1 {
			sp = s.Clone()
		}
		wg.Add(1)
		go func(k int, sp *fftref.Spectral) {
			defer wg.Done()
			if k%2 == 0 {
				return // originals share one scratch: only clones run concurrently
			}
			sp.CosCoeffs(in, outs[k])
		}(k, sp)
	}
	wg.Wait()
	got := make([]float64, m)
	c.CosCoeffs(in, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clone CosCoeffs[%d] = %v, original %v", i, got[i], want[i])
		}
	}
	for k := 1; k < len(outs); k += 2 {
		for i := range want {
			if outs[k][i] != want[i] {
				t.Fatalf("concurrent clone %d diverged at %d", k, i)
			}
		}
	}
}

// TestSpectralZeroAllocSteadyState proves the three solver primitives do
// not allocate per call once constructed.
func TestSpectralZeroAllocSteadyState(t *testing.T) {
	const m = 32
	s := fftref.NewSpectral(m)
	in := make([]float64, m)
	out := make([]float64, m)
	for i := range in {
		in[i] = float64(i%7) - 3
	}
	allocs := testing.AllocsPerRun(50, func() {
		s.CosCoeffs(in, out)
		s.EvalCos(in, out)
		s.EvalSin(in, out)
	})
	if allocs != 0 {
		t.Fatalf("spectral primitives allocate %v per call set, want 0", allocs)
	}
}

// TestRealPlanMatchesComplexPath cross-checks the two Transform
// implementations: the fused half-size path and the 2M mirror-extension
// reference must agree to rounding error on every primitive.
func TestRealPlanMatchesComplexPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range fft.RealTestSizes {
		rp := fft.NewRealPlan(m)
		sp := fftref.NewSpectral(m)
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64() * 3
		}
		a, b := make([]float64, m), make([]float64, m)
		tol := 1e-10 * float64(m)
		for name, run := range map[string]func(tr fft.Transform, out []float64){
			"CosCoeffs": func(tr fft.Transform, out []float64) { tr.CosCoeffs(x, out) },
			"EvalCos":   func(tr fft.Transform, out []float64) { tr.EvalCos(x, out) },
			"EvalSin":   func(tr fft.Transform, out []float64) { tr.EvalSin(x, out) },
		} {
			run(rp, a)
			run(sp, b)
			for i := range a {
				if math.Abs(a[i]-b[i]) > tol {
					t.Errorf("m=%d %s[%d]: real %v vs complex %v", m, name, i, a[i], b[i])
					break
				}
			}
		}
	}
}
