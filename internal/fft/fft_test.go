package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for u := 0; u < n; u++ {
		var sum complex128
		for m := 0; m < n; m++ {
			ang := -2 * math.Pi * float64(u) * float64(m) / float64(n)
			sum += x[m] * cmplx.Exp(complex(0, ang))
		}
		out[u] = sum
	}
	return out
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: FFT[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 8, 128} {
		p := NewPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		for i := range y {
			if cmplx.Abs(y[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: roundtrip[%d] = %v, want %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestForwardKnownValues(t *testing.T) {
	// FFT of a constant is an impulse at DC.
	n := 8
	x := make([]complex128, n)
	for i := range x {
		x[i] = 3
	}
	NewPlan(n).Forward(x)
	if cmplx.Abs(x[0]-complex(24, 0)) > 1e-12 {
		t.Errorf("DC bin = %v, want 24", x[0])
	}
	for i := 1; i < n; i++ {
		if cmplx.Abs(x[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, x[i])
		}
	}
}

func TestNewPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan(%d) did not panic", n)
				}
			}()
			NewPlan(n)
		}()
	}
}

func TestForwardRejectsWrongLength(t *testing.T) {
	p := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Error("Forward accepted wrong-length input")
		}
	}()
	p.Forward(make([]complex128, 4))
}

// naiveCosCoeffs is the O(M²) reference DCT-II.
func naiveCosCoeffs(x []float64) []float64 {
	m := len(x)
	out := make([]float64, m)
	for u := 0; u < m; u++ {
		sum := 0.0
		for i := 0; i < m; i++ {
			sum += x[i] * math.Cos(math.Pi*float64(u)*(float64(i)+0.5)/float64(m))
		}
		out[u] = sum
	}
	return out
}

func naiveEvalCos(a []float64) []float64 {
	m := len(a)
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		sum := 0.0
		for u := 0; u < m; u++ {
			sum += a[u] * math.Cos(math.Pi*float64(u)*(float64(i)+0.5)/float64(m))
		}
		out[i] = sum
	}
	return out
}

func naiveEvalSin(c []float64) []float64 {
	m := len(c)
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		sum := 0.0
		for u := 0; u < m; u++ {
			sum += c[u] * math.Sin(math.Pi*float64(u)*(float64(i)+0.5)/float64(m))
		}
		out[i] = sum
	}
	return out
}

func BenchmarkFFT256(b *testing.B) {
	p := NewPlan(256)
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}
