// Package fftref is the reference engine of the density solver's spectral
// transforms: every primitive is a complex FFT of size 2M over the mirror
// extension of the input. It implements fft.Transform, so tests and
// benchmarks cross-check (and time) the production fft.RealPlan against
// it; no production package imports it.
package fftref

import (
	"fmt"
	"math"

	"puffer/internal/fft"
)

var _ fft.Transform = (*Spectral)(nil)

// Spectral bundles the three real transforms used by the Poisson solver for
// one dimension of size M (a power of two). Internally every transform is a
// complex FFT of size 2M over the mirror extension of the input.
//
// A Spectral carries private scratch (buf), so a single instance is not
// safe for concurrent use; Clone returns additional instances that share
// the immutable plan and phase tables but own fresh scratch, which is how
// the density solver batches row/column transforms across workers without
// recomputing twiddle factors per worker.
type Spectral struct {
	m    int
	plan *fft.Plan
	buf  []complex128
	// phase[u] = exp(-iπu/(2M)) used to extract half-sample cosine series.
	phase []complex128
}

// NewSpectral creates the transform set for dimension size m (power of two).
func NewSpectral(m int) *Spectral {
	s := &Spectral{m: m, plan: fft.NewPlan(2 * m)}
	s.buf = make([]complex128, 2*m)
	s.phase = make([]complex128, m)
	for u := 0; u < m; u++ {
		ang := -math.Pi * float64(u) / float64(2*m)
		s.phase[u] = complex(math.Cos(ang), math.Sin(ang))
	}
	return s
}

// Size returns M.
func (s *Spectral) Size() int { return s.m }

// Clone returns a new Spectral sharing s's precomputed plan and phase
// table (both immutable after construction) with its own scratch buffer,
// so the clone and the original can run transforms concurrently. Cloning
// costs one 2M-complex allocation and no trigonometry.
func (s *Spectral) Clone() *Spectral {
	return &Spectral{
		m:     s.m,
		plan:  s.plan,
		buf:   make([]complex128, 2*s.m),
		phase: s.phase,
	}
}

// CosCoeffs computes the unnormalized DCT-II analysis
//
//	a[u] = Σ_{m=0}^{M-1} x[m]·cos(πu(m+1/2)/M),  u = 0..M-1.
//
// out must have length M and may not alias x.
func (s *Spectral) CosCoeffs(x, out []float64) {
	s.check(x, out)
	for m := 0; m < s.m; m++ {
		v := complex(x[m], 0)
		s.buf[m] = v
		s.buf[2*s.m-1-m] = v
	}
	s.plan.Forward(s.buf)
	for u := 0; u < s.m; u++ {
		// Xe[u] = exp(iπu/(2M)) · 2·Σ x cos(πu(m+1/2)/M)
		// Xe[u] = exp(iπu/(2M))·2·Σ x cos(πu(m+1/2)/M), so multiplying by
		// phase[u] = exp(-iπu/(2M)) leaves twice the cosine sum.
		out[u] = 0.5 * real(s.phase[u]*s.buf[u])
	}
}

// EvalCos evaluates the cosine series
//
//	y[m] = Σ_{u=0}^{M-1} a[u]·cos(πu(m+1/2)/M).
//
// out must have length M and may not alias a.
func (s *Spectral) EvalCos(a, out []float64) {
	s.check(a, out)
	// y[m] = Re( Σ_u a[u]·exp(iπu(m+1/2)/M) )
	//      = Re( Σ_u (a[u]·exp(iπu/(2M)))·exp(2πi·u·m/(2M)) )
	// Compute the positive-exponent sum as conj(FFT(conj(B))).
	for u := 0; u < s.m; u++ {
		// conj(B[u]) where B[u] = a[u]·exp(iπu/(2M)) = a[u]·conj(phase[u]).
		s.buf[u] = complex(a[u], 0) * s.phase[u]
	}
	for u := s.m; u < 2*s.m; u++ {
		s.buf[u] = 0
	}
	s.plan.Forward(s.buf)
	for m := 0; m < s.m; m++ {
		out[m] = real(s.buf[m]) // Re(conj(z)) == Re(z)
	}
}

// EvalSin evaluates the sine series
//
//	y[m] = Σ_{u=0}^{M-1} c[u]·sin(πu(m+1/2)/M).
//
// The u = 0 term contributes nothing. out must have length M and may not
// alias c.
func (s *Spectral) EvalSin(c, out []float64) {
	s.check(c, out)
	// y[m] = Im( Σ_u c[u]·exp(iπu(m+1/2)/M) ), same sum as EvalCos:
	// the positive-exponent sum equals conj(FFT(conj(B))), whose imaginary
	// part is the negation of the computed FFT's imaginary part.
	for u := 0; u < s.m; u++ {
		s.buf[u] = complex(c[u], 0) * s.phase[u]
	}
	for u := s.m; u < 2*s.m; u++ {
		s.buf[u] = 0
	}
	s.plan.Forward(s.buf)
	for m := 0; m < s.m; m++ {
		out[m] = -imag(s.buf[m])
	}
}

func (s *Spectral) check(in, out []float64) {
	if len(in) != s.m || len(out) != s.m {
		panic(fmt.Sprintf("fftref: spectral buffers %d/%d != size %d", len(in), len(out), s.m))
	}
}

// Freq returns the spatial frequency k_u = πu/M of basis index u.
func (s *Spectral) Freq(u int) float64 {
	return math.Pi * float64(u) / float64(s.m)
}

// CloneTransform implements fft.Transform.
func (s *Spectral) CloneTransform() fft.Transform { return s.Clone() }
