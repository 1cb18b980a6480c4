package fft

import (
	"fmt"
	"math"
)

// Transform is the 1-D spectral engine contract the density solver builds
// on: unnormalized DCT-II analysis, cosine synthesis for the potential and
// sine synthesis for the field, all over the half-sample cosine basis
// cos(πu(m+1/2)/M). Two implementations exist:
//
//   - RealPlan, the production path: real-input symmetry and fused DCT
//     twiddles reduce each primitive to one complex FFT of size M/2.
//   - fftref.Spectral, the test-only reference: every primitive is a
//     complex FFT of size 2M over the mirror extension of the input.
//
// Both are deterministic and allocation-free per call after construction;
// CloneTransform fans an instance out across workers, sharing the
// immutable plan while owning fresh scratch.
type Transform interface {
	// Size returns the transform length M.
	Size() int
	// Freq returns the spatial frequency k_u = πu/M of basis index u.
	Freq(u int) float64
	// CosCoeffs computes a[u] = Σ_m x[m]·cos(πu(m+1/2)/M), u = 0..M-1.
	CosCoeffs(x, out []float64)
	// EvalCos evaluates y[m] = Σ_u a[u]·cos(πu(m+1/2)/M).
	EvalCos(a, out []float64)
	// EvalSin evaluates y[m] = Σ_u c[u]·sin(πu(m+1/2)/M); the u = 0 term
	// contributes nothing.
	EvalSin(c, out []float64)
	// CloneTransform returns an instance sharing the immutable plan with
	// its own scratch, safe to run concurrently with the original.
	CloneTransform() Transform
}

var _ Transform = (*RealPlan)(nil)

// RealPlan computes the density solver's three real transforms of size M
// (a power of two ≥ 2) through a single complex FFT of size M/2, instead
// of the reference's complex FFT of size 2M over the mirror extension. Two
// standard identities make that possible, with every pre/post twiddle
// fused into the pack/unpack loops so no intermediate pass over a length-2M
// buffer ever happens:
//
//   - Makhoul's permutation: reordering the input as v = [x0, x2, …, x3,
//     x1] turns the DCT-II into the real part of a phase-twisted DFT of
//     size M: a[u] = Re(e^{-iπu/(2M)}·DFT_M(v)[u]).
//   - Real-input packing: the size-M DFT of the real sequence v is
//     recovered from the size-M/2 complex FFT of z[k] = v[2k] + i·v[2k+1]
//     by the conjugate-symmetric unpack butterfly.
//
// The synthesis directions invert both steps (a Hermitian spectrum is
// rebuilt from the coefficients, collapsed to a half-size complex inverse
// FFT, and de-permuted), and the sine evaluation reuses the cosine path
// through the reversal identity sin(uθ_m) = (-1)^m·cos((M-u)θ_m).
//
// A RealPlan carries private scratch, so one instance is
// not safe for concurrent use; Clone shares the plan and twiddle tables
// (immutable after construction) with fresh scratch.
type RealPlan struct {
	m    int
	half *Plan        // complex plan of size M/2
	buf  []complex128 // scratch, length M/2

	// Fused twiddle tables, length M/2+1:
	//	pa[u] = exp(-iπu/(2M))            (DCT-II output twiddle)
	//	pb[u] = pa[u]·exp(-2πiu/M)        (DCT twiddle × unpack twiddle)
	//	tw[u] = exp(-2πiu/M)              (real-FFT unpack twiddle)
	pa, pb, tw []complex128
}

// NewRealPlan creates the fused real-transform set for size m, which must
// be a power of two and at least 2.
func NewRealPlan(m int) *RealPlan {
	if m < 2 || m&(m-1) != 0 {
		panic(fmt.Sprintf("fft: real plan size %d is not a power of two >= 2", m))
	}
	h := m / 2
	p := &RealPlan{
		m:    m,
		half: NewPlan(h),
		buf:  make([]complex128, h),
		pa:   make([]complex128, h+1),
		pb:   make([]complex128, h+1),
		tw:   make([]complex128, h+1),
	}
	for u := 0; u <= h; u++ {
		aAng := -math.Pi * float64(u) / float64(2*m)
		tAng := -2 * math.Pi * float64(u) / float64(m)
		p.pa[u] = complex(math.Cos(aAng), math.Sin(aAng))
		p.tw[u] = complex(math.Cos(tAng), math.Sin(tAng))
		p.pb[u] = p.pa[u] * p.tw[u]
	}
	return p
}

// Size returns M.
func (p *RealPlan) Size() int { return p.m }

// Freq returns the spatial frequency k_u = πu/M of basis index u.
func (p *RealPlan) Freq(u int) float64 {
	return math.Pi * float64(u) / float64(p.m)
}

// Clone returns a new RealPlan sharing p's precomputed half-size plan and
// twiddle tables (immutable after construction) with its own scratch, so
// the clone and the original can run transforms concurrently. Cloning
// costs one M/2-complex allocation and no trigonometry.
func (p *RealPlan) Clone() *RealPlan {
	return &RealPlan{
		m:    p.m,
		half: p.half,
		buf:  make([]complex128, p.m/2),
		pa:   p.pa,
		pb:   p.pb,
		tw:   p.tw,
	}
}

// CloneTransform implements Transform.
func (p *RealPlan) CloneTransform() Transform { return p.Clone() }

func (p *RealPlan) check(in, out []float64) {
	if len(in) != p.m || len(out) != p.m {
		panic(fmt.Sprintf("fft: real plan buffers %d/%d != size %d", len(in), len(out), p.m))
	}
}

// vIndex maps Makhoul-permutation index j to the source index in x:
// v[j] = x[2j] for j < M/2, v[j] = x[2M-2j-1] otherwise.
func (p *RealPlan) vIndex(j int) int {
	if j < p.m/2 {
		return 2 * j
	}
	return 2*p.m - 2*j - 1
}

// CosCoeffs computes the unnormalized DCT-II analysis
//
//	a[u] = Σ_{m=0}^{M-1} x[m]·cos(πu(m+1/2)/M),  u = 0..M-1,
//
// via one complex FFT of size M/2. out must have length M and may not
// alias x.
func (p *RealPlan) CosCoeffs(x, out []float64) {
	p.check(x, out)
	h := p.m / 2

	// Fused permutation + real-input pack: z[k] = v[2k] + i·v[2k+1].
	for k := 0; k < h; k++ {
		p.buf[k] = complex(x[p.vIndex(2*k)], x[p.vIndex(2*k+1)])
	}
	p.half.Forward(p.buf)

	// Unpack V[u] of the real DFT from Z and apply the fused DCT twiddle:
	// with Fe/Fo the even/odd half-spectra, V[u] = Fe[u] + tw[u]·Fo[u] and
	// W = pa[u]·V[u] yields a[u] = Re(W) and, by Hermitian symmetry of V,
	// a[M-u] = Re(pa[M-u]·conj(V[u])) = -Im(W).
	for u := 0; u <= h; u++ {
		zu := p.buf[u%h]
		zr := p.buf[(h-u)%h]
		sum := zu + complex(real(zr), -imag(zr)) // Z[u] + conj(Z[M/2-u])
		dif := zu - complex(real(zr), -imag(zr))
		fe := complex(real(sum)/2, imag(sum)/2)
		fo := complex(imag(dif)/2, -real(dif)/2) // -i·(Z[u]-conj(Z[M/2-u]))/2
		w := p.pa[u]*fe + p.pb[u]*fo
		out[u] = real(w)
		if u > 0 {
			out[p.m-u] = -imag(w)
		}
	}
}

// synth is the shared half-size inverse path behind EvalCos and EvalSin.
// It evaluates y[m] = Σ_u a'[u]·cos(πu(m+1/2)/M) + dc, where a' is the
// coefficient vector read forward (cosine) or index-reversed (sine, per
// the identity sin(uθ_m) = (-1)^m·cos((M-u)θ_m)), and writes the result
// through the inverse Makhoul permutation with the sine sign alternation
// folded into the odd output slots.
func (p *RealPlan) synth(a, out []float64, sine bool) {
	h, m := p.m/2, p.m

	// Rebuild the Hermitian spectrum V[u] = e^{iπu/(2M)}·(a'[u] - i·a'[M-u])
	// (V[0] = a'[0]) and collapse it to the half-size spectrum
	// Z[u] = Fe[u] + i·Fo[u]; buf holds conj(Z) so one forward FFT computes
	// the un-normalized inverse transform.
	vAt := func(u int) complex128 {
		// conj(pa[u]) = e^{iπu/(2M)}; a'[u] = a[u] or reversed for sine.
		var re, im float64
		if sine {
			if u == 0 {
				return 0
			}
			re, im = a[m-u], -a[u]
		} else {
			if u == 0 {
				return complex(a[0], 0)
			}
			re, im = a[u], -a[m-u]
		}
		q := p.pa[u]
		// conj(q) · (re + i·im)
		return complex(real(q)*re+imag(q)*im, real(q)*im-imag(q)*re)
	}
	for u := 0; u < h; u++ {
		vu := vAt(u)
		vr := vAt(h - u)
		cvr := complex(real(vr), -imag(vr)) // conj(V[M/2-u])
		fe := (vu + cvr) / 2
		d := (vu - cvr) / 2
		// Fo[u] = e^{2πiu/M}·d = conj(tw[u])·d
		t := p.tw[u]
		fo := complex(real(t)*real(d)+imag(t)*imag(d), real(t)*imag(d)-imag(t)*real(d))
		// store conj(Z[u]) = conj(Fe[u] + i·Fo[u])
		z := fe + complex(-imag(fo), real(fo))
		p.buf[u] = complex(real(z), -imag(z))
	}
	p.half.Forward(p.buf)

	// De-permute: conj(buf[k]) carries w[2k] (real) and w[2k+1] (imag) of
	// the inverse real FFT; output index j maps w[n] to y[2n] for n < M/2
	// and to y[2M-2n-1] otherwise. The scaling works out to exactly 1 (the
	// M/2 synthesis factor cancels the FFT's missing 1/(M/2)), leaving
	// only the a'[0]/2 DC half-term of the plain (un-halved) cosine sum.
	dc := 0.0
	if !sine {
		dc = a[0] / 2
	}
	for k := 0; k < h; k++ {
		re := real(p.buf[k])
		im := -imag(p.buf[k])
		n := 2 * k
		if n < h {
			out[2*n] = re + dc
		} else if sine {
			out[2*m-2*n-1] = -re
		} else {
			out[2*m-2*n-1] = re + dc
		}
		n = 2*k + 1
		if n < h {
			out[2*n] = im + dc
		} else if sine {
			out[2*m-2*n-1] = -im
		} else {
			out[2*m-2*n-1] = im + dc
		}
	}
}

// EvalCos evaluates the cosine series
//
//	y[m] = Σ_{u=0}^{M-1} a[u]·cos(πu(m+1/2)/M)
//
// via one complex FFT of size M/2. out must have length M and may not
// alias a.
func (p *RealPlan) EvalCos(a, out []float64) {
	p.check(a, out)
	p.synth(a, out, false)
}

// EvalSin evaluates the sine series
//
//	y[m] = Σ_{u=0}^{M-1} c[u]·sin(πu(m+1/2)/M)
//
// via one complex FFT of size M/2. The u = 0 term contributes nothing.
// out must have length M and may not alias c.
func (p *RealPlan) EvalSin(c, out []float64) {
	p.check(c, out)
	p.synth(c, out, true)
}
