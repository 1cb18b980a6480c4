// Package fft implements the spectral transforms behind the electrostatic
// density model of the placement engine (paper Eqs. 4–6).
//
// The density grid is expanded in a half-sample cosine basis
//
//	ρ[m] ≈ Σ_u a[u]·cos(k_u·(m+1/2)),  k_u = πu/M,
//
// which corresponds to Neumann (zero-flux) boundary conditions at the chip
// edges: charge does not push across the placement boundary. The package
// provides the three one-dimensional primitives the 2-D Poisson solver
// needs — the forward cosine analysis (a DCT-II), cosine evaluation for the
// potential, and sine evaluation for the electric field — through RealPlan,
// O(M log M) on a radix-2 complex FFT of size M/2. The mirror-extension
// reference engine lives in fft/fftref, which only tests import.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan holds precomputed twiddle factors and the bit-reversal permutation
// for complex FFTs of a fixed power-of-two size. After construction a Plan
// is immutable — Forward/Inverse only read it and work in place on the
// caller's buffer — so one Plan may be shared by any number of concurrent
// transforms as long as each goroutine owns its data buffer. RealPlan
// wraps a Plan together with per-instance scratch; its CloneTransform fans
// one precomputed Plan out across workers.
type Plan struct {
	n       int
	logn    int
	rev     []int
	twiddle []complex128 // twiddle[k] = exp(-2πi k / n), k < n/2
}

// NewPlan creates a plan for complex FFTs of size n, which must be a power
// of two and at least 1.
func NewPlan(n int) *Plan {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: size %d is not a positive power of two", n))
	}
	p := &Plan{n: n, logn: bits.TrailingZeros(uint(n))}
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - p.logn))
	}
	p.twiddle = make([]complex128, n/2)
	for k := range p.twiddle {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return p
}

// Size returns the transform size of the plan.
func (p *Plan) Size() int { return p.n }

// Forward computes the in-place forward DFT:
//
//	X[u] = Σ_m x[m]·exp(-2πi·u·m/n).
func (p *Plan) Forward(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: data length %d != plan size %d", len(x), p.n))
	}
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[tw]
				tw += step
				t := w * x[k+half]
				x[k+half] = x[k] - t
				x[k] = x[k] + t
			}
		}
	}
}

// Inverse computes the in-place inverse DFT with 1/n normalization:
//
//	x[m] = (1/n)·Σ_u X[u]·exp(+2πi·u·m/n).
func (p *Plan) Inverse(x []complex128) {
	for i := range x {
		x[i] = complex(real(x[i]), -imag(x[i]))
	}
	p.Forward(x)
	inv := 1 / float64(p.n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, -imag(x[i])*inv)
	}
}
