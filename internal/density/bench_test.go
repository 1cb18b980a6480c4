package density

import (
	"testing"

	"puffer/internal/fft"
	"puffer/internal/geom"
)

// The DensitySolveOld/New pairs isolate the spectral solve — the kernel the
// real-input refactor targets — at the two production-relevant grid sizes.
// "Old" is the complex mirror-extension reference (fftref.Spectral), "New" the
// fused real-input engine (fft.RealPlan). CI feeds both through
// cmd/benchjson -ratio into BENCH_density.json. AddRect (not DepositRects)
// charges the grid so the solve-skip fingerprint never arms and every
// iteration runs the full pipeline.
func benchSolve(b *testing.B, m int, transform func(int) fft.Transform) {
	side := float64(m)
	g := newGrid(geom.RectWH(0, 0, side, side), m, m, transform)
	g.AddRect(geom.RectWH(side/4, side/4, side/3, side/3), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Solve()
	}
}

func BenchmarkDensitySolveOld256(b *testing.B) { benchSolve(b, 256, reference) }
func BenchmarkDensitySolveNew256(b *testing.B) { benchSolve(b, 256, realPlan) }
func BenchmarkDensitySolveOld512(b *testing.B) { benchSolve(b, 512, reference) }
func BenchmarkDensitySolveNew512(b *testing.B) { benchSolve(b, 512, realPlan) }
