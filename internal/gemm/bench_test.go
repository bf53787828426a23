package gemm

import (
	"fmt"
	"testing"

	"gpucnn/internal/workspace"
)

func benchMatrices(m, n, k int) (a, b, c []float32) {
	a = make([]float32, m*k)
	b = make([]float32, k*n)
	c = make([]float32, m*n)
	for i := range a {
		a[i] = float32(i%13) - 6
	}
	for i := range b {
		b[i] = float32(i%7) - 3
	}
	return a, b, c
}

// BenchmarkBlockedGEMM compares the legacy cache-blocked kernel against
// the packed register-tiled kernel at the acceptance size (256³). The
// "legacy" sub-benchmark is the pre-PR Blocked implementation.
func BenchmarkBlockedGEMM(bm *testing.B) {
	const m, n, k = 256, 256, 256
	a, b, c := benchMatrices(m, n, k)
	bm.Run("legacy", func(bm *testing.B) {
		bm.SetBytes(int64(4 * (m*k + k*n + m*n)))
		for i := 0; i < bm.N; i++ {
			blockedLegacy(1, a, b, 0, c, m, n, k)
		}
		bm.ReportMetric(FLOPs(m, n, k)*float64(bm.N)/bm.Elapsed().Seconds()/1e9, "GFLOPS")
	})
	bm.Run("packed", func(bm *testing.B) {
		bm.SetBytes(int64(4 * (m*k + k*n + m*n)))
		var ws workspace.Arena
		for i := 0; i < bm.N; i++ {
			ws.Reset()
			Packed(&ws, 1, a, b, 0, c, m, n, k)
		}
		bm.ReportMetric(FLOPs(m, n, k)*float64(bm.N)/bm.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

// BenchmarkGEMM sweeps the packed serial kernel over square sizes.
func BenchmarkGEMM(bm *testing.B) {
	for _, s := range []int{64, 128, 256, 512} {
		a, b, c := benchMatrices(s, s, s)
		bm.Run(fmt.Sprintf("packed/%d", s), func(bm *testing.B) {
			var ws workspace.Arena
			for i := 0; i < bm.N; i++ {
				ws.Reset()
				Packed(&ws, 1, a, b, 0, c, s, s, s)
			}
			bm.ReportMetric(FLOPs(s, s, s)*float64(bm.N)/bm.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
	for _, s := range []int{256, 512} {
		a, b, c := benchMatrices(s, s, s)
		bm.Run(fmt.Sprintf("parallel/%d", s), func(bm *testing.B) {
			var ws workspace.Arena
			for i := 0; i < bm.N; i++ {
				ws.Reset()
				ParallelIn(&ws, 1, a, b, 0, c, s, s, s)
			}
			bm.ReportMetric(FLOPs(s, s, s)*float64(bm.N)/bm.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkGEMMFused compares the materialised im2col-shaped virtual-B
// path against the plain packed kernel at the same shape: the delta is
// the cost (or win) of generating B panels through the fusion seam.
func BenchmarkGEMMFused(bm *testing.B) {
	const m, n, k = 64, 1024, 576 // a Conv-ish f×o²×ck² shape
	a, b, c := benchMatrices(m, n, k)
	bm.Run("materialized", func(bm *testing.B) {
		var ws workspace.Arena
		for i := 0; i < bm.N; i++ {
			ws.Reset()
			Packed(&ws, 1, a, b, 0, c, m, n, k)
		}
		bm.ReportMetric(FLOPs(m, n, k)*float64(bm.N)/bm.Elapsed().Seconds()/1e9, "GFLOPS")
	})
	bm.Run("virtualB", func(bm *testing.B) {
		vb := materializedB(b, n)
		var ws workspace.Arena
		for i := 0; i < bm.N; i++ {
			ws.Reset()
			BlockedVirtualB(&ws, 1, a, vb, 0, c, m, n, k)
		}
		bm.ReportMetric(FLOPs(m, n, k)*float64(bm.N)/bm.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

// BenchmarkCGEMM compares the naive and planar-packed complex kernels.
func BenchmarkCGEMM(bm *testing.B) {
	const m, n, k = 128, 128, 128
	a := make([]complex64, m*k)
	b := make([]complex64, k*n)
	c := make([]complex64, m*n)
	for i := range a {
		a[i] = complex(float32(i%5)-2, float32(i%3)-1)
	}
	for i := range b {
		b[i] = complex(float32(i%7)-3, float32(i%4)-2)
	}
	bm.Run("naive", func(bm *testing.B) {
		for i := 0; i < bm.N; i++ {
			CNaive(1, a, b, 0, c, m, n, k)
		}
		bm.ReportMetric(CFLOPs(m, n, k)*float64(bm.N)/bm.Elapsed().Seconds()/1e9, "GFLOPS")
	})
	bm.Run("packed", func(bm *testing.B) {
		var ws workspace.Arena
		for i := 0; i < bm.N; i++ {
			ws.Reset()
			CPacked(&ws, 1, a, b, 0, c, m, n, k)
		}
		bm.ReportMetric(CFLOPs(m, n, k)*float64(bm.N)/bm.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}
