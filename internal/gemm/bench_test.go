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

// BenchmarkGEMM sweeps the packed serial kernel over square sizes.
func BenchmarkGEMM(bm *testing.B) {
	for _, s := range []int{64, 128, 256, 512} {
		a, b, c := benchMatrices(s, s, s)
		bm.Run(fmt.Sprintf("packed/%d", s), func(bm *testing.B) {
			var ws workspace.Arena
			for i := 0; i < bm.N; i++ {
				ws.Reset()
				Blocked(&ws, 1, a, b, 0, c, s, s, s)
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
			Blocked(&ws, 1, a, b, 0, c, m, n, k)
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
