package nn

import (
	"fmt"
	"testing"

	"gpucnn/internal/tensor"
)

// BenchmarkLayer times single layers on the host, with no device
// attached: LRN forward and backward on AlexNet's norm1 and norm2 at
// batch 1, and FC forward on fc6–fc8 at batch 1 plus fc6 at batches 4,
// 8 and 16, which straddle ParallelNT's skinny-m rule. Each row reports
// the bytes the layer must stream (input, weights or scale, output) as
// GB/s.
func BenchmarkLayer(b *testing.B) {
	for _, tc := range []struct {
		name    string
		c, h, w int
	}{{"norm1", 96, 55, 55}, {"norm2", 256, 27, 27}} {
		l := NewLRN(tc.name, 5, 0, 0, 0)
		x, dy := benchInput(1, tc.c, tc.h, tc.w), benchInput(1, tc.c, tc.h, tc.w)
		ctx := NewContext(nil, true)
		xv, dyv := NewValue(x), NewValue(dy)
		// Forward reads x and writes y and scale; backward reads x, dy
		// and scale and writes dx.
		bytes := 4 * float64(x.Len())
		b.Run("lrn_fwd/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Forward(ctx, xv)
			}
			b.ReportMetric(3*bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
		b.Run("lrn_bwd/"+tc.name, func(b *testing.B) {
			l.Forward(ctx, xv)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Backward(ctx, dyv)
			}
			b.ReportMetric(4*bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
	for _, tc := range []struct {
		name         string
		batch, in, o int
	}{
		{"fc6", 1, 9216, 4096}, {"fc7", 1, 4096, 4096}, {"fc8", 1, 4096, 1000},
		{"fc6", 4, 9216, 4096}, {"fc6", 8, 9216, 4096}, {"fc6", 16, 9216, 4096},
	} {
		l := NewFC(tc.name, tc.o)
		xv := NewValue(benchInput(tc.batch, tc.in))
		ctx := NewContext(nil, false)
		l.Forward(ctx, xv)
		bytes := 4 * float64(tc.o*tc.in+tc.batch*(tc.in+tc.o))
		b.Run(fmt.Sprintf("fc_fwd/%s_m%d", tc.name, tc.batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Forward(ctx, xv)
			}
			b.ReportMetric(bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}

// benchInput is a deterministic tensor of the given shape with values
// in [-1, 1].
func benchInput(dims ...int) *tensor.Tensor {
	t := tensor.New(dims...)
	t.FillUniform(tensor.NewRNG(uint64(len(t.Data))), -1, 1)
	return t
}
