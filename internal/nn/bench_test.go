package nn

import (
	"fmt"
	"testing"

	"gpucnn/internal/tensor"
)

// BenchmarkLayer times single layers on the host, with no device
// attached: LRN forward and backward on AlexNet's norm1 and norm2 at
// batch 1; FC forward on fc6–fc8 at batch 1 plus fc6 at batches 4, 8
// and 16, which straddle ParallelNT's skinny-m rule; pooling forward
// and backward on AlexNet's pool1 at batch 1 and CIFARNet's pool1–3 at
// batch 32; and ReLU forward and backward on CIFARNet's conv1–3
// outputs at batch 32. Each row reports the bytes the layer must
// stream (input, weights or scale, output, gradients) as GB/s.
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
		xv := NewValue(benchInput(tc.batch, tc.in))
		ctx := NewContext(nil, false)
		bytes := 4 * float64(tc.o*tc.in+tc.batch*(tc.in+tc.o))
		var l *FC // built on the row's first run, so a -bench filter that skips it skips its weights
		b.Run(fmt.Sprintf("fc_fwd/%s_m%d", tc.name, tc.batch), func(b *testing.B) {
			if l == nil {
				l = NewFC(tc.name, tc.o)
				l.Forward(ctx, xv)
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				l.Forward(ctx, xv)
			}
			b.ReportMetric(bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
	benchPool(b, "alexnet_pool1_b1", NewMaxPool("pool1", 3, 2, 0), 1, 96, 55, 55)
	benchPool(b, "cifarnet_pool1_b32", NewMaxPool("pool1", 3, 2, 0), 32, 32, 32, 32)
	benchPool(b, "cifarnet_pool2_b32", NewAvgPool("pool2", 3, 2, 0), 32, 32, 16, 16)
	benchPool(b, "cifarnet_pool3_b32", NewAvgPool("pool3", 3, 2, 0), 32, 64, 8, 8)
	for _, tc := range []struct {
		name    string
		c, h, w int
	}{{"cifarnet_conv1_b32", 32, 32, 32}, {"cifarnet_conv2_b32", 32, 16, 16}, {"cifarnet_conv3_b32", 64, 8, 8}} {
		l := NewReLU(tc.name)
		xv, dyv := NewValue(benchInput(32, tc.c, tc.h, tc.w)), NewValue(benchInput(32, tc.c, tc.h, tc.w))
		ctx := NewContext(nil, true)
		// Forward reads x and writes y; backward reads x and dy and
		// writes dx.
		bytes := 4 * float64(xv.Elems())
		b.Run("relu_fwd/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Forward(ctx, xv)
			}
			b.ReportMetric(2*bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
		b.Run("relu_bwd/"+tc.name, func(b *testing.B) {
			l.Forward(ctx, xv)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Backward(ctx, dyv)
			}
			b.ReportMetric(3*bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}

// benchPool runs the pool_fwd and pool_bwd rows for layer l on an
// n×c×h×w input. Forward reads x and writes y; max backward reads x, y
// and dy and writes dx, average backward reads dy and writes dx.
func benchPool(b *testing.B, row string, l *Pool, n, c, h, w int) {
	xv := NewValue(benchInput(n, c, h, w))
	ctx := NewContext(nil, true)
	y := l.Forward(ctx, xv)
	dyv := NewValue(benchInput(y.Shape...))
	in, out := 4*float64(xv.Elems()), 4*float64(y.Elems())
	b.Run("pool_fwd/"+row, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.Forward(ctx, xv)
		}
		b.ReportMetric((in+out)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
	})
	bwd := in + out
	if l.Mode == MaxPool {
		bwd *= 2
	}
	b.Run("pool_bwd/"+row, func(b *testing.B) {
		l.Forward(ctx, xv)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Backward(ctx, dyv)
		}
		b.ReportMetric(bwd*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
	})
}

// benchInput is a deterministic tensor of the given shape with values
// in [-1, 1].
func benchInput(dims ...int) *tensor.Tensor {
	t := tensor.New(dims...)
	t.FillUniform(tensor.NewRNG(uint64(len(t.Data))), -1, 1)
	return t
}
