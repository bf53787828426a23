package conv

import (
	"testing"

	"gpucnn/internal/tensor"
)

// benchConfigs are the paper's Conv1–Conv5 shapes at Batch=1, matching
// the alloc tests; per-op FLOP counts make runs comparable across batch
// sizes.
func benchTensors(cfg Config) (x, w, y *tensor.Tensor) {
	x = tensor.New(cfg.InputShape()...)
	w = tensor.New(cfg.FilterShape()...)
	y = tensor.New(cfg.OutputShape()...)
	for i := range x.Data {
		x.Data[i] = float32(i%7) - 3
	}
	for i := range w.Data {
		w.Data[i] = float32(i%5) - 2
	}
	return
}

// BenchmarkConvForward measures the arena-backed unrolling engine on
// the paper's Table I layers.
func BenchmarkConvForward(b *testing.B) {
	for _, tc := range tableIConfigs {
		x, w, y := benchTensors(tc.cfg)
		b.Run("unroll/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				UnrollForward(tc.cfg, x, w, y)
			}
			b.ReportMetric(tc.cfg.ForwardFLOPs()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			b.ReportAllocs()
		})
	}
	small := Config{Batch: 1, Input: 32, Channels: 16, Filters: 16, Kernel: 3, Stride: 1, Pad: 1}
	x, w, y := benchTensors(small)
	b.Run("fft/small3x3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FFTForward(small, x, w, y)
		}
		b.ReportAllocs()
	})
	b.Run("winograd/small3x3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			WinogradForward(small, x, w, y)
		}
		b.ReportMetric(small.ForwardFLOPs()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		b.ReportAllocs()
	})
}

// cifarNetConvs are CIFARNet's three 5×5 conv layers at the batch-16
// training shape the cifarnet_train_fbfft benchmark workload runs;
// their FFT plan sizes are 64, 32 and 16.
var cifarNetConvs = []struct {
	name string
	cfg  Config
}{
	{"conv1", Config{Batch: 16, Input: 32, Channels: 3, Filters: 32, Kernel: 5, Stride: 1, Pad: 2}},
	{"conv2", Config{Batch: 16, Input: 16, Channels: 32, Filters: 32, Kernel: 5, Stride: 1, Pad: 2}},
	{"conv3", Config{Batch: 16, Input: 8, Channels: 32, Filters: 64, Kernel: 5, Stride: 1, Pad: 2}},
}

// BenchmarkConvFFT measures each FFT-convolution pass on the CIFARNet
// layers; GFLOPS is the direct-convolution FLOP count per second, so
// the three passes of one layer are comparable with each other and
// with the other engines.
func BenchmarkConvFFT(b *testing.B) {
	passes := []struct {
		name string
		run  func(cfg Config, x, w, y, dx, dw, dy *tensor.Tensor)
	}{
		{"fwd", func(cfg Config, x, w, y, _, _, _ *tensor.Tensor) { FFTForward(cfg, x, w, y) }},
		{"bwd_data", func(cfg Config, _, w, _, dx, _, dy *tensor.Tensor) { FFTBackwardData(cfg, dy, w, dx) }},
		{"bwd_filter", func(cfg Config, x, _, _, _, dw, dy *tensor.Tensor) { FFTBackwardFilter(cfg, x, dy, dw) }},
	}
	for _, pass := range passes {
		for _, tc := range cifarNetConvs {
			x, w, y, dx, dw, dy := allocTensors(tc.cfg)
			b.Run(pass.name+"/"+tc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pass.run(tc.cfg, x, w, y, dx, dw, dy)
				}
				b.ReportMetric(tc.cfg.ForwardFLOPs()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}
