package conv

import (
	"fmt"
	"testing"

	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
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
			var ws workspace.Arena
			for i := 0; i < b.N; i++ {
				UnrollForward(&ws, tc.cfg, x, w, y)
			}
			b.ReportMetric(tc.cfg.ForwardFLOPs()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			b.ReportAllocs()
		})
	}
	small := Config{Batch: 1, Input: 32, Channels: 16, Filters: 16, Kernel: 3, Stride: 1, Pad: 1}
	x, w, y := benchTensors(small)
	var ws workspace.Arena
	b.Run("fft/small3x3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FFTForward(&ws, small, x, w, y)
		}
		b.ReportAllocs()
	})
	b.Run("winograd/small3x3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			WinogradForward(&ws, small, x, w, y)
		}
		b.ReportMetric(small.ForwardFLOPs()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		b.ReportAllocs()
	})
}

// namedConv is one benchmarked layer shape.
type namedConv struct {
	name string
	cfg  Config
}

// cifarNetConvs are CIFARNet's three 5×5 conv layers at the batch-16
// training shape the cifarnet_train_fbfft benchmark workload runs;
// their FFT plan sizes are 64, 32 and 16.
var cifarNetConvs = []namedConv{
	{"conv1", Config{Batch: 16, Input: 32, Channels: 3, Filters: 32, Kernel: 5, Stride: 1, Pad: 2}},
	{"conv2", Config{Batch: 16, Input: 16, Channels: 32, Filters: 32, Kernel: 5, Stride: 1, Pad: 2}},
	{"conv3", Config{Batch: 16, Input: 8, Channels: 32, Filters: 64, Kernel: 5, Stride: 1, Pad: 2}},
}

// alexNetConvs are AlexNet's 3×3 conv3–conv5 layers at batch 1, the
// inference shape the alexnet_infer_autotuned benchmark workload runs;
// all three are Winograd-eligible.
var alexNetConvs = []namedConv{
	{"alexnet_conv3", Config{Batch: 1, Input: 13, Channels: 256, Filters: 384, Kernel: 3, Stride: 1, Pad: 1}},
	{"alexnet_conv4", Config{Batch: 1, Input: 13, Channels: 384, Filters: 384, Kernel: 3, Stride: 1, Pad: 1}},
	{"alexnet_conv5", Config{Batch: 1, Input: 13, Channels: 384, Filters: 256, Kernel: 3, Stride: 1, Pad: 1}},
}

// alexNetUnrollConvs are AlexNet's conv1 and conv2 at batch 1, which
// the planner runs on the unrolling engine in the alexnet_infer_autotuned
// benchmark workload. They are kept apart from alexNetConvs because
// neither is Winograd-eligible (11×11 stride 4, and 5×5).
var alexNetUnrollConvs = []namedConv{
	{"alexnet_conv1", Config{Batch: 1, Input: 227, Channels: 3, Filters: 96, Kernel: 11, Stride: 4}},
	{"alexnet_conv2", Config{Batch: 1, Input: 27, Channels: 96, Filters: 256, Kernel: 5, Stride: 1, Pad: 2}},
}

// convPass is one pass of one engine in the per-pass benchmarks.
type convPass struct {
	name string
	run  func(ws *workspace.Arena, cfg Config, x, w, y, dx, dw, dy *tensor.Tensor)
}

var (
	fftPasses = []convPass{
		{"fwd", func(ws *workspace.Arena, cfg Config, x, w, y, _, _, _ *tensor.Tensor) { FFTForward(ws, cfg, x, w, y) }},
		{"bwd_data", func(ws *workspace.Arena, cfg Config, _, w, _, dx, _, dy *tensor.Tensor) {
			FFTBackwardData(ws, cfg, dy, w, dx)
		}},
		{"bwd_filter", func(ws *workspace.Arena, cfg Config, x, _, _, _, dw, dy *tensor.Tensor) {
			FFTBackwardFilter(ws, cfg, x, dy, dw)
		}},
	}
	unrollPasses = []convPass{
		{"fwd", func(ws *workspace.Arena, cfg Config, x, w, y, _, _, _ *tensor.Tensor) {
			UnrollForward(ws, cfg, x, w, y)
		}},
		{"bwd_data", func(ws *workspace.Arena, cfg Config, _, w, _, dx, _, dy *tensor.Tensor) {
			UnrollBackwardData(ws, cfg, dy, w, dx)
		}},
		{"bwd_filter", func(ws *workspace.Arena, cfg Config, x, _, _, _, dw, dy *tensor.Tensor) {
			UnrollBackwardFilter(ws, cfg, x, dy, dw)
		}},
	}
	// Winograd has no backward-filter pass of its own.
	winogradPasses = []convPass{
		{"fwd", func(ws *workspace.Arena, cfg Config, x, w, y, _, _, _ *tensor.Tensor) {
			WinogradForward(ws, cfg, x, w, y)
		}},
		{"bwd_data", func(ws *workspace.Arena, cfg Config, _, w, _, dx, _, dy *tensor.Tensor) {
			WinogradBackwardData(ws, cfg, dy, w, dx)
		}},
	}
)

// benchPasses runs every pass over every layer as a pass/layer
// sub-benchmark; GFLOPS is the direct-convolution FLOP count per
// second, so the passes of one layer are comparable with each other
// and with the other engines.
func benchPasses(b *testing.B, passes []convPass, layers ...[]namedConv) {
	for _, pass := range passes {
		for _, set := range layers {
			for _, tc := range set {
				x, w, y, dx, dw, dy := allocTensors(tc.cfg)
				b.Run(pass.name+"/"+tc.name, func(b *testing.B) {
					b.ReportAllocs()
					var ws workspace.Arena
					for i := 0; i < b.N; i++ {
						pass.run(&ws, tc.cfg, x, w, y, dx, dw, dy)
					}
					b.ReportMetric(tc.cfg.ForwardFLOPs()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
				})
			}
		}
	}
}

// BenchmarkConvFFT measures each FFT-convolution pass on the CIFARNet
// layers.
func BenchmarkConvFFT(b *testing.B) { benchPasses(b, fftPasses, cifarNetConvs) }

// BenchmarkConvUnroll measures each unrolling pass — fused-im2col
// forward, TN backward-data, virtual-B backward-filter — on the
// CIFARNet training layers and the AlexNet inference layers.
func BenchmarkConvUnroll(b *testing.B) {
	benchPasses(b, unrollPasses, cifarNetConvs, alexNetUnrollConvs, alexNetConvs)
}

// BenchmarkConvWinograd measures the Winograd passes on the AlexNet
// inference layers.
func BenchmarkConvWinograd(b *testing.B) { benchPasses(b, winogradPasses, alexNetConvs) }

// BenchmarkCrossoverFFTUnroll times every pass of the FFT and unrolling
// engines at CIFARNet conv2's shape (batch 16, 16×16, 32 channels, 32
// filters) for kernel sizes 3 to 11, padded by (k−1)/2 so the output
// stays 16×16. Every size runs on a 32-point transform, so the FFT rows
// stay nearly flat while the unrolling rows grow with k². It is not in
// the kernel snapshot; EXPERIMENTS.md "Host-clock FFT" reads the
// host-clock crossover from it.
func BenchmarkCrossoverFFTUnroll(b *testing.B) {
	var layers []namedConv
	for _, k := range []int{3, 5, 7, 9, 11} {
		cfg := Config{Batch: 16, Input: 16, Channels: 32, Filters: 32, Kernel: k, Stride: 1, Pad: (k - 1) / 2}
		layers = append(layers, namedConv{fmt.Sprintf("k%d", k), cfg})
	}
	b.Run("fft", func(b *testing.B) { benchPasses(b, fftPasses, layers) })
	b.Run("unroll", func(b *testing.B) { benchPasses(b, unrollPasses, layers) })
}
