package gpucnn

import (
	"testing"

	"gpucnn/internal/bench"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/models"
	"gpucnn/internal/nn"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workload"
)

// One testing.B benchmark per table/figure of the paper. Each
// benchmark regenerates its experiment once per iteration; custom
// metrics expose the headline quantity of the corresponding figure
// (simulated milliseconds, shares, megabytes), so `go test -bench=.`
// doubles as the reproduction run.

// BenchmarkFigure2ModelBreakdown regenerates Figure 2 and reports each
// model's convolution share.
func BenchmarkFigure2ModelBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		breakdowns := bench.Figure2()
		if i == 0 {
			for _, mb := range breakdowns {
				b.ReportMetric(mb.ConvShare*100, mb.Model+"_conv_%")
			}
		}
	}
}

func benchSweep(b *testing.B, sweep string) {
	for i := 0; i < b.N; i++ {
		rows := bench.Figure3(sweep)
		if i == 0 {
			// Report the base-row fbfft and cuDNN times as the
			// figure's headline series points.
			for _, row := range rows {
				if row.Value == workload.SweptValue(sweep, workload.Base()) {
					if c, ok := row.CellFor("fbfft"); ok && c.Ok() {
						b.ReportMetric(float64(c.Time.Microseconds())/1000, "fbfft_ms")
					}
					if c, ok := row.CellFor("cuDNN"); ok && c.Ok() {
						b.ReportMetric(float64(c.Time.Microseconds())/1000, "cuDNN_ms")
					}
				}
			}
		}
	}
}

// BenchmarkFigure3aBatchSweep regenerates Figure 3(a).
func BenchmarkFigure3aBatchSweep(b *testing.B) { benchSweep(b, "batch") }

// BenchmarkFigure3bInputSweep regenerates Figure 3(b).
func BenchmarkFigure3bInputSweep(b *testing.B) { benchSweep(b, "input") }

// BenchmarkFigure3cFilterSweep regenerates Figure 3(c).
func BenchmarkFigure3cFilterSweep(b *testing.B) { benchSweep(b, "filter") }

// BenchmarkFigure3dKernelSweep regenerates Figure 3(d).
func BenchmarkFigure3dKernelSweep(b *testing.B) { benchSweep(b, "kernel") }

// BenchmarkFigure3eStrideSweep regenerates Figure 3(e).
func BenchmarkFigure3eStrideSweep(b *testing.B) { benchSweep(b, "stride") }

// BenchmarkFigure4HotspotKernels regenerates Figure 4 and reports the
// unrolling implementations' GEMM shares.
func BenchmarkFigure4HotspotKernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		shares := bench.Figure4()
		if i == 0 {
			for _, name := range []string{"Caffe", "Torch-cunn", "Theano-CorrMM"} {
				b.ReportMetric(bench.GEMMShare(shares[name])*100, name+"_gemm_%")
			}
		}
	}
}

// BenchmarkFigure5MemoryUsage regenerates Figure 5 (batch panel) and
// reports the extreme peak-memory values.
func BenchmarkFigure5MemoryUsage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Figure3("batch")
		if i == 0 {
			last := rows[len(rows)-1]
			if c, ok := last.CellFor("fbfft"); ok && c.Ok() {
				b.ReportMetric(float64(c.PeakBytes>>20), "fbfft_peak_MB")
			}
			if c, ok := last.CellFor("cuda-convnet2"); ok && c.Ok() {
				b.ReportMetric(float64(c.PeakBytes>>20), "cc2_peak_MB")
			}
		}
	}
}

// BenchmarkFigure6GPUMetrics regenerates Figure 6 and reports the two
// occupancy extremes the paper highlights.
func BenchmarkFigure6GPUMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Figure6()
		if i == 0 {
			for _, r := range rows {
				if r.Config != "Conv1" || !r.Cell.Ok() {
					continue
				}
				switch r.Impl {
				case "cuda-convnet2", "Theano-fft":
					b.ReportMetric(r.Cell.Metrics.AchievedOccupancy*100, r.Impl+"_occ_%")
				}
			}
		}
	}
}

// BenchmarkFigure7TransferOverhead regenerates Figure 7 and reports
// Theano-CorrMM's Conv2 spike.
func BenchmarkFigure7TransferOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Figure7()
		if i == 0 {
			for _, r := range rows {
				if r.Impl == "Theano-CorrMM" && r.Config == "Conv2" && r.Ok {
					b.ReportMetric(r.Share*100, "corrMM_conv2_transfer_%")
				}
			}
		}
	}
}

// BenchmarkTableIIResourceUsage regenerates Table II.
func BenchmarkTableIIResourceUsage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.TableII()
		if i == 0 && len(rows) != 7 {
			b.Fatalf("Table II has %d rows", len(rows))
		}
	}
}

// BenchmarkSingleIterationPerEngine times one simulated training
// iteration of the base configuration per engine — the cost of driving
// the simulator itself (host-side), not the simulated GPU time.
func BenchmarkSingleIterationPerEngine(b *testing.B) {
	for _, e := range impls.All() {
		e := e
		b.Run(e.Name(), func(b *testing.B) {
			dev := gpusim.New(gpusim.TeslaK40c())
			plan, err := e.Plan(dev, workload.Base())
			if err != nil {
				b.Fatal(err)
			}
			defer plan.Release()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := plan.Iteration(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRealConvolutionForward measures the host-side arithmetic
// throughput of the three strategies' actual compute paths on a small
// configuration — the functional layer under the simulation.
func BenchmarkRealConvolutionForward(b *testing.B) {
	cfg := Config{Batch: 8, Input: 32, Channels: 8, Filters: 16, Kernel: 5, Stride: 1}
	x, w := workload.SyntheticTensors(cfg, 1)
	y := tensor.New(cfg.OutputShape()...)
	for _, e := range impls.All() {
		e := e
		b.Run(e.Name(), func(b *testing.B) {
			if err := e.Supports(cfg); err != nil {
				b.Skip(err)
			}
			dev := gpusim.New(gpusim.TeslaK40c())
			plan, err := e.Plan(dev, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer plan.Release()
			b.SetBytes(cfg.InputBytes() + cfg.FilterBytes() + cfg.OutputBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := plan.Forward(x, w, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLeNetTrainStep measures a real end-to-end training step.
func BenchmarkLeNetTrainStep(b *testing.B) {
	m := models.LeNet5(impls.NewCuDNN())
	dev := gpusim.New(gpusim.TeslaK40c())
	ctx := nn.NewContext(dev, true)
	opt := nn.NewSGD(0.03, 0.9, 0)
	x, labels := workload.SyntheticBatch(16, 1, 28, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Net.TrainStep(ctx, x, labels)
		opt.Step(m.Net.Params())
	}
	b.StopTimer()
	m.Net.Release()
}
