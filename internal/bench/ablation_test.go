package bench

import (
	"testing"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/workload"
)

// Ablations of the design choices DESIGN.md calls out: fbfft's
// overlap-add tiling, its transform reuse, Caffe's pinned-prefetch
// transfers, and the cross-architecture sanity of the headline results.

func measureOn(t *testing.T, e impls.Engine, cfg conv.Config, spec gpusim.DeviceSpec) Cell {
	t.Helper()
	cell := Cell{Impl: e.Name(), Cfg: cfg}
	dev := gpusim.New(spec)
	plan, err := e.Plan(dev, cfg)
	if err != nil {
		t.Fatalf("%s: %v", e.Name(), err)
	}
	defer plan.Release()
	if err := plan.Iteration(); err != nil {
		t.Fatalf("%s: %v", e.Name(), err)
	}
	cell.Time = dev.Elapsed()
	cell.PeakBytes = dev.Mem.Peak()
	return cell
}

// TestAblationFbfftTiling: overlap-add tiling is what keeps fbfft
// competitive past input 128 — without it the transform pads to the
// next power of two and both time and memory jump.
func TestAblationFbfftTiling(t *testing.T) {
	cfg := workload.Base()
	cfg.Input = 144 // just past the 128 boundary
	spec := gpusim.TeslaK40c()
	tiled := measureOn(t, impls.NewFbfft(), cfg, spec)
	padded := measureOn(t, impls.NewFbfftVariant(impls.FbfftOptions{DisableTiling: true}), cfg, spec)
	if tiled.Time >= padded.Time {
		t.Errorf("tiling should be faster at i=144: tiled %v vs padded %v", tiled.Time, padded.Time)
	}
	if tiled.PeakBytes >= padded.PeakBytes {
		t.Errorf("tiling should use less memory at i=144: %d vs %d", tiled.PeakBytes, padded.PeakBytes)
	}
	// At i=128 (exact power of two) the two are identical.
	cfg.Input = 128
	a := measureOn(t, impls.NewFbfft(), cfg, spec)
	b := measureOn(t, impls.NewFbfftVariant(impls.FbfftOptions{DisableTiling: true}), cfg, spec)
	if a.Time != b.Time {
		t.Errorf("at i=128 tiling must be a no-op: %v vs %v", a.Time, b.Time)
	}
}

// TestAblationFbfftTransformReuse: reusing the x/dy spectra for the
// weight-gradient pass saves roughly the cost of re-transforming the
// largest grid set.
func TestAblationFbfftTransformReuse(t *testing.T) {
	cfg := workload.Base()
	spec := gpusim.TeslaK40c()
	with := measureOn(t, impls.NewFbfft(), cfg, spec)
	without := measureOn(t, impls.NewFbfftVariant(impls.FbfftOptions{DisableTransformReuse: true}), cfg, spec)
	if with.Time >= without.Time {
		t.Fatalf("transform reuse should be faster: %v vs %v", with.Time, without.Time)
	}
	if saving := 1 - with.Time.Seconds()/without.Time.Seconds(); saving < 0.05 || saving > 0.6 {
		t.Fatalf("reuse saving %.1f%% outside the plausible band", saving*100)
	}
}

// TestAblationPinnedPrefetch: Caffe's hidden transfers vs Theano's
// synchronous pageable staging — the Figure 7 mechanism isolated.
func TestAblationPinnedPrefetch(t *testing.T) {
	// Conv2: the transfer-heaviest Table I configuration.
	cfg := workload.TableI()[1].Cfg
	caffe := Measure(impls.NewCaffe(), cfg)
	corrMM := Measure(impls.NewTheanoCorrMM(), cfg)
	if caffe.TransferShare > 0.001 {
		t.Errorf("Caffe's prefetch should hide transfers, share %.2f%%", caffe.TransferShare*100)
	}
	if corrMM.TransferShare < 0.3 {
		t.Errorf("CorrMM's pageable staging should be visible, share %.2f%%", corrMM.TransferShare*100)
	}
}

// TestCrossArchitectureConclusions: on the Maxwell Titan X the paper's
// comparative conclusions persist (they are strategy-driven, not
// K40c-specific): fbfft still wins big kernels, cuDNN still wins small
// ones, everything is faster than on Kepler.
func TestCrossArchitectureConclusions(t *testing.T) {
	k40, titan := gpusim.TeslaK40c(), gpusim.TitanXMaxwell()
	base := workload.Base()

	fbK40 := measureOn(t, impls.NewFbfft(), base, k40)
	fbTitan := measureOn(t, impls.NewFbfft(), base, titan)
	if fbTitan.Time >= fbK40.Time {
		t.Errorf("Titan X should be faster than K40c: %v vs %v", fbTitan.Time, fbK40.Time)
	}

	cuTitan := measureOn(t, impls.NewCuDNN(), base, titan)
	if fbTitan.Time >= cuTitan.Time {
		t.Errorf("fbfft should still beat cuDNN at k=11 on Maxwell: %v vs %v", fbTitan.Time, cuTitan.Time)
	}
	small := base
	small.Kernel = 3
	if fb, cu := measureOn(t, impls.NewFbfft(), small, titan), measureOn(t, impls.NewCuDNN(), small, titan); cu.Time >= fb.Time {
		t.Errorf("cuDNN should still beat fbfft at k=3 on Maxwell: %v vs %v", cu.Time, fb.Time)
	}
}

// TestMaxwellOccupancyShift: cuda-convnet2's register-bound occupancy
// is identical across the two parts (same 64K register file), but the
// doubled shared-memory pool lifts shared-limited kernels — an
// architecture-specific effect the occupancy calculator exposes.
func TestMaxwellOccupancyShift(t *testing.T) {
	k40, titan := gpusim.TeslaK40c(), gpusim.TitanXMaxwell()
	// Shared-limited: 24 KB/block.
	oK, err := k40.ComputeOccupancy(64, 16, 24*1024)
	if err != nil {
		t.Fatal(err)
	}
	oT, err := titan.ComputeOccupancy(64, 16, 24*1024)
	if err != nil {
		t.Fatal(err)
	}
	if oT.BlocksPerSM <= oK.BlocksPerSM {
		t.Errorf("Maxwell's 96 KB shared pool should fit more blocks: %d vs %d",
			oT.BlocksPerSM, oK.BlocksPerSM)
	}
	// Register-limited: identical register files, identical ceilings.
	rK, _ := k40.ComputeOccupancy(256, 116, 0)
	rT, _ := titan.ComputeOccupancy(256, 116, 0)
	if rK.ActiveWarps != rT.ActiveWarps {
		t.Errorf("register-bound warp ceilings should match: %d vs %d", rK.ActiveWarps, rT.ActiveWarps)
	}
}

// Benchmarks for the same ablations, runnable via `go test -bench`.

func BenchmarkAblationFbfftTiling(b *testing.B) {
	cfg := workload.Base()
	cfg.Input = 144
	for _, e := range []impls.Engine{
		impls.NewFbfft(),
		impls.NewFbfftVariant(impls.FbfftOptions{DisableTiling: true}),
	} {
		e := e
		b.Run(e.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cell := Measure(e, cfg)
				if i == 0 {
					b.ReportMetric(float64(cell.Time.Microseconds())/1000, "sim_ms")
					b.ReportMetric(float64(cell.PeakBytes>>20), "sim_MB")
				}
			}
		})
	}
}

func BenchmarkAblationWinograd(b *testing.B) {
	// A VGG-style 3×3 layer: the Winograd extension vs the paper's
	// best small-kernel implementation.
	cfg := conv.Config{Batch: 64, Input: 56, Channels: 128, Filters: 128, Kernel: 3, Stride: 1, Pad: 1}
	for _, e := range []impls.Engine{impls.NewCuDNN(), impls.NewWinograd()} {
		e := e
		b.Run(e.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cell := Measure(e, cfg)
				if i == 0 {
					b.ReportMetric(float64(cell.Time.Microseconds())/1000, "sim_ms")
				}
			}
		})
	}
}

func BenchmarkAblationCrossArchitecture(b *testing.B) {
	specs := map[string]gpusim.DeviceSpec{
		"K40c":   gpusim.TeslaK40c(),
		"TitanX": gpusim.TitanXMaxwell(),
	}
	for name, spec := range specs {
		spec := spec
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev := gpusim.New(spec)
				plan, err := impls.NewCuDNN().Plan(dev, workload.Base())
				if err != nil {
					b.Fatal(err)
				}
				if err := plan.Iteration(); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(dev.Elapsed().Microseconds())/1000, "sim_ms")
				}
				plan.Release()
			}
		})
	}
}
