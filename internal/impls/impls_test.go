package impls

import (
	"errors"
	"strings"
	"testing"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/tensor"
)

func newDev() *gpusim.Device { return gpusim.New(gpusim.TeslaK40c()) }

func TestRegistryHasSevenEngines(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("expected 7 implementations, got %d", len(all))
	}
	want := map[string]conv.Strategy{
		"Caffe":         conv.Unrolling,
		"Torch-cunn":    conv.Unrolling,
		"Theano-CorrMM": conv.Unrolling,
		"Theano-fft":    conv.FFT,
		"cuDNN":         conv.Unrolling,
		"cuda-convnet2": conv.Direct,
		"fbfft":         conv.FFT,
	}
	for _, e := range all {
		strat, ok := want[e.Name()]
		if !ok {
			t.Errorf("unexpected engine %q", e.Name())
			continue
		}
		if e.Strategy() != strat {
			t.Errorf("%s strategy = %v, want %v", e.Name(), e.Strategy(), strat)
		}
	}
}

func TestByName(t *testing.T) {
	e, err := ByName("fbfft")
	if err != nil || e.Name() != "fbfft" {
		t.Fatalf("ByName(fbfft) = %v, %v", e, err)
	}
	e, err = ByName("CUDNN") // case-insensitive
	if err != nil || e.Name() != "cuDNN" {
		t.Fatalf("ByName(CUDNN) = %v, %v", e, err)
	}
	if _, err := ByName("tensorflow"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("unknown engine should error, got %v", err)
	}

	// The error lists every name ByName resolves, registered
	// extensions included.
	extMu.Lock()
	saved := extCtor
	extMu.Unlock()
	t.Cleanup(func() {
		extMu.Lock()
		extCtor = saved
		extMu.Unlock()
	})
	RegisterExtension(func() Engine { return NewFbfftVariant(FbfftOptions{DisableTiling: true}) })
	_, err = ByName("tensorflow")
	for _, e := range append(All(), Extensions()...) {
		if _, lookupErr := ByName(e.Name()); lookupErr != nil {
			t.Errorf("ByName(%q): %v", e.Name(), lookupErr)
		}
		if !strings.Contains(err.Error(), e.Name()) {
			t.Errorf("unknown-engine error %q does not list %q", err, e.Name())
		}
	}
	if !strings.Contains(err.Error(), "fbfft/no-tiling") {
		t.Errorf("unknown-engine error %q does not list the registered extension", err)
	}
}

// TestEnginesAgreeNumerically: every engine must compute the same
// convolution. This is the cross-validation that grounds the simulated
// comparison in real arithmetic.
func TestEnginesAgreeNumerically(t *testing.T) {
	// Batch 32 / filters 16 so cuda-convnet2's shape limits are met.
	cfg := conv.Config{Batch: 32, Input: 12, Channels: 2, Filters: 16, Kernel: 3, Stride: 1}
	r := tensor.NewRNG(99)
	x := tensor.New(cfg.InputShape()...)
	x.FillUniform(r, -1, 1)
	w := tensor.New(cfg.FilterShape()...)
	w.FillUniform(r, -1, 1)
	dy := tensor.New(cfg.OutputShape()...)
	dy.FillUniform(r, -1, 1)

	ref := tensor.New(cfg.OutputShape()...)
	conv.DirectForward(cfg, x, w, ref)
	refDx := tensor.New(cfg.InputShape()...)
	conv.DirectBackwardData(cfg, dy, w, refDx)
	refDw := tensor.New(cfg.FilterShape()...)
	conv.DirectBackwardFilter(cfg, x, dy, refDw)

	for _, e := range All() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			dev := newDev()
			p, err := e.Plan(dev, cfg)
			if err != nil {
				t.Fatalf("Plan: %v", err)
			}
			defer p.Release()
			y := tensor.New(cfg.OutputShape()...)
			if err := p.Forward(x, w, y); err != nil {
				t.Fatalf("Forward: %v", err)
			}
			if !tensor.AllClose(ref, y, 1e-3) {
				t.Fatalf("forward mismatch: rel diff %g", tensor.RelDiff(ref, y))
			}
			dx := tensor.New(cfg.InputShape()...)
			if err := p.BackwardData(dy, w, dx); err != nil {
				t.Fatalf("BackwardData: %v", err)
			}
			if !tensor.AllClose(refDx, dx, 1e-3) {
				t.Fatalf("backward-data mismatch: rel diff %g", tensor.RelDiff(refDx, dx))
			}
			dw := tensor.New(cfg.FilterShape()...)
			if err := p.BackwardFilter(x, dy, dw); err != nil {
				t.Fatalf("BackwardFilter: %v", err)
			}
			if !tensor.AllClose(refDw, dw, 1e-3) {
				t.Fatalf("backward-filter mismatch: rel diff %g", tensor.RelDiff(refDw, dw))
			}
		})
	}
}

// TestShapeLimitations verifies the constraints in the paper's Section
// IV.B summary.
func TestShapeLimitations(t *testing.T) {
	ok := conv.Config{Batch: 64, Input: 32, Channels: 3, Filters: 64, Kernel: 5, Stride: 1}
	badBatch := ok
	badBatch.Batch = 33
	badFilters := ok
	badFilters.Filters = 50
	strided := ok
	strided.Stride = 2

	cc2, _ := ByName("cuda-convnet2")
	if err := cc2.Supports(ok); err != nil {
		t.Errorf("cc2 should support %v: %v", ok, err)
	}
	if cc2.Supports(badBatch) == nil {
		t.Error("cc2 must reject batch not a multiple of 32")
	}
	if cc2.Supports(badFilters) == nil {
		t.Error("cc2 must reject filters not a multiple of 16")
	}
	if err := cc2.Supports(strided); err != nil {
		t.Errorf("cc2 should support stride 2: %v", err)
	}

	for _, name := range []string{"fbfft", "Theano-fft"} {
		e, _ := ByName(name)
		if e.Supports(strided) == nil {
			t.Errorf("%s must reject stride > 1", name)
		}
		if err := e.Supports(badBatch); err != nil {
			t.Errorf("%s should accept odd batch sizes: %v", name, err)
		}
	}

	// Unrolling engines accept everything, as the paper notes.
	for _, name := range []string{"Caffe", "Torch-cunn", "Theano-CorrMM", "cuDNN"} {
		e, _ := ByName(name)
		for _, cfg := range []conv.Config{ok, badBatch, badFilters, strided} {
			if err := e.Supports(cfg); err != nil {
				t.Errorf("%s should support %v: %v", name, cfg, err)
			}
		}
	}
}

func TestPlanRejectsUnsupportedConfig(t *testing.T) {
	e, _ := ByName("fbfft")
	cfg := conv.Config{Batch: 4, Input: 16, Channels: 1, Filters: 4, Kernel: 3, Stride: 2}
	if _, err := e.Plan(newDev(), cfg); err == nil {
		t.Fatal("Plan must fail for unsupported stride")
	}
}

func iterate(t *testing.T, e Engine, cfg conv.Config) (elapsed, transfer float64, peak int64) {
	t.Helper()
	dev := newDev()
	p, err := e.Plan(dev, cfg)
	if err != nil {
		t.Fatalf("%s Plan: %v", e.Name(), err)
	}
	defer p.Release()
	if err := p.Iteration(); err != nil {
		t.Fatalf("%s Iteration: %v", e.Name(), err)
	}
	return dev.Elapsed().Seconds(), dev.TransferTime().Seconds(), dev.Mem.Peak()
}

// TestMemoryOrdering reproduces the paper's Figure 5 ranking at the base
// configuration: cuda-convnet2 lowest, Torch-cunn lowest of unrolling,
// FFT engines highest with fbfft on top.
func TestMemoryOrdering(t *testing.T) {
	cfg := conv.Config{Batch: 64, Input: 128, Channels: 3, Filters: 64, Kernel: 11, Stride: 1}
	peak := map[string]int64{}
	for _, e := range All() {
		_, _, p := iterate(t, e, cfg)
		peak[e.Name()] = p
	}
	order := []string{"cuda-convnet2", "Torch-cunn", "Caffe", "cuDNN", "Theano-fft", "fbfft"}
	for i := 0; i+1 < len(order); i++ {
		if peak[order[i]] >= peak[order[i+1]] {
			t.Errorf("memory ordering violated: %s (%d) >= %s (%d)",
				order[i], peak[order[i]], order[i+1], peak[order[i+1]])
		}
	}
	if peak["Theano-CorrMM"] >= peak["Theano-fft"] {
		t.Error("Theano-CorrMM should use less memory than Theano-fft")
	}
}

// TestRuntimeOrderingAtBase reproduces the paper's headline Figure 3
// result at (64,128,64,11,1): fbfft fastest, cuDNN fastest unrolling,
// Theano-fft slowest.
func TestRuntimeOrderingAtBase(t *testing.T) {
	cfg := conv.Config{Batch: 64, Input: 128, Channels: 3, Filters: 64, Kernel: 11, Stride: 1}
	times := map[string]float64{}
	for _, e := range All() {
		el, _, _ := iterate(t, e, cfg)
		times[e.Name()] = el
	}
	for name, el := range times {
		if name == "fbfft" {
			continue
		}
		if times["fbfft"] >= el {
			t.Errorf("fbfft (%.3fs) should beat %s (%.3fs)", times["fbfft"], name, el)
		}
		if name != "Theano-fft" && times["Theano-fft"] <= el {
			t.Errorf("Theano-fft (%.3fs) should be slower than %s (%.3fs)", times["Theano-fft"], name, el)
		}
	}
	for _, unroll := range []string{"Caffe", "Torch-cunn", "Theano-CorrMM"} {
		if times["cuDNN"] >= times[unroll] {
			t.Errorf("cuDNN (%.3fs) should beat %s (%.3fs)", times["cuDNN"], unroll, times[unroll])
		}
	}
}

// TestTransferShares reproduces Figure 7's grouping: hidden transfers
// for Caffe/cuDNN/fbfft, visible ones for the rest.
func TestTransferShares(t *testing.T) {
	cfg := conv.Config{Batch: 128, Input: 64, Channels: 3, Filters: 64, Kernel: 7, Stride: 1}
	for _, e := range All() {
		el, tr, _ := iterate(t, e, cfg)
		share := tr / el
		switch e.Name() {
		case "Caffe", "cuDNN", "fbfft":
			if share > 0.001 {
				t.Errorf("%s transfer share = %.1f%%, want ~0 (hidden)", e.Name(), share*100)
			}
		default:
			if share <= 0 {
				t.Errorf("%s transfer share should be visible, got %.3f%%", e.Name(), share*100)
			}
		}
	}
}

// TestCorrMMConv2TransferSpike reproduces the paper's >60% transfer
// share for Theano-CorrMM on the Conv2 configuration.
func TestCorrMMConv2TransferSpike(t *testing.T) {
	conv2 := conv.Config{Batch: 128, Input: 128, Channels: 64, Filters: 96, Kernel: 3, Stride: 1}
	e, _ := ByName("Theano-CorrMM")
	el, tr, _ := iterate(t, e, conv2)
	if share := tr / el; share < 0.5 {
		t.Fatalf("Conv2 transfer share = %.1f%%, want > 50%%", share*100)
	}
	// And it must NOT spike on Conv1, whose input batch is small.
	conv1 := conv.Config{Batch: 128, Input: 128, Channels: 3, Filters: 96, Kernel: 11, Stride: 1}
	el, tr, _ = iterate(t, e, conv1)
	if share := tr / el; share > 0.15 {
		t.Fatalf("Conv1 transfer share = %.1f%%, want small", share*100)
	}
}

// TestFbfftOOM reproduces the paper's observation that fbfft's memory
// appetite can crash on large configurations (Section V.B).
func TestFbfftOOM(t *testing.T) {
	huge := conv.Config{Batch: 256, Input: 256, Channels: 3, Filters: 96, Kernel: 11, Stride: 1}
	e, _ := ByName("fbfft")
	_, err := e.Plan(newDev(), huge)
	var oom *gpusim.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want OOMError for %v, got %v", huge, err)
	}
	// The same configuration must fit with cuda-convnet2.
	cc2, _ := ByName("cuda-convnet2")
	p, err := cc2.Plan(newDev(), huge)
	if err != nil {
		t.Fatalf("cuda-convnet2 should fit %v: %v", huge, err)
	}
	p.Release()
}

// TestFbfftMemoryFluctuates reproduces Figure 5(b): fbfft's peak memory
// is non-monotonic in the input size (power-of-two padding steps),
// while Caffe's grows monotonically.
func TestFbfftMemoryFluctuates(t *testing.T) {
	fb, _ := ByName("fbfft")
	ca, _ := ByName("Caffe")
	var fbPeaks, caPeaks []int64
	for i := 32; i <= 160; i += 16 {
		cfg := conv.Config{Batch: 64, Input: i, Channels: 3, Filters: 64, Kernel: 11, Stride: 1}
		_, _, p := iterate(t, fb, cfg)
		fbPeaks = append(fbPeaks, p)
		_, _, p = iterate(t, ca, cfg)
		caPeaks = append(caPeaks, p)
	}
	jumpy := false
	for i := 1; i < len(fbPeaks); i++ {
		prev, cur := float64(fbPeaks[i-1]), float64(fbPeaks[i])
		if cur > 2.2*prev || cur < prev {
			jumpy = true
		}
	}
	if !jumpy {
		t.Errorf("fbfft memory should fluctuate across input sizes: %v", fbPeaks)
	}
	for i := 1; i < len(caPeaks); i++ {
		if caPeaks[i] < caPeaks[i-1] {
			t.Errorf("Caffe memory should grow monotonically: %v", caPeaks)
		}
	}
}

// TestCudaConvnet2BatchSensitivity: per-image cost at a multiple of 128
// beats the off-multiple cost (the paper's Figure 3a observation).
func TestCudaConvnet2BatchSensitivity(t *testing.T) {
	e, _ := ByName("cuda-convnet2")
	perImage := func(b int) float64 {
		cfg := conv.Config{Batch: b, Input: 64, Channels: 3, Filters: 64, Kernel: 7, Stride: 1}
		el, _, _ := iterate(t, e, cfg)
		return el / float64(b)
	}
	at128 := perImage(128)
	at96 := perImage(96)
	if at128 >= at96 {
		t.Fatalf("per-image cost at batch 128 (%.6fs) should beat batch 96 (%.6fs)", at128, at96)
	}
}

// TestSimulateOnlyIterationsTouchNoTensors: a nil-tensor iteration must
// still advance the simulated clock (that is how sweeps run).
func TestSimulateOnlyIteration(t *testing.T) {
	cfg := conv.Config{Batch: 64, Input: 64, Channels: 3, Filters: 32, Kernel: 5, Stride: 1}
	for _, e := range All() {
		dev := newDev()
		p, err := e.Plan(dev, cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if err := p.Iteration(); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if dev.Elapsed() <= 0 {
			t.Errorf("%s: simulate-only iteration should advance the clock", e.Name())
		}
		if dev.Launches() == 0 {
			t.Errorf("%s: no kernels launched", e.Name())
		}
		p.Release()
		if dev.Mem.Used() != 0 {
			t.Errorf("%s: Release leaked %d device bytes", e.Name(), dev.Mem.Used())
		}
	}
}

// TestPlanReleaseFreesMemory verifies repeated plan/release cycles don't
// accumulate device memory (the sweeps rely on this).
func TestPlanReleaseFreesMemory(t *testing.T) {
	dev := newDev()
	cfg := conv.Config{Batch: 64, Input: 64, Channels: 3, Filters: 32, Kernel: 5, Stride: 1}
	e, _ := ByName("fbfft")
	for i := 0; i < 5; i++ {
		p, err := e.Plan(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	if dev.Mem.Used() != 0 {
		t.Fatalf("leaked %d bytes after 5 plan/release cycles", dev.Mem.Used())
	}
}

func TestConfigMethodOnPlans(t *testing.T) {
	cfg := conv.Config{Batch: 32, Input: 32, Channels: 3, Filters: 16, Kernel: 3, Stride: 1}
	for _, e := range All() {
		p, err := e.Plan(newDev(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		got := p.Config()
		if got.Batch != cfg.Batch || got.Input != cfg.Input || got.Kernel != cfg.Kernel {
			t.Errorf("%s: Config() = %v, want %v", e.Name(), got, cfg)
		}
		p.Release()
	}
}
