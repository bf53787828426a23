package bench

import (
	"context"
	"testing"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/workload"
)

// This file asserts the paper's comparative observations — the "shape"
// of every figure — against the simulated measurements. Exact values
// are not expected to match the 2016 testbed; orderings, bands and
// crossovers are. EXPERIMENTS.md records paper-vs-measured per claim.

func measure(t *testing.T, name string, cfg conv.Config) Cell {
	t.Helper()
	e, err := impls.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return Measure(e, cfg)
}

// figure3 runs one named Figure 3 sweep on the paper's K40c.
func figure3(sweep string) []Row {
	return Figure3Ctx(context.Background(), sweep, gpusim.TeslaK40c(), Options{})
}

// --- Figure 3a/3b: fbfft fastest across batch and input sweeps -------

func TestFig3aFbfftFastestAcrossBatchSweep(t *testing.T) {
	rows := figure3("batch")
	for _, row := range rows {
		fb, ok := row.CellFor("fbfft")
		if !ok || !fb.Ok() {
			t.Fatalf("fbfft missing at batch %d", row.Value)
		}
		for _, c := range row.Cells {
			if c.Impl == "fbfft" || !c.Ok() {
				continue
			}
			ratio := c.Time.Seconds() / fb.Time.Seconds()
			if ratio < 1.0 {
				t.Errorf("batch %d: %s (%v) beat fbfft (%v)", row.Value, c.Impl, c.Time, fb.Time)
			}
			// Paper: 1.4×–9.7×. Our margins run 1.0×–15×; the lower
			// bound asserted here is the ordering itself plus a floor.
			if ratio > 20 {
				t.Errorf("batch %d: fbfft margin %0.1f× over %s looks runaway", row.Value, ratio, c.Impl)
			}
		}
	}
}

func TestFig3bFbfftFastestAcrossInputSweepSamples(t *testing.T) {
	// At input sizes just below a power-of-two boundary the padding
	// waste lets cuDNN tie fbfft (documented deviation); everywhere in
	// the sampled sweep fbfft must win or stay within 10%.
	rows := figure3("input")
	wins := 0
	for _, row := range rows {
		fb, _ := row.CellFor("fbfft")
		best, ok := row.Best()
		if !ok {
			t.Fatalf("no result at input %d", row.Value)
		}
		if best.Impl == "fbfft" {
			wins++
			continue
		}
		if ratio := fb.Time.Seconds() / best.Time.Seconds(); ratio > 1.10 {
			t.Errorf("input %d: fbfft %.2f× slower than %s", row.Value, ratio, best.Impl)
		}
	}
	if wins < len(rows)-2 {
		t.Errorf("fbfft won only %d of %d input sizes", wins, len(rows))
	}
}

func TestFig3TheanoFFTSlowestEverywhere(t *testing.T) {
	for _, sweep := range []string{"batch", "kernel"} {
		for _, row := range figure3(sweep) {
			tf, ok := row.CellFor("Theano-fft")
			if !ok || !tf.Ok() {
				continue
			}
			for _, c := range row.Cells {
				if c.Impl == "Theano-fft" || !c.Ok() {
					continue
				}
				if c.Time >= tf.Time {
					t.Errorf("%s=%d: %s (%v) slower than Theano-fft (%v)",
						sweep, row.Value, c.Impl, c.Time, tf.Time)
				}
			}
		}
	}
}

func TestFig3CuDNNBestUnrollingAtBase(t *testing.T) {
	base := workload.Base()
	cudnn := measure(t, "cuDNN", base)
	for _, name := range []string{"Caffe", "Torch-cunn", "Theano-CorrMM"} {
		other := measure(t, name, base)
		if cudnn.Time >= other.Time {
			t.Errorf("cuDNN (%v) should beat %s (%v) at the base config", cudnn.Time, name, other.Time)
		}
	}
}

// --- Figure 3c: Theano-CorrMM overtakes cuDNN at high filter counts --

func TestFig3cCorrMMOvertakesCuDNNAtHighFilterCounts(t *testing.T) {
	base := workload.Base()
	at := func(f int) (corrMM, cuDNN Cell) {
		cfg := base
		cfg.Filters = f
		return measure(t, "Theano-CorrMM", cfg), measure(t, "cuDNN", cfg)
	}
	// Below the paper's ~160-filter threshold cuDNN must win clearly.
	for _, f := range []int{32, 64, 128} {
		cm, cu := at(f)
		if cu.Time >= cm.Time {
			t.Errorf("f=%d: cuDNN (%v) should beat Theano-CorrMM (%v)", f, cu.Time, cm.Time)
		}
	}
	// Above some crossover in (160, 384] CorrMM must win.
	for _, f := range []int{384, 512} {
		cm, cu := at(f)
		if cm.Time >= cu.Time {
			t.Errorf("f=%d: Theano-CorrMM (%v) should beat cuDNN (%v)", f, cm.Time, cu.Time)
		}
	}
}

// --- Figure 3d: kernel-size crossover -------------------------------

func TestFig3dKernelSizeCrossover(t *testing.T) {
	base := workload.Base()
	ratioAt := func(k int) float64 {
		cfg := base
		cfg.Kernel = k
		cu := measure(t, "cuDNN", cfg)
		fb := measure(t, "fbfft", cfg)
		return cu.Time.Seconds() / fb.Time.Seconds() // >1 means fbfft wins
	}
	// Small kernels: cuDNN wins by 1.2–2.8× (paper: 1.21–2.62×).
	r3 := ratioAt(3)
	if r3 >= 1 {
		t.Errorf("k=3: fbfft should lose, ratio %.2f", r3)
	}
	if adv := 1 / r3; adv < 1.1 || adv > 3.0 {
		t.Errorf("k=3: cuDNN advantage %.2f× outside the paper-calibrated band [1.1, 3.0]", adv)
	}
	// Large kernels: fbfft wins, increasingly (paper: 1.15×–19×,
	// runtime flat in k).
	r9, r11, r15 := ratioAt(9), ratioAt(11), ratioAt(15)
	if r9 <= 1 {
		t.Errorf("k=9: fbfft should win, ratio %.2f", r9)
	}
	if !(r9 < r11 && r11 < r15) {
		t.Errorf("fbfft advantage should grow with kernel size: %.2f, %.2f, %.2f", r9, r11, r15)
	}
	if r15 < 3 {
		t.Errorf("k=15: fbfft advantage %.2f× too small", r15)
	}
	// The crossover sits in the paper's small-kernel band (≈7; we
	// accept [5, 9]).
	crossed := -1
	for k := 5; k <= 9; k += 2 {
		if ratioAt(k) >= 1 {
			crossed = k
			break
		}
	}
	if crossed < 0 {
		t.Error("no cuDNN/fbfft crossover found in k ∈ [5, 9]")
	}
}

func TestFig3dFbfftRuntimeFlatInKernelSize(t *testing.T) {
	base := workload.Base()
	times := map[int]float64{}
	for _, k := range []int{3, 7, 11, 15} {
		cfg := base
		cfg.Kernel = k
		times[k] = measure(t, "fbfft", cfg).Time.Seconds()
	}
	// The paper: "the runtime of fbfft tends to be a constant value".
	if spread := times[15] / times[3]; spread > 1.25 || spread < 0.8 {
		t.Errorf("fbfft runtime should be ~flat in k: k3=%.4f k15=%.4f", times[3], times[15])
	}
	// While cuDNN grows superlinearly across the same span.
	cfg3, cfg15 := base, base
	cfg3.Kernel, cfg15.Kernel = 3, 15
	c3 := measure(t, "cuDNN", cfg3).Time.Seconds()
	c15 := measure(t, "cuDNN", cfg15).Time.Seconds()
	if c15/c3 < 4 {
		t.Errorf("cuDNN runtime should grow strongly with k: k3=%.4f k15=%.4f", c3, c15)
	}
}

// --- Figure 3e: stride ----------------------------------------------

func TestFig3eStride(t *testing.T) {
	rows := figure3("stride")
	for _, row := range rows {
		fb, _ := row.CellFor("fbfft")
		tf, _ := row.CellFor("Theano-fft")
		if row.Value == 1 {
			if !fb.Ok() || !tf.Ok() {
				t.Fatal("FFT engines must support stride 1")
			}
			best, _ := row.Best()
			if best.Impl != "fbfft" {
				t.Errorf("stride 1: best = %s, want fbfft", best.Impl)
			}
			continue
		}
		// Paper: "fbfft and Theano-fft only support stride size of 1";
		// "For greater stride, cuDNN results in the best performance."
		if fb.Ok() || tf.Ok() {
			t.Errorf("stride %d: FFT engines should be unsupported", row.Value)
		}
		best, ok := row.Best()
		if !ok || best.Impl != "cuDNN" {
			t.Errorf("stride %d: best = %s, want cuDNN", row.Value, best.Impl)
		}
	}
}

// --- Figure 3a: cuda-convnet2 batch-multiple behaviour ---------------

func TestFig3aCudaConvnet2BatchMultiples(t *testing.T) {
	base := workload.Base()
	perImage := func(b int) float64 {
		cfg := base
		cfg.Batch = b
		c := measure(t, "cuda-convnet2", cfg)
		if !c.Ok() {
			t.Fatalf("cuda-convnet2 should support batch %d", b)
		}
		return c.Time.Seconds() / float64(b)
	}
	if at128, at96 := perImage(128), perImage(96); at128 >= at96 {
		t.Errorf("per-image cost at b=128 (%.6f) should beat b=96 (%.6f)", at128, at96)
	}
	if at256, at224 := perImage(256), perImage(224); at256 >= at224 {
		t.Errorf("per-image cost at b=256 (%.6f) should beat b=224 (%.6f)", at256, at224)
	}
}

// --- Figure 4: hotspot kernels --------------------------------------

func TestFig4GEMMDominatesUnrolling(t *testing.T) {
	shares := Figure4()
	// Paper: GEMM takes 87%, 83%, 80% of Caffe, Torch-cunn,
	// Theano-CorrMM. We assert the dominant-share band [65%, 95%].
	for _, name := range []string{"Caffe", "Torch-cunn", "Theano-CorrMM"} {
		g := GEMMShare(shares[name])
		if g < 0.65 || g > 0.95 {
			t.Errorf("%s GEMM share = %.1f%%, want within [65%%, 95%%]", name, g*100)
		}
	}
	// cuDNN: cudnn_gemm + wgrad_alg0_engine dominate (Figure 4d).
	if g := GEMMShare(shares["cuDNN"]); g < 0.75 {
		t.Errorf("cuDNN compute kernels share = %.1f%%, want ≥ 75%%", g*100)
	}
}

func TestFig4KernelNames(t *testing.T) {
	shares := Figure4()
	wantKernels := map[string][]string{
		"Caffe":         {"im2col_gpu_kernel", "col2im_gpu_kernel", "cublas_sgemm"},
		"cuDNN":         {"cudnn_gemm", "wgrad_alg0_engine"},
		"cuda-convnet2": {"filterActs_YxX_color", "img_acts_color", "conv_weight_acts_c_preload"},
		"fbfft":         {"decimateInFrequency", "transpose", "cgemm_batched", "decimateInFrequencyInverse"},
		"Theano-fft":    {"pad_and_copy", "decimateInFrequency"},
	}
	for impl, kernels := range wantKernels {
		have := map[string]bool{}
		for _, k := range shares[impl] {
			have[k.Kernel] = true
		}
		for _, k := range kernels {
			if !have[k] {
				t.Errorf("%s profile is missing kernel %q (has %v)", impl, k, have)
			}
		}
	}
}

func TestFig4FFTKernelFamilies(t *testing.T) {
	shares := Figure4()
	// Paper: "GEMM, FFT transform, FFT inverse and data transposition
	// account for most of the runtime in fbfft".
	var covered float64
	for _, k := range shares["fbfft"] {
		switch k.Kernel {
		case "decimateInFrequency", "decimateInFrequencyInverse", "transpose", "cgemm_batched":
			covered += k.Share
		}
	}
	if covered < 0.95 {
		t.Errorf("fbfft's four kernel families cover %.1f%%, want ≥95%%", covered*100)
	}
}

// --- Figure 5: memory -----------------------------------------------

func TestFig5MemoryOrderingAcrossBatchSweep(t *testing.T) {
	for _, row := range figure3("batch") {
		get := func(name string) int64 {
			c, _ := row.CellFor(name)
			if !c.Ok() {
				t.Fatalf("%s missing at batch %d", name, row.Value)
			}
			return c.PeakBytes
		}
		cc2 := get("cuda-convnet2")
		torch := get("Torch-cunn")
		caffe := get("Caffe")
		fb := get("fbfft")
		if !(cc2 < torch && torch < caffe && caffe < fb) {
			t.Errorf("batch %d: memory ordering cc2(%d) < torch(%d) < caffe(%d) < fbfft(%d) violated",
				row.Value, cc2, torch, caffe, fb)
		}
	}
}

func TestFig5FbfftHighestEverywhere(t *testing.T) {
	for _, sweep := range []string{"batch", "filter"} {
		for _, row := range figure3(sweep) {
			fb, _ := row.CellFor("fbfft")
			if !fb.Ok() {
				continue
			}
			for _, c := range row.Cells {
				if c.Impl == "fbfft" || !c.Ok() {
					continue
				}
				if c.PeakBytes >= fb.PeakBytes {
					t.Errorf("%s=%d: %s (%d B) should use less memory than fbfft (%d B)",
						sweep, row.Value, c.Impl, c.PeakBytes, fb.PeakBytes)
				}
			}
		}
	}
}

func TestFig5MemoryBandsMatchPaper(t *testing.T) {
	// Paper ranges over all sweeps: cc2 125–2076 MB, Torch-cunn
	// 170–2093 MB, Caffe 136–3809 MB, cuDNN 155–3810 MB, fbfft
	// 1632–10866 MB. We assert the same order of magnitude at the
	// sweep extremes.
	small := workload.Base()
	small.Batch = 32
	big := workload.Base()
	big.Batch = 512
	checks := []struct {
		impl             string
		minAtSmall       int64 // MB
		maxAtSmall       int64
		minAtBig, maxBig int64
	}{
		{"cuda-convnet2", 50, 400, 1000, 3500},
		{"Torch-cunn", 60, 450, 1200, 3600},
		{"Caffe", 100, 700, 2500, 6000},
		{"cuDNN", 100, 800, 2500, 6000},
		{"fbfft", 300, 1700, 5000, 12000},
	}
	for _, c := range checks {
		s := measure(t, c.impl, small).PeakBytes >> 20
		b := measure(t, c.impl, big).PeakBytes >> 20
		if s < c.minAtSmall || s > c.maxAtSmall {
			t.Errorf("%s at batch 32 uses %d MB, want [%d, %d]", c.impl, s, c.minAtSmall, c.maxAtSmall)
		}
		if b < c.minAtBig || b > c.maxBig {
			t.Errorf("%s at batch 512 uses %d MB, want [%d, %d]", c.impl, b, c.minAtBig, c.maxBig)
		}
	}
}

// --- Figure 6: GPU metrics ------------------------------------------

func TestFig6MetricBands(t *testing.T) {
	conv1 := workload.TableI()[0].Cfg
	m := func(name string) Cell { return measure(t, name, conv1) }

	// cuda-convnet2: achieved occupancy 14–22% (paper, Section V.C.1).
	if occ := m("cuda-convnet2").Metrics.AchievedOccupancy * 100; occ < 13 || occ > 23 {
		t.Errorf("cuda-convnet2 occupancy = %.1f%%, paper band 14-22%%", occ)
	}
	// Theano-fft: occupancy 39–59%, WEE 66–81%, shared efficiency
	// 8–20% (paper, Sections V.C.1, V.C.3, V.C.4).
	tf := m("Theano-fft").Metrics
	if occ := tf.AchievedOccupancy * 100; occ < 35 || occ > 62 {
		t.Errorf("Theano-fft occupancy = %.1f%%, paper band 39-59%%", occ)
	}
	if tf.WarpExecEff < 64 || tf.WarpExecEff > 83 {
		t.Errorf("Theano-fft WEE = %.1f%%, paper band 66-81%%", tf.WarpExecEff)
	}
	if tf.SharedEff < 6 || tf.SharedEff > 22 {
		t.Errorf("Theano-fft shared efficiency = %.1f%%, paper band 8-20%%", tf.SharedEff)
	}
	// cuDNN: occupancy 29–37%, shared efficiency over 130%.
	cu := m("cuDNN").Metrics
	if occ := cu.AchievedOccupancy * 100; occ < 28 || occ > 39 {
		t.Errorf("cuDNN occupancy = %.1f%%, paper band 29-37%%", occ)
	}
	if cu.SharedEff <= 125 {
		t.Errorf("cuDNN shared efficiency = %.1f%%, paper reports over 130%%", cu.SharedEff)
	}
	// Theano-CorrMM: gld efficiency 11.64–15.79%.
	if g := m("Theano-CorrMM").Metrics.GldEff; g < 10 || g > 18 {
		t.Errorf("Theano-CorrMM gld efficiency = %.1f%%, paper band 11.6-15.8%%", g)
	}
	// Caffe / Torch-cunn: "very low" (< 25%) gld efficiency.
	for _, name := range []string{"Caffe", "Torch-cunn"} {
		if g := m(name).Metrics.GldEff; g > 25 {
			t.Errorf("%s gld efficiency = %.1f%%, paper reports very low values", name, g)
		}
	}
	// Most implementations keep WEE over 97% (paper: "over 97%").
	for _, name := range []string{"Caffe", "Torch-cunn", "Theano-CorrMM", "cuDNN", "cuda-convnet2", "fbfft"} {
		if wee := m(name).Metrics.WarpExecEff; wee < 96 {
			t.Errorf("%s WEE = %.1f%%, want ≥96%%", name, wee)
		}
	}
}

func TestFig6HigherOccupancyNotFaster(t *testing.T) {
	// The paper's key observation: Theano-fft has the HIGHEST occupancy
	// of the FFT engines yet the WORST runtime.
	conv1 := workload.TableI()[0].Cfg
	tf := measure(t, "Theano-fft", conv1)
	fb := measure(t, "fbfft", conv1)
	if tf.Metrics.AchievedOccupancy <= fb.Metrics.AchievedOccupancy*0.9 {
		t.Skip("occupancy relation changed; revisit calibration")
	}
	if tf.Time <= fb.Time {
		t.Error("Theano-fft should be slower than fbfft despite higher occupancy")
	}
}

// --- Figure 7: transfers --------------------------------------------

func TestFig7TransferGroups(t *testing.T) {
	rows := Figure7Ctx(context.Background(), Options{})
	for _, r := range rows {
		if !r.Ok {
			continue
		}
		switch r.Impl {
		case "Caffe", "cuDNN", "fbfft":
			if r.Share > 0.005 {
				t.Errorf("%s/%s transfer share %.1f%%, want ≈0 (hidden transfers)", r.Config, r.Impl, r.Share*100)
			}
		case "Torch-cunn", "cuda-convnet2", "Theano-fft":
			if r.Share <= 0 || r.Share > 0.25 {
				t.Errorf("%s/%s transfer share %.1f%%, want within (0, 25%%]", r.Config, r.Impl, r.Share*100)
			}
		case "Theano-CorrMM":
			if r.Config == "Conv2" {
				if r.Share < 0.5 {
					t.Errorf("Theano-CorrMM Conv2 transfer share %.1f%%, paper reports >60%%", r.Share*100)
				}
			} else if r.Share > 0.25 {
				t.Errorf("Theano-CorrMM %s transfer share %.1f%%, want moderate", r.Config, r.Share*100)
			}
		}
	}
}

// --- Tables -----------------------------------------------------------

func TestTableIIMatchesPaper(t *testing.T) {
	want := map[string]struct {
		regs int
		smem float64 // KB
	}{
		"Caffe":         {86, 8.5},
		"cuDNN":         {80, 8.4},
		"Torch-cunn":    {84, 8.1},
		"Theano-CorrMM": {72, 7.0},
		"cuda-convnet2": {116, 16.0},
		"fbfft":         {106, 10.0},
		"Theano-fft":    {2, 4.5},
	}
	rows := TableIICtx(context.Background(), Options{})
	if len(rows) != 7 {
		t.Fatalf("Table II has %d rows, want 7", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Impl]
		if !ok {
			t.Errorf("unexpected Table II row %q", r.Impl)
			continue
		}
		if r.RegsPerThread != w.regs {
			t.Errorf("%s registers = %d, Table II says %d", r.Impl, r.RegsPerThread, w.regs)
		}
		kb := float64(r.SmemPerBlockB) / 1024
		if kb < w.smem-0.3 || kb > w.smem+0.3 {
			t.Errorf("%s shared memory = %.1f KB, Table II says %.1f KB", r.Impl, kb, w.smem)
		}
	}
}

func TestTableIConfigs(t *testing.T) {
	rows := workload.TableI()
	if len(rows) != 5 {
		t.Fatalf("Table I has %d rows, want 5", len(rows))
	}
	// The paper's tuples: (128,128,96,11,1), (128,128,96,3,1),
	// (128,32,128,9,1), (128,16,128,7,1), (128,13,384,3,1).
	want := [][5]int{
		{128, 128, 96, 11, 1},
		{128, 128, 96, 3, 1},
		{128, 32, 128, 9, 1},
		{128, 16, 128, 7, 1},
		{128, 13, 384, 3, 1},
	}
	for i, nc := range rows {
		got := [5]int{nc.Cfg.Batch, nc.Cfg.Input, nc.Cfg.Filters, nc.Cfg.Kernel, nc.Cfg.Stride}
		if got != want[i] {
			t.Errorf("%s = %v, want %v", nc.Name, got, want[i])
		}
		if err := nc.Cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", nc.Name, err)
		}
	}
}

// --- Figure 2 ---------------------------------------------------------

func TestFig2ConvolutionDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("model profiling in short mode")
	}
	for _, mb := range Figure2Ctx(context.Background(), Options{}) {
		if mb.ConvShare < 0.80 || mb.ConvShare > 0.98 {
			t.Errorf("%s conv share %.1f%%, paper band 86-94%% (accepting [80, 98])",
				mb.Model, mb.ConvShare*100)
		}
		if mb.Total <= 0 {
			t.Errorf("%s: no simulated time", mb.Model)
		}
	}
}

// TestFig6BandsAcrossAllConfigs: the per-implementation metric
// characters must hold across all five Table I configurations, not
// just Conv1 — occupancy is resource-bound (shape-independent), WEE is
// code-structure-bound.
func TestFig6BandsAcrossAllConfigs(t *testing.T) {
	for _, r := range Figure6Ctx(context.Background(), Options{}) {
		if !r.Cell.Ok() {
			t.Errorf("%s/%s failed to run", r.Config, r.Impl)
			continue
		}
		m := r.Cell.Metrics
		switch r.Impl {
		case "cuda-convnet2":
			if occ := m.AchievedOccupancy * 100; occ < 12 || occ > 24 {
				t.Errorf("%s cuda-convnet2 occupancy %.1f%% outside 12-24%%", r.Config, occ)
			}
		case "Theano-fft":
			if m.WarpExecEff < 64 || m.WarpExecEff > 95 {
				t.Errorf("%s Theano-fft WEE %.1f%% outside the divergent band", r.Config, m.WarpExecEff)
			}
		case "cuDNN":
			if m.SharedEff < 120 {
				t.Errorf("%s cuDNN shared efficiency %.1f%% should stay >120%% (broadcast tiles)",
					r.Config, m.SharedEff)
			}
		}
		// Universal sanity on every cell.
		if m.AchievedOccupancy <= 0 || m.AchievedOccupancy > 1 {
			t.Errorf("%s/%s occupancy %v out of range", r.Config, r.Impl, m.AchievedOccupancy)
		}
		if m.WarpExecEff <= 0 || m.WarpExecEff > 100 {
			t.Errorf("%s/%s WEE %v out of range", r.Config, r.Impl, m.WarpExecEff)
		}
		if m.IPC < 0 || m.IPC > 8 {
			t.Errorf("%s/%s IPC %v implausible for Kepler", r.Config, r.Impl, m.IPC)
		}
	}
}
