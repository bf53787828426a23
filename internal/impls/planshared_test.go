package impls

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/workload"
)

// TestPlanSharedUsesLessMemorySameTime: PlanShared skips the
// activation buffers (the framework owns them) but must launch the
// identical kernel sequence.
func TestPlanSharedUsesLessMemorySameTime(t *testing.T) {
	cfg := workload.Base()
	for _, e := range append(All(), Extensions()...) {
		if err := e.Supports(cfg); err != nil {
			continue
		}
		devA, devB := newDev(), newDev()
		full, err := e.Plan(devA, cfg)
		if err != nil {
			t.Fatalf("%s Plan: %v", e.Name(), err)
		}
		shared, err := e.PlanShared(devB, cfg)
		if err != nil {
			t.Fatalf("%s PlanShared: %v", e.Name(), err)
		}
		if devB.Mem.Peak() >= devA.Mem.Peak() {
			t.Errorf("%s: PlanShared peak %d should be below Plan peak %d",
				e.Name(), devB.Mem.Peak(), devA.Mem.Peak())
		}
		if err := full.Iteration(); err != nil {
			t.Fatal(err)
		}
		if err := shared.Iteration(); err != nil {
			t.Fatal(err)
		}
		if devA.Elapsed() != devB.Elapsed() {
			t.Errorf("%s: shared plan timing %v differs from full plan %v",
				e.Name(), devB.Elapsed(), devA.Elapsed())
		}
		full.Release()
		shared.Release()
	}
}

// TestEnginesDeterministicAcrossInstances: two independent engine
// instances on independent devices must produce identical simulations.
func TestEnginesDeterministicAcrossInstances(t *testing.T) {
	cfg := workload.Base()
	for _, name := range Names() {
		e1, _ := ByName(name)
		e2, _ := ByName(name)
		d1, d2 := newDev(), newDev()
		p1, err := e1.Plan(d1, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p2, err := e2.Plan(d2, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p1.Iteration()
		p2.Iteration()
		if d1.Elapsed() != d2.Elapsed() || d1.Mem.Peak() != d2.Mem.Peak() {
			t.Errorf("%s not deterministic: %v/%d vs %v/%d",
				name, d1.Elapsed(), d1.Mem.Peak(), d2.Elapsed(), d2.Mem.Peak())
		}
		p1.Release()
		p2.Release()
	}
}

// seqSink records a device's events in issue order as "phase/name",
// where phase is the telemetry phase span open at the time.
type seqSink struct {
	phase  string
	events []string
}

func (s *seqSink) RecordEvent(ev gpusim.TraceEvent) { s.events = append(s.events, s.phase+"/"+ev.Name) }

func (s *seqSink) StartPhase(name string) func() {
	s.phase = name
	return func() { s.phase = "" }
}

// compact run-length encodes a launch sequence: a block of up to three
// events repeated back to back prints once, as "N×[a b]".
func compact(seq []string) string {
	var parts []string
	for i := 0; i < len(seq); {
		period, reps := 1, 1
		for p := 1; p <= 3 && i+p <= len(seq); p++ {
			r := 1
			for i+(r+1)*p <= len(seq) && slices.Equal(seq[i+r*p:i+(r+1)*p], seq[i:i+p]) {
				r++
			}
			if r > 1 && r*p > reps*period {
				period, reps = p, r
			}
		}
		block := strings.Join(seq[i:i+period], " ")
		if reps > 1 {
			block = fmt.Sprintf("%d×[%s]", reps, block)
		}
		parts = append(parts, block)
		i += period * reps
	}
	return strings.Join(parts, " ")
}

// builtins returns the nine built-in engines: the paper's seven plus
// the two built-in extensions.
func builtins() []Engine {
	return append(All(), NewWinograd(), NewTheanoLegacy())
}

// pinConfig is the configuration an engine's pins are taken at:
// workload.Base(), with 3×3 kernels for Winograd.
func pinConfig(e Engine) conv.Config {
	cfg := workload.Base()
	if e.Name() == "cuDNN-Winograd" {
		cfg.Kernel = 3
	}
	return cfg
}

// pinRun is what one simulated Iteration or Inference leaves behind.
type pinRun struct {
	seq   string           // compacted launch sequence
	times [3]time.Duration // Elapsed, KernelTime, TransferTime
	peak  int64            // dev.Mem.Peak()
}

func runPinned(e Engine, cfg conv.Config, iteration, shared bool) (pinRun, error) {
	dev := newDev()
	sink := &seqSink{}
	dev.SetSink(sink)
	planFn := e.Plan
	if shared {
		planFn = e.PlanShared
	}
	p, err := planFn(dev, cfg)
	if err != nil {
		return pinRun{}, err
	}
	defer p.Release()
	run := p.Inference
	if iteration {
		run = p.Iteration
	}
	if err := run(); err != nil {
		return pinRun{}, err
	}
	return pinRun{
		seq:   compact(sink.events),
		times: [3]time.Duration{dev.Elapsed(), dev.KernelTime(), dev.TransferTime()},
		peak:  dev.Mem.Peak(),
	}, nil
}

// TestKernelNamesStable: the profile kernel names are part of the
// Figure 4 contract, and the sim clock and memory peaks are what every
// figure is drawn from; pin them. For each built-in engine it checks
// the ordered launch sequence (with the phase each launch ran under)
// of one Iteration and one Inference, the sim times they leave on the
// device, the device memory peak under Plan and PlanShared, and that a
// simulate-only Iteration or Inference allocates nothing.
func TestKernelNamesStable(t *testing.T) {
	type pin struct {
		iteration, inference string
		iterTimes, infTimes  [3]time.Duration // Elapsed, KernelTime, TransferTime
		peak, peakShared     int64
	}
	want := map[string]pin{
		"Caffe": {
			iteration: "h2d/memcpy_HtoD_async 64×[forward/im2col_gpu_kernel forward/cublas_sgemm] 64×[backward_data/cublas_sgemm backward_data/col2im_gpu_kernel] 64×[backward_filter/im2col_gpu_kernel backward_filter/cublas_sgemm]",
			inference: "h2d/memcpy_HtoD_async 64×[forward/im2col_gpu_kernel forward/cublas_sgemm]",
			iterTimes: [3]time.Duration{100676928, 100676928, 0},
			infTimes:  [3]time.Duration{32459520, 32459520, 0},
			peak:      501831168, peakShared: 20403712,
		},
		"Torch-cunn": {
			iteration: "h2d/memcpy_HtoD 64×[forward/im2col_gpu_kernel forward/cublas_sgemm] 64×[backward_data/cublas_sgemm backward_data/col2im_gpu_kernel] 64×[backward_filter/im2col_gpu_kernel backward_filter/cublas_sgemm]",
			inference: "h2d/memcpy_HtoD 64×[forward/im2col_gpu_kernel forward/cublas_sgemm]",
			iterTimes: [3]time.Duration{104999668, 103791296, 1208372},
			infTimes:  [3]time.Duration{34695796, 33487424, 1208372},
			peak:      273700352, peakShared: 20403712,
		},
		"Theano-CorrMM": {
			iteration: "h2d/memcpy_HtoD 64×[forward/corrMM_im2col_kernel forward/cublas_sgemm] 64×[backward_data/cublas_sgemm backward_data/corrMM_col2im_kernel] 64×[backward_filter/corrMM_im2col_kernel backward_filter/cublas_sgemm]",
			inference: "h2d/memcpy_HtoD 64×[forward/corrMM_im2col_kernel forward/cublas_sgemm]",
			iterTimes: [3]time.Duration{81073424, 77917696, 3155728},
			infTimes:  [3]time.Duration{28226192, 25070464, 3155728},
			peak:      501831168, peakShared: 20403712,
		},
		"Theano-fft": {
			iteration: "h2d/memcpy_HtoD forward/pad_and_copy forward/decimateInFrequency forward/transpose forward/cgemm_batched forward/transpose forward/decimateInFrequencyInverse backward_data/pad_and_copy backward_data/decimateInFrequency backward_data/transpose backward_data/cgemm_batched backward_data/transpose backward_data/decimateInFrequencyInverse backward_filter/pad_and_copy backward_filter/decimateInFrequency backward_filter/transpose backward_filter/cgemm_batched backward_filter/transpose backward_filter/decimateInFrequencyInverse",
			inference: "h2d/memcpy_HtoD forward/pad_and_copy forward/decimateInFrequency forward/transpose forward/cgemm_batched forward/transpose forward/decimateInFrequencyInverse",
			iterTimes: [3]time.Duration{211261686, 204960230, 6301456},
			infTimes:  [3]time.Duration{67475290, 61173834, 6301456},
			peak:      1068815872, peakShared: 587388416,
		},
		"cuDNN": {
			iteration: "h2d/memcpy_HtoD_async forward/cudnn_precompute_stage forward/cudnn_gemm backward_data/cudnn_precompute_stage backward_data/cudnn_gemm backward_filter/cudnn_precompute_stage backward_filter/wgrad_alg0_engine",
			inference: "h2d/memcpy_HtoD_async forward/cudnn_precompute_stage forward/cudnn_gemm",
			iterTimes: [3]time.Duration{43745773, 43745773, 0},
			infTimes:  [3]time.Duration{14871838, 14871838, 0},
			peak:      526996992, peakShared: 45569536,
		},
		"cuda-convnet2": {
			iteration: "h2d/memcpy_HtoD forward/filterActs_YxX_color backward_data/img_acts_color backward_filter/conv_weight_acts_c_preload",
			inference: "h2d/memcpy_HtoD forward/filterActs_YxX_color",
			iterTimes: [3]time.Duration{54145124, 52936752, 1208372},
			infTimes:  [3]time.Duration{18853956, 17645584, 1208372},
			peak:      240899584, peakShared: 185856,
		},
		"fbfft": {
			iteration: "h2d/memcpy_HtoD_async forward/decimateInFrequency forward/transpose forward/cgemm_batched forward/transpose forward/decimateInFrequencyInverse backward_data/decimateInFrequency backward_data/transpose backward_data/cgemm_batched backward_data/transpose backward_data/decimateInFrequencyInverse backward_filter/cgemm_batched backward_filter/transpose backward_filter/decimateInFrequencyInverse",
			inference: "h2d/memcpy_HtoD_async forward/decimateInFrequency forward/transpose forward/cgemm_batched forward/transpose forward/decimateInFrequencyInverse",
			iterTimes: [3]time.Duration{16763865, 16763865, 0},
			infTimes:  [3]time.Duration{7459460, 7459460, 0},
			peak:      1077990912, peakShared: 596563456,
		},
		"cuDNN-Winograd": {
			iteration: "h2d/memcpy_HtoD_async forward/winograd_fwd_3x3_s1 backward_data/winograd_bwd_data_3x3_s1 backward_filter/winograd_bwd_filter_3x3_s1",
			inference: "h2d/memcpy_HtoD_async forward/winograd_fwd_3x3_s1",
			iterTimes: [3]time.Duration{5627268, 5627268, 0},
			infTimes:  [3]time.Duration{1875756, 1875756, 0},
			peak:      545416704, peakShared: 26112,
		},
		"Theano-legacy": {
			iteration: "h2d/memcpy_HtoD forward/conv_patch_stack backward_data/conv_grad_input backward_filter/conv_grad_weight",
			inference: "h2d/memcpy_HtoD forward/conv_patch_stack",
			iterTimes: [3]time.Duration{1246806631, 1243650903, 3155728},
			infTimes:  [3]time.Duration{417706029, 414550301, 3155728},
			peak:      481613312, peakShared: 185856,
		},
	}
	for _, e := range builtins() {
		w, ok := want[e.Name()]
		if !ok {
			t.Errorf("%s: no pinned values", e.Name())
			continue
		}
		cfg := pinConfig(e)
		it, err := runPinned(e, cfg, true, false)
		if err != nil {
			t.Fatalf("%s Iteration: %v", e.Name(), err)
		}
		inf, err := runPinned(e, cfg, false, false)
		if err != nil {
			t.Fatalf("%s Inference: %v", e.Name(), err)
		}
		sh, err := runPinned(e, cfg, true, true)
		if err != nil {
			t.Fatalf("%s shared Iteration: %v", e.Name(), err)
		}
		if it.seq != w.iteration {
			t.Errorf("%s Iteration launches\n got %s\nwant %s", e.Name(), it.seq, w.iteration)
		}
		if inf.seq != w.inference {
			t.Errorf("%s Inference launches\n got %s\nwant %s", e.Name(), inf.seq, w.inference)
		}
		if sh.seq != it.seq {
			t.Errorf("%s: PlanShared Iteration launches differ from Plan's\n got %s\nwant %s", e.Name(), sh.seq, it.seq)
		}
		if it.times != w.iterTimes {
			t.Errorf("%s Iteration sim times (elapsed, kernel, transfer) = %v, want %v", e.Name(), it.times, w.iterTimes)
		}
		if inf.times != w.infTimes {
			t.Errorf("%s Inference sim times (elapsed, kernel, transfer) = %v, want %v", e.Name(), inf.times, w.infTimes)
		}
		if it.peak != w.peak || sh.peak != w.peakShared {
			t.Errorf("%s peak bytes (Plan, PlanShared) = (%d, %d), want (%d, %d)",
				e.Name(), it.peak, sh.peak, w.peak, w.peakShared)
		}
		if raceEnabled {
			continue // the race runtime instruments allocations
		}
		for _, shared := range []bool{false, true} {
			planFn := e.Plan
			if shared {
				planFn = e.PlanShared
			}
			p, err := planFn(newDev(), cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			for _, run := range []struct {
				name string
				fn   func() error
			}{{"Iteration", p.Iteration}, {"Inference", p.Inference}} {
				if allocs := testing.AllocsPerRun(3, func() { _ = run.fn() }); allocs != 0 {
					t.Errorf("%s (shared %v) simulate-only %s: %v allocs, want 0", e.Name(), shared, run.name, allocs)
				}
			}
			p.Release()
		}
	}
}
