package gpusim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func testKernel(name string, flops float64) KernelSpec {
	return KernelSpec{
		Name:          name,
		Grid:          Dim3{X: 1024},
		Block:         Dim3{X: 256},
		RegsPerThread: 32,
		FLOPs:         flops,
	}
}

func TestLaunchAdvancesClock(t *testing.T) {
	d := New(TeslaK40c())
	m := d.MustLaunch(testKernel("k", 1e9))
	if m.Duration <= 0 {
		t.Fatal("kernel duration must be positive")
	}
	if d.Elapsed() != m.Duration {
		t.Fatalf("elapsed %v != kernel duration %v", d.Elapsed(), m.Duration)
	}
	if d.Launches() != 1 {
		t.Fatalf("launches = %d", d.Launches())
	}
}

func TestMoreFLOPsTakeLonger(t *testing.T) {
	d := New(TeslaK40c())
	m1 := d.MustLaunch(testKernel("small", 1e8))
	m2 := d.MustLaunch(testKernel("large", 1e10))
	if m2.Duration <= m1.Duration {
		t.Fatalf("100× flops should take longer: %v vs %v", m2.Duration, m1.Duration)
	}
}

func TestComputeTimeNearPeakForIdealKernel(t *testing.T) {
	// A fully-occupied, perfectly-behaved kernel should sustain a large
	// fraction of the 4.29 TFLOPS peak.
	d := New(TeslaK40c())
	flops := 1e12
	m := d.MustLaunch(KernelSpec{
		Name: "ideal", Grid: Dim3{X: 1 << 16}, Block: Dim3{X: 256},
		RegsPerThread: 32, FLOPs: flops, ILP: 4, EfficiencyScale: 1,
	})
	achieved := flops / m.Duration.Seconds() / 1e9 // GFLOPS
	peak := TeslaK40c().PeakGFLOPS()
	if achieved < 0.7*peak || achieved > peak {
		t.Fatalf("ideal kernel sustains %v GFLOPS, want 70-100%% of %v", achieved, peak)
	}
}

func TestLowOccupancySlowsCompute(t *testing.T) {
	d := New(TeslaK40c())
	base := KernelSpec{Name: "a", Grid: Dim3{X: 4096}, Block: Dim3{X: 256}, FLOPs: 1e10, RegsPerThread: 24}
	fast := d.MustLaunch(base)
	base.Name = "b"
	base.RegsPerThread = 200 // register-starved: few resident warps
	slow := d.MustLaunch(base)
	if slow.Duration <= fast.Duration {
		t.Fatalf("register-starved kernel should be slower: %v vs %v", slow.Duration, fast.Duration)
	}
	if slow.AchievedOccupancy >= fast.AchievedOccupancy {
		t.Fatal("register-starved kernel should have lower occupancy")
	}
}

func TestILPCompensatesLowOccupancy(t *testing.T) {
	// cuda-convnet2's trick: high register ILP recovers throughput at
	// low occupancy.
	d := New(TeslaK40c())
	noILP := d.MustLaunch(KernelSpec{Name: "a", Grid: Dim3{X: 4096}, Block: Dim3{X: 128},
		RegsPerThread: 116, SharedPerBlock: 16 * 1024, FLOPs: 1e10, ILP: 1})
	withILP := d.MustLaunch(KernelSpec{Name: "b", Grid: Dim3{X: 4096}, Block: Dim3{X: 128},
		RegsPerThread: 116, SharedPerBlock: 16 * 1024, FLOPs: 1e10, ILP: 4})
	if withILP.Duration >= noILP.Duration {
		t.Fatal("ILP should speed up a latency-limited kernel")
	}
	if withILP.AchievedOccupancy != noILP.AchievedOccupancy {
		t.Fatal("ILP must not change occupancy")
	}
}

func TestUncoalescedAccessSlowsMemoryBoundKernel(t *testing.T) {
	d := New(TeslaK40c())
	base := KernelSpec{Name: "a", Grid: Dim3{X: 8192}, Block: Dim3{X: 256},
		RegsPerThread: 24, GlobalLoadBytes: 4e9, LoadTransPerReq: 1}
	fast := d.MustLaunch(base)
	base.Name = "b"
	base.LoadTransPerReq = 8 // badly coalesced
	slow := d.MustLaunch(base)
	if slow.Duration < time.Duration(float64(fast.Duration)*4) {
		t.Fatalf("8× transaction replay should slow a memory-bound kernel ≥4×: %v vs %v",
			slow.Duration, fast.Duration)
	}
	if slow.GldEff >= fast.GldEff {
		t.Fatal("replayed transactions should lower gld efficiency")
	}
	if fast.GldEff != 100 {
		t.Fatalf("perfectly coalesced load efficiency = %v, want 100", fast.GldEff)
	}
}

func TestBankConflictsSlowSharedKernel(t *testing.T) {
	d := New(TeslaK40c())
	base := KernelSpec{Name: "a", Grid: Dim3{X: 4096}, Block: Dim3{X: 256},
		RegsPerThread: 32, SharedPerBlock: 8 * 1024, FLOPs: 1e10, UsesShared: true}
	clean := d.MustLaunch(base)
	base.Name = "b"
	base.BankConflictRate = 4
	conflicted := d.MustLaunch(base)
	if conflicted.Duration <= clean.Duration {
		t.Fatal("bank conflicts should slow a shared-memory kernel")
	}
	if conflicted.SharedEff >= clean.SharedEff {
		t.Fatal("bank conflicts should lower shared efficiency")
	}
}

func TestSharedBroadcastExceeds100(t *testing.T) {
	// The paper reports cuDNN shared efficiency "over 130%" — broadcast
	// accesses push the requested/required ratio above 1.
	d := New(TeslaK40c())
	m := d.MustLaunch(KernelSpec{Name: "k", Grid: Dim3{X: 1024}, Block: Dim3{X: 256},
		RegsPerThread: 32, SharedPerBlock: 8 * 1024, FLOPs: 1e9,
		UsesShared: true, SharedBroadcast: 1.35})
	if m.SharedEff <= 100 {
		t.Fatalf("broadcast-heavy kernel shared efficiency = %v, want >100", m.SharedEff)
	}
}

func TestDivergenceLowersWEEAndThroughput(t *testing.T) {
	d := New(TeslaK40c())
	base := KernelSpec{Name: "a", Grid: Dim3{X: 4096}, Block: Dim3{X: 256}, RegsPerThread: 32, FLOPs: 1e10}
	straight := d.MustLaunch(base)
	base.Name = "b"
	base.ActiveThreadFrac = 0.7
	divergent := d.MustLaunch(base)
	if divergent.WarpExecEff != 70 {
		t.Fatalf("WEE = %v, want 70", divergent.WarpExecEff)
	}
	if divergent.Duration <= straight.Duration {
		t.Fatal("divergence should lower throughput")
	}
}

func TestGridTailLowersAchievedOccupancy(t *testing.T) {
	d := New(TeslaK40c())
	full := d.MustLaunch(KernelSpec{Name: "a", Grid: Dim3{X: 15 * 8 * 10}, Block: Dim3{X: 256}, RegsPerThread: 16, FLOPs: 1e9})
	tiny := d.MustLaunch(KernelSpec{Name: "b", Grid: Dim3{X: 4}, Block: Dim3{X: 256}, RegsPerThread: 16, FLOPs: 1e9})
	if tiny.AchievedOccupancy >= full.AchievedOccupancy {
		t.Fatalf("a 4-block grid cannot fill the device: %v vs %v",
			tiny.AchievedOccupancy, full.AchievedOccupancy)
	}
}

func TestZeroGlobalTrafficReportsZeroEfficiency(t *testing.T) {
	// cuDNN's compute kernels run out of shared memory only; nvprof
	// reports their global efficiency as 0%.
	d := New(TeslaK40c())
	m := d.MustLaunch(KernelSpec{Name: "smem_only", Grid: Dim3{X: 512}, Block: Dim3{X: 256},
		RegsPerThread: 64, SharedPerBlock: 8 * 1024, FLOPs: 1e9, UsesShared: true})
	if m.GldEff != 0 || m.GstEff != 0 {
		t.Fatalf("no-global-traffic kernel should report 0%% gld/gst, got %v/%v", m.GldEff, m.GstEff)
	}
}

func TestLaunchErrorPropagates(t *testing.T) {
	d := New(TeslaK40c())
	_, err := d.Launch(KernelSpec{Name: "bad", Block: Dim3{X: 4096}, FLOPs: 1})
	if err == nil {
		t.Fatal("oversized block should fail")
	}
}

func TestCopyPinnedFasterThanPageable(t *testing.T) {
	d := New(TeslaK40c())
	pageable := d.Copy(Transfer{Bytes: 100 << 20})
	pinned := d.Copy(Transfer{Bytes: 100 << 20, Pinned: true})
	if pinned >= pageable {
		t.Fatalf("pinned transfer should be faster: %v vs %v", pinned, pageable)
	}
}

func TestAsyncCopyOffCriticalPath(t *testing.T) {
	d := New(TeslaK40c())
	d.Copy(Transfer{Bytes: 1 << 20, Async: true})
	if d.TransferTime() != 0 {
		t.Fatal("async copy must not extend the critical path")
	}
	if d.HiddenTransferTime() == 0 {
		t.Fatal("async copy must be accounted as hidden")
	}
	d.Copy(Transfer{Bytes: 1 << 20})
	if d.TransferTime() == 0 {
		t.Fatal("sync copy must extend the critical path")
	}
}

func TestElapsedCombinesKernelAndTransfer(t *testing.T) {
	d := New(TeslaK40c())
	d.MustLaunch(testKernel("k", 1e9))
	d.Copy(Transfer{Bytes: 10 << 20})
	if d.Elapsed() != d.KernelTime()+d.TransferTime() {
		t.Fatal("Elapsed must be kernel + critical-path transfer time")
	}
}

func TestDeterministicSimulation(t *testing.T) {
	k := KernelSpec{Name: "k", Grid: Dim3{X: 777}, Block: Dim3{X: 192},
		RegsPerThread: 40, SharedPerBlock: 4096, FLOPs: 3.14e9,
		GlobalLoadBytes: 1e8, LoadTransPerReq: 2.5, UsesShared: true, BankConflictRate: 0.3}
	m1, err1 := TeslaK40c().simulate(k)
	m2, err2 := TeslaK40c().simulate(k)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if m1 != m2 {
		t.Fatal("simulation must be deterministic")
	}
}

func TestMemTrackerPeak(t *testing.T) {
	m := NewMemTracker(1 << 30)
	a, err := m.Alloc(100<<20, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(200<<20, "b")
	if err != nil {
		t.Fatal(err)
	}
	if m.Peak() < 300<<20 {
		t.Fatalf("peak = %d, want ≥300 MB", m.Peak())
	}
	a.Free()
	b.Free()
	if m.Used() != 0 {
		t.Fatalf("used after free = %d", m.Used())
	}
	if m.Peak() < 300<<20 {
		t.Fatal("peak must survive frees")
	}
	m.ResetPeak()
	if m.Peak() != 0 {
		t.Fatal("ResetPeak should drop to live usage")
	}
}

func TestMemTrackerOOM(t *testing.T) {
	m := NewMemTracker(1 << 20)
	_, err := m.Alloc(2<<20, "big")
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want OOMError, got %v", err)
	}
	if !strings.Contains(oom.Error(), "out of device memory") {
		t.Fatalf("unhelpful OOM message: %v", oom)
	}
}

func TestMemTrackerAlignment(t *testing.T) {
	m := NewMemTracker(1 << 20)
	b, err := m.Alloc(1, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if m.Used() != allocAlign {
		t.Fatalf("1-byte alloc should consume %d aligned bytes, used %d", allocAlign, m.Used())
	}
	b.Free()
	b.Free() // double free is a no-op
	if m.Used() != 0 {
		t.Fatal("double free must not underflow")
	}
}

func TestMemTrackerTags(t *testing.T) {
	m := NewMemTracker(1 << 30)
	m.Alloc(1<<10, "weights")
	m.Alloc(2<<10, "workspace")
	m.Alloc(1<<10, "workspace")
	if m.TagTotal("workspace") != 3<<10 {
		t.Fatalf("workspace tag total = %d", m.TagTotal("workspace"))
	}
	tags := m.Tags()
	if len(tags) != 2 || tags[0] != "weights" || tags[1] != "workspace" {
		t.Fatalf("tags = %v", tags)
	}
	if m.AllocCount() != 3 {
		t.Fatalf("alloc count = %d", m.AllocCount())
	}
}

func TestProfilerSharesAndTop(t *testing.T) {
	p := NewProfiler()
	p.Record("gemm", Metrics{Duration: 80 * time.Millisecond, AchievedOccupancy: 0.5})
	p.Record("im2col", Metrics{Duration: 20 * time.Millisecond, AchievedOccupancy: 0.9})
	shares := p.Shares()
	if s := shares["gemm"]; s < 0.79 || s > 0.81 {
		t.Fatalf("gemm share = %v, want 0.8", s)
	}
	top := p.TopKernels(1)
	if len(top) != 1 || top[0].Name != "gemm" {
		t.Fatalf("top kernel = %v", top)
	}
	w := p.WeightedMetrics(10)
	// 0.8*0.5 + 0.2*0.9 = 0.58
	if w.AchievedOccupancy < 0.57 || w.AchievedOccupancy > 0.59 {
		t.Fatalf("weighted occupancy = %v, want 0.58", w.AchievedOccupancy)
	}
}

func TestProfilerSummaryRenders(t *testing.T) {
	p := NewProfiler()
	p.Record("sgemm_128x64", Metrics{Duration: time.Millisecond, WarpExecEff: 99})
	s := p.Summary()
	if !strings.Contains(s, "sgemm_128x64") || !strings.Contains(s, "Kernel") {
		t.Fatalf("summary missing content:\n%s", s)
	}
}

func TestProfilerReset(t *testing.T) {
	p := NewProfiler()
	p.Record("k", Metrics{Duration: time.Millisecond})
	p.Reset()
	if p.TotalTime() != 0 || len(p.Kernels()) != 0 {
		t.Fatal("reset should clear the profile")
	}
}

func TestDim3Count(t *testing.T) {
	if (Dim3{}).Count() != 1 {
		t.Fatal("zero Dim3 should count as 1")
	}
	if (Dim3{X: 2, Y: 3, Z: 4}).Count() != 24 {
		t.Fatal("Dim3 product wrong")
	}
	if (Dim3{X: 5}).Count() != 5 {
		t.Fatal("1-D Dim3 wrong")
	}
}

func TestRooflineClassification(t *testing.T) {
	spec := TeslaK40c()
	d := New(spec)
	// Compute-bound: lots of flops, no DRAM traffic.
	d.MustLaunch(KernelSpec{Name: "gemm", Grid: Dim3{X: 1024}, Block: Dim3{X: 256},
		RegsPerThread: 32, FLOPs: 1e10, UsesShared: true, SharedPerBlock: 8 << 10})
	// Memory-bound: streaming copy.
	d.MustLaunch(KernelSpec{Name: "copy", Grid: Dim3{X: 1024}, Block: Dim3{X: 256},
		RegsPerThread: 16, FLOPs: 1e6, GlobalLoadBytes: 1e9, GlobalStoreBytes: 1e9})
	for _, k := range d.Prof.Kernels() {
		switch k.Name {
		case "gemm":
			if k.Bound(spec) != "compute" {
				t.Errorf("gemm classified %s", k.Bound(spec))
			}
		case "copy":
			if k.Bound(spec) != "memory" {
				t.Errorf("copy classified %s (intensity %v)", k.Bound(spec), k.ArithmeticIntensity())
			}
		}
	}
	// The ridge point of the K40c is peak/bandwidth ≈ 14.9 flops/byte.
	ridge := spec.PeakGFLOPS() / spec.MemBandwidthGBps
	if ridge < 14 || ridge > 16 {
		t.Fatalf("K40c ridge point = %v flops/byte, want ~14.9", ridge)
	}
}
