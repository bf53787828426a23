package planner

import (
	"strings"
	"testing"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/telemetry"
	"gpucnn/internal/workload"
)

func k40c() gpusim.DeviceSpec { return gpusim.TeslaK40c() }

func decide(t *testing.T, p *Planner, cfg conv.Config) Decision {
	t.Helper()
	d, err := p.Decide(k40c(), cfg)
	if err != nil {
		t.Fatalf("Decide(%v): %v", cfg, err)
	}
	return d
}

// TestCrossoversTableI pins the planner's choice on the paper's five
// Table I shapes: FFT takes the large-kernel layers (Conv1 k=11,
// Conv3 k=9, Conv4 k=7), Winograd the 3x3 layers (Conv2, Conv5) —
// the per-shape flipping the paper's Section V guidance describes,
// now derived from the cost model instead of prose rules.
func TestCrossoversTableI(t *testing.T) {
	want := map[string]struct {
		engine   string
		strategy conv.Strategy
	}{
		"Conv1": {"fbfft", conv.FFT},
		"Conv2": {"cuDNN-Winograd", conv.Direct},
		"Conv3": {"fbfft", conv.FFT},
		"Conv4": {"fbfft", conv.FFT},
		"Conv5": {"cuDNN-Winograd", conv.Direct},
	}
	p := New(Options{Cache: NewCache()})
	for _, nc := range workload.TableI() {
		d := decide(t, p, nc.Cfg)
		w := want[nc.Name]
		if d.Engine != w.engine || d.Strategy != w.strategy {
			t.Errorf("%s %v: picked %s (%s), want %s (%s)",
				nc.Name, nc.Cfg, d.Engine, d.Strategy, w.engine, w.strategy)
		}
		if d.Predicted <= 0 {
			t.Errorf("%s: no predicted cost on the decision", nc.Name)
		}
	}
}

// TestKernelCrossover pins the FFT crossover on the Figure 3d sweep:
// below k=7 the transform overhead loses to spatial strategies
// (Winograd at 3, direct at 5); from k=7 up fbfft wins — the
// kernel-size boundary Zlateski et al.'s FFT analysis predicts and the
// paper's "large kernels -> fbfft" guidance draws at the same point.
func TestKernelCrossover(t *testing.T) {
	p := New(Options{Cache: NewCache()})
	for _, cfg := range workload.KernelSweep() {
		d := decide(t, p, cfg)
		if cfg.Kernel >= 7 {
			if d.Strategy != conv.FFT {
				t.Errorf("k=%d: picked %s (%s), want an FFT engine", cfg.Kernel, d.Engine, d.Strategy)
			}
			continue
		}
		if d.Strategy == conv.FFT {
			t.Errorf("k=%d: picked %s (fft), want a spatial strategy below the crossover", cfg.Kernel, d.Engine)
		}
	}
	// The boundary cells themselves.
	base := workload.Base()
	base.Kernel = 3
	if d := decide(t, p, base); d.Engine != "cuDNN-Winograd" {
		t.Errorf("k=3: picked %s, want cuDNN-Winograd", d.Engine)
	}
	base.Kernel = 7
	if d := decide(t, p, base); d.Engine != "fbfft" {
		t.Errorf("k=7: picked %s, want fbfft", d.Engine)
	}
}

// TestStrideExcludesFFT: FFT engines cannot run strides above 1, so
// every strided cell must fall to a spatial strategy (cuDNN on the
// Figure 3e shapes), with the FFT candidates recorded as skipped
// rather than silently absent.
func TestStrideExcludesFFT(t *testing.T) {
	p := New(Options{Cache: NewCache()})
	for _, cfg := range workload.StrideSweep() {
		d := decide(t, p, cfg)
		if cfg.Stride == 1 {
			continue
		}
		if d.Strategy == conv.FFT {
			t.Fatalf("s=%d: picked FFT engine %s for a strided layer", cfg.Stride, d.Engine)
		}
		if d.Engine != "cuDNN" {
			t.Errorf("s=%d: picked %s, want cuDNN", cfg.Stride, d.Engine)
		}
		skipped := 0
		for _, c := range d.Candidates {
			if c.Strategy == conv.FFT && c.Skipped != "" {
				skipped++
			}
		}
		if skipped != 2 {
			t.Errorf("s=%d: %d FFT candidates recorded skipped, want 2 (fbfft, Theano-fft)", cfg.Stride, skipped)
		}
	}
}

// TestDecisionCacheDeterminism: repeating a decision hits the cache —
// no engine is re-scored and the verdict is identical.
func TestDecisionCacheDeterminism(t *testing.T) {
	small := conv.Config{Batch: 2, Input: 16, Channels: 4, Filters: 8, Kernel: 3, Stride: 1}
	p := New(Options{Cache: NewCache()})

	first, err := p.Decide(k40c(), small)
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache {
		t.Fatal("first decision claims to come from the cache")
	}
	scored := p.Scored()
	if scored == 0 {
		t.Fatal("first decision scored no candidates")
	}

	second, err := p.Decide(k40c(), small)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromCache {
		t.Error("repeated decision missed the cache")
	}
	if p.Scored() != scored {
		t.Errorf("repeated decision re-scored: %d -> %d evaluations", scored, p.Scored())
	}
	if second.Engine != first.Engine || second.Predicted != first.Predicted {
		t.Errorf("cache returned a different verdict: %s/%v vs %s/%v",
			second.Engine, second.Predicted, first.Engine, first.Predicted)
	}
	stats := p.Cache().Stats()
	if stats.Entries != 1 || stats.Hits != 1 || stats.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 entry, 1 hit, 1 miss", stats)
	}
}

// TestDecisionsPerDevice: the cache keys on the device, so a
// small-memory spec gets its own decision — and one that skips
// engines whose footprint no longer fits.
func TestDecisionsPerDevice(t *testing.T) {
	p := New(Options{Cache: NewCache()})
	cfg := workload.Base() // k=11: fbfft on the full K40c

	if d := decide(t, p, cfg); d.Engine != "fbfft" {
		t.Fatalf("K40c pick = %s, want fbfft", d.Engine)
	}
	small := k40c()
	small.Name = "small-mem"
	small.GlobalMemBytes = 600 << 20
	d, err := p.Decide(small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy == conv.FFT {
		t.Errorf("600 MB device picked FFT engine %s; its grids cannot fit", d.Engine)
	}
	var fbfft *Candidate
	for i := range d.Candidates {
		if d.Candidates[i].Engine == "fbfft" {
			fbfft = &d.Candidates[i]
		}
	}
	if fbfft == nil || fbfft.Skipped == "" {
		t.Error("fbfft should be recorded as skipped (OOM) on the small device")
	}
	if got := p.Cache().Stats().Entries; got != 2 {
		t.Errorf("cache entries = %d, want one per device", got)
	}
}

// TestAutotunedInRegistry: the planner registers the eighth engine.
func TestAutotunedInRegistry(t *testing.T) {
	e, err := impls.ByName("autotuned")
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "Autotuned" {
		t.Errorf("ByName returned %q", e.Name())
	}
	found := false
	for _, x := range impls.Extensions() {
		if x.Name() == "Autotuned" {
			found = true
		}
	}
	if !found {
		t.Error("Autotuned missing from impls.Extensions()")
	}
	if _, err := impls.ByName("nope"); err == nil || !strings.Contains(err.Error(), "Autotuned") {
		t.Errorf("unknown-engine error %v does not list Autotuned", err)
	}
}

// TestAutotunedDelegatesAndReportsStrategy: planning through the
// engine runs the winner's kernels on the caller's device and makes
// Strategy() track the delegation.
func TestAutotunedDelegatesAndReportsStrategy(t *testing.T) {
	e := NewAutotuned(Options{Cache: NewCache()})
	if got := e.Strategy(); got != conv.Unrolling {
		t.Errorf("pre-plan Strategy() = %v, want unrolling fallback", got)
	}
	dev := gpusim.New(k40c())
	p, err := e.Plan(dev, workload.Base()) // k=11 -> fbfft
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Iteration(); err != nil {
		t.Fatal(err)
	}
	p.Release()
	found := false
	for _, k := range dev.Prof.Kernels() {
		if strings.Contains(k.Name, "decimateInFrequency") {
			found = true
		}
	}
	if !found {
		t.Fatal("autotuned at k=11 should have delegated to fbfft")
	}
	if got := e.Strategy(); got != conv.FFT {
		t.Errorf("Strategy() after FFT delegation = %v, want fft", got)
	}
	// The decision overhead must not leak onto the caller's device:
	// only the delegated plan's kernels may appear there.
	strided := workload.Base()
	strided.Stride = 2
	dev2 := gpusim.New(k40c())
	p2, err := e.Plan(dev2, strided)
	if err != nil {
		t.Fatal(err)
	}
	p2.Release()
	if n := dev2.Launches(); n != 0 {
		t.Errorf("planning launched %d kernels on the caller's device before any pass", n)
	}
	if got := e.Strategy(); got != conv.Unrolling {
		t.Errorf("Strategy() after strided delegation = %v, want unrolling", got)
	}
}

// TestAutotunedSpanAttributes: a telemetry recorder installed on the
// device (the bench.MeasureCtx path) receives the decision as span
// attributes — engine, strategy, predicted cost, cache state.
func TestAutotunedSpanAttributes(t *testing.T) {
	e := NewAutotuned(Options{Cache: NewCache()})
	dev := gpusim.New(k40c())
	tr := telemetry.NewTracer()
	root := tr.Root("measure")
	rec := telemetry.NewRecorder()
	rec.Attach(root)
	dev.SetSink(rec)

	p, err := e.Plan(dev, workload.Base())
	if err != nil {
		t.Fatal(err)
	}
	p.Release()
	root.End()

	if got := root.Attr("planner.engine"); got != "fbfft" {
		t.Errorf("planner.engine attr = %q, want fbfft", got)
	}
	if got := root.Attr("planner.strategy"); got != "fft" {
		t.Errorf("planner.strategy attr = %q, want fft", got)
	}
	if root.Attr("planner.predicted") == "" {
		t.Error("planner.predicted attr missing")
	}
	if got := root.Attr("planner.cached"); got != "false" {
		t.Errorf("planner.cached attr = %q, want false on first plan", got)
	}
}

// TestPlanCachePathSharesDecisions: the per-device plans of two
// serving replicas, backed by planners sharing one decision cache,
// score each configuration exactly once.
func TestPlanCachePathSharesDecisions(t *testing.T) {
	shared := NewCache()
	engineA := NewAutotuned(Options{Cache: shared})
	engineB := NewAutotuned(Options{Cache: shared})
	cfg := conv.Config{Batch: 4, Input: 32, Channels: 3, Filters: 8, Kernel: 5, Stride: 1}

	plannerA, ok := PlannerOf(engineA)
	if !ok {
		t.Fatal("PlannerOf failed on an Autotuned engine")
	}
	plannerB, _ := PlannerOf(engineB)

	devA, devB := gpusim.New(k40c()), gpusim.New(k40c())
	pa, err := engineA.Plan(devA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa.Release()
	scoredAfterA := plannerA.Scored()
	if scoredAfterA == 0 {
		t.Fatal("replica A's planner scored nothing")
	}
	pb, err := engineB.Plan(devB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pb.Release()
	if plannerB.Scored() != 0 {
		t.Errorf("replica B re-scored %d candidates despite the shared cache", plannerB.Scored())
	}
	if stats := shared.Stats(); stats.Misses != 1 || stats.Hits != 1 {
		t.Errorf("shared cache stats = %+v, want exactly one miss and one hit", stats)
	}
}
