package bench

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/telemetry"
	"gpucnn/internal/tensor"
)

// fakeEngine is a controllable implementation for executor tests: it
// can sleep per iteration (to exercise cancellation and timeouts) or
// panic (to exercise isolation).
type fakeEngine struct {
	name      string
	delay     time.Duration // host sleep per iteration
	panicPlan string        // panic message thrown from Plan
	panicIter string        // panic message thrown from Iteration
}

func (f *fakeEngine) Name() string                   { return f.name }
func (f *fakeEngine) Strategy() conv.Strategy        { return conv.Direct }
func (f *fakeEngine) Supports(cfg conv.Config) error { return nil }

func (f *fakeEngine) Plan(dev *gpusim.Device, cfg conv.Config) (impls.Plan, error) {
	if f.panicPlan != "" {
		panic(f.panicPlan)
	}
	return &fakePlan{cfg: cfg, eng: f}, nil
}

func (f *fakeEngine) PlanShared(dev *gpusim.Device, cfg conv.Config) (impls.Plan, error) {
	return f.Plan(dev, cfg)
}

type fakePlan struct {
	cfg conv.Config
	eng *fakeEngine
}

func (p *fakePlan) Config() conv.Config                           { return p.cfg }
func (p *fakePlan) Forward(x, w, y *tensor.Tensor) error          { return nil }
func (p *fakePlan) BackwardData(dy, w, dx *tensor.Tensor) error   { return nil }
func (p *fakePlan) BackwardFilter(x, dy, dw *tensor.Tensor) error { return nil }
func (p *fakePlan) Release()                                      {}

func (p *fakePlan) Inference() error { return nil }

func (p *fakePlan) Iteration() error {
	if p.eng.panicIter != "" {
		panic(p.eng.panicIter)
	}
	if p.eng.delay > 0 {
		time.Sleep(p.eng.delay)
	}
	return nil
}

func smallCfg() conv.Config {
	return conv.Config{Batch: 2, Input: 8, Channels: 1, Filters: 2, Kernel: 3, Stride: 1}
}

// TestSweepDeterministicAcrossParallelism: a -j 8 sweep must place
// every cell exactly where the serial sweep does — the rendered tables
// and CSVs are byte-identical.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	cfgs := []conv.Config{
		{Batch: 32, Input: 32, Channels: 3, Filters: 16, Kernel: 3, Stride: 1},
		{Batch: 32, Input: 32, Channels: 3, Filters: 16, Kernel: 5, Stride: 1},
		{Batch: 32, Input: 32, Channels: 3, Filters: 16, Kernel: 7, Stride: 1},
	}
	value := func(c conv.Config) int { return c.Kernel }
	ctx := context.Background()
	spec := gpusim.TeslaK40c()
	serial := SweepCtx(ctx, cfgs, value, spec, Options{Workers: 1})
	parallel := SweepCtx(ctx, cfgs, value, spec, Options{Workers: 8})
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel sweep rows differ from serial rows")
	}
	for _, memory := range []bool{false, true} {
		if CSVSweep("kernel", serial, memory) != CSVSweep("kernel", parallel, memory) {
			t.Fatalf("CSV output differs between -j 1 and -j 8 (memory=%v)", memory)
		}
	}
	if RenderSweepTimes("kernel", serial) != RenderSweepTimes("kernel", parallel) {
		t.Fatal("rendered sweep differs between -j 1 and -j 8")
	}
}

// TestRunCellsPanicIsolation: a panicking engine poisons only its own
// cell; neighbours complete normally.
func TestRunCellsPanicIsolation(t *testing.T) {
	spec := gpusim.TeslaK40c()
	tasks := []Task{
		{Engine: &fakeEngine{name: "ok-a"}, Cfg: smallCfg(), Spec: spec},
		{Engine: &fakeEngine{name: "boom-plan", panicPlan: "plan exploded"}, Cfg: smallCfg(), Spec: spec},
		{Engine: &fakeEngine{name: "boom-iter", panicIter: "iteration exploded"}, Cfg: smallCfg(), Spec: spec},
		{Engine: &fakeEngine{name: "ok-b"}, Cfg: smallCfg(), Spec: spec},
	}
	cells := RunCells(context.Background(), tasks, Options{Workers: 4})
	if !cells[0].Ok() || !cells[3].Ok() {
		t.Fatalf("healthy cells poisoned: %+v / %+v", cells[0], cells[3])
	}
	if !strings.Contains(cells[1].Panic, "plan exploded") {
		t.Fatalf("cell 1 missing recovered plan panic: %+v", cells[1])
	}
	if !strings.Contains(cells[2].Panic, "iteration exploded") {
		t.Fatalf("cell 2 missing recovered iteration panic: %+v", cells[2])
	}
	for i, c := range cells {
		if c.Impl != tasks[i].Engine.Name() {
			t.Fatalf("cell %d landed out of order: %q", i, c.Impl)
		}
	}
	if cells[1].Ok() || cells[2].Ok() {
		t.Fatal("panicked cells must not be Ok")
	}
}

// TestRunCellsCancellationPrompt: cancelling the sweep context returns
// promptly and marks unfinished cells Canceled.
func TestRunCellsCancellationPrompt(t *testing.T) {
	spec := gpusim.TeslaK40c()
	var tasks []Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, Task{
			Engine: &fakeEngine{name: "slow", delay: 20 * time.Millisecond},
			Cfg:    smallCfg(), Spec: spec,
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	cells := RunCells(ctx, tasks, Options{Workers: 2})
	// Serially the sweep would take 8 cells × 10 iterations × 20 ms =
	// 16 s; a prompt cancellation must come back well under that.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
	canceled := 0
	for _, c := range cells {
		if c.Canceled {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no cell observed the cancellation")
	}
}

// TestRunCellsPerCellTimeout: a cell exceeding opt.Timeout is marked
// Canceled without affecting fast cells.
func TestRunCellsPerCellTimeout(t *testing.T) {
	spec := gpusim.TeslaK40c()
	tasks := []Task{
		{Engine: &fakeEngine{name: "fast"}, Cfg: smallCfg(), Spec: spec},
		{Engine: &fakeEngine{name: "slow", delay: 30 * time.Millisecond}, Cfg: smallCfg(), Spec: spec},
	}
	cells := RunCells(context.Background(), tasks, Options{Workers: 2, Timeout: 50 * time.Millisecond})
	if !cells[0].Ok() {
		t.Fatalf("fast cell should succeed: %+v", cells[0])
	}
	if !cells[1].Canceled {
		t.Fatalf("slow cell should hit the per-cell timeout: %+v", cells[1])
	}
}

// TestExecutorTelemetry: the worker pool records utilization and
// per-cell latency in the context's registry.
func TestExecutorTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithRegistry(context.Background(), reg)
	spec := gpusim.TeslaK40c()
	var tasks []Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, Task{Engine: &fakeEngine{name: "ok"}, Cfg: smallCfg(), Spec: spec})
	}
	RunCells(ctx, tasks, Options{Workers: 3})
	if got := reg.Gauge("bench_executor_workers", nil).Value(); got != 3 {
		t.Fatalf("bench_executor_workers = %v, want 3", got)
	}
	if got := reg.Counter("bench_executor_jobs_total", nil).Value(); got != 6 {
		t.Fatalf("bench_executor_jobs_total = %v, want 6", got)
	}
	h := reg.Histogram("bench_cell_latency_seconds", telemetry.Labels{"impl": "ok", "clock": "host"}, nil)
	if h.Count() != 6 {
		t.Fatalf("bench_cell_latency_seconds count = %d, want 6", h.Count())
	}
	util := reg.Gauge("bench_executor_utilization", telemetry.Labels{"worker": "0"}).Value()
	if util < 0 || util > 1.5 {
		t.Fatalf("worker utilization out of range: %v", util)
	}
}

// TestMeasureCtxCanceledBeforeStart: an already-cancelled context
// yields a Canceled cell immediately.
func TestMeasureCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cell := MeasureCtx(ctx, &fakeEngine{name: "ok"}, smallCfg(), gpusim.TeslaK40c())
	if !cell.Canceled || cell.Ok() {
		t.Fatalf("expected canceled cell, got %+v", cell)
	}
}

// TestSpecByNameNormalization: device names resolve case- and
// punctuation-insensitively, and the error lists the valid names.
func TestSpecByNameNormalization(t *testing.T) {
	for _, name := range []string{"TitanX", "Titanx", "TITAN-X", "titan_x", "titan x", "TitanXMaxwell"} {
		spec, err := SpecByName(name)
		if err != nil {
			t.Fatalf("SpecByName(%q): %v", name, err)
		}
		if spec.Name != gpusim.TitanXMaxwell().Name {
			t.Fatalf("SpecByName(%q) resolved %q", name, spec.Name)
		}
	}
	for _, name := range []string{"", "k40c", "K40C", "Tesla-K40c", "tesla k40c"} {
		spec, err := SpecByName(name)
		if err != nil {
			t.Fatalf("SpecByName(%q): %v", name, err)
		}
		if spec.Name != gpusim.TeslaK40c().Name {
			t.Fatalf("SpecByName(%q) resolved %q", name, spec.Name)
		}
	}
	if _, err := SpecByName("gtx1080"); err == nil {
		t.Fatal("unknown device should error")
	} else if !strings.Contains(err.Error(), "k40c") || !strings.Contains(err.Error(), "titanx") {
		t.Fatalf("error should list valid names: %v", err)
	}
}

// TestScorecardParallelMatchesSerial: the parallel scorecard grades
// every claim identically to the serial one.
func TestScorecardParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full scorecard in -short mode")
	}
	serial := ScorecardCtx(context.Background(), Options{Workers: 1})
	parallel := ScorecardCtx(context.Background(), Options{Workers: 8})
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel scorecard differs from serial scorecard")
	}
}
