package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/telemetry"
	"gpucnn/internal/tensor"
)

// brokenPlan fails (or panics) on every inference pass.
type brokenPlan struct {
	cfg   conv.Config
	panic bool
}

func (p brokenPlan) Config() conv.Config { return p.cfg }
func (brokenPlan) Forward(x, w, y *tensor.Tensor) error {
	return errors.New("unused")
}
func (brokenPlan) BackwardData(dy, w, dx *tensor.Tensor) error   { return errors.New("unused") }
func (brokenPlan) BackwardFilter(x, dy, dw *tensor.Tensor) error { return errors.New("unused") }
func (brokenPlan) Iteration() error                              { return errors.New("unused") }
func (p brokenPlan) Inference() error {
	if p.panic {
		panic("engine exploded mid-batch")
	}
	return errors.New("device fault")
}
func (brokenPlan) Release() {}

// brokenEngine serves any shape but every batch it runs fails.
type brokenEngine struct{ panics bool }

func (brokenEngine) Name() string                   { return "broken" }
func (brokenEngine) Strategy() conv.Strategy        { return conv.Direct }
func (brokenEngine) Supports(cfg conv.Config) error { return nil }
func (e brokenEngine) Plan(dev *gpusim.Device, cfg conv.Config) (impls.Plan, error) {
	return brokenPlan{cfg: cfg, panic: e.panics}, nil
}
func (e brokenEngine) PlanShared(dev *gpusim.Device, cfg conv.Config) (impls.Plan, error) {
	return e.Plan(dev, cfg)
}

// TestSpanHygieneOnEngineFailure is the regression test for the PR 4
// bug class the spanend analyzer and the EndIfOpen guard exist for: a
// server whose engine fails every batch must still end every span it
// opened — a failed batch may not leak an open span into the trace.
func TestSpanHygieneOnEngineFailure(t *testing.T) {
	tr := telemetry.NewTracer()
	s := newTestServer(t, 2, Options{
		Engine:   brokenEngine{},
		MaxBatch: 4, MaxWait: time.Millisecond,
		Tracer: tr,
	})
	s.start()
	for i := 0; i < 16; i++ {
		if _, err := s.submit(context.Background(), PriorityInteractive); err == nil {
			t.Fatal("broken engine served a request without error")
		}
	}
	s.Close()

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("want one root span, got %d", len(roots))
	}
	spans := 0
	roots[0].Walk(func(_ int, sp *telemetry.Span) {
		spans++
		if !sp.Ended() {
			t.Errorf("failed batch leaked un-ended span %q", sp.Name())
		}
	})
	if spans < 2 {
		t.Fatalf("expected batch spans under the root, walked only %d spans", spans)
	}
}

// TestSpanHygieneOnEnginePanic drives runBatch directly with a plan
// that panics mid-inference and asserts the deferred EndIfOpen guard
// closes the batch span during unwinding.
func TestSpanHygieneOnEnginePanic(t *testing.T) {
	tr := telemetry.NewTracer()
	s := newTestServer(t, 1, Options{
		Engine:   brokenEngine{panics: true},
		MaxBatch: 1, MaxWait: time.Millisecond,
		Tracer: tr,
	})

	req := &request{enq: time.Now(), done: make(chan reqDone, 1)}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panicking engine did not propagate out of runBatch")
			}
		}()
		s.runBatch(0, []*request{req})
	}()

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("want one root span, got %d", len(roots))
	}
	batches := roots[0].Children()
	if len(batches) != 1 {
		t.Fatalf("want one batch span, got %d", len(batches))
	}
	if !batches[0].Ended() {
		t.Error("panic path leaked an open batch span: deferred EndIfOpen guard broken")
	}
	if s.gpus[0].dev.Sink() != nil {
		t.Error("panic path left the batch's sink attached to the device")
	}
}

// countingEngine wraps a real engine, counts Plan calls per (device,
// batch size), and fails the first Plan of batch size failBatch the way
// a shape limit or a device OOM would.
type countingEngine struct {
	impls.Engine
	failBatch int
	failed    bool
	calls     map[planKey]int
}

type planKey struct {
	dev   *gpusim.Device
	batch int
}

func (e *countingEngine) Plan(dev *gpusim.Device, cfg conv.Config) (impls.Plan, error) {
	e.calls[planKey{dev, cfg.Batch}]++
	if cfg.Batch == e.failBatch && !e.failed {
		e.failed = true
		return nil, errors.New("device out of memory")
	}
	return e.Engine.Plan(dev, cfg)
}

// TestDevicePlansReuseAndRelease: each device of a replica builds one
// plan per batch size and reuses it across batches, a failed Plan is
// not cached, and Close returns every device's memory.
func TestDevicePlansReuseAndRelease(t *testing.T) {
	e := &countingEngine{Engine: impls.NewCuDNN(), failBatch: 3, calls: map[planKey]int{}}
	s := newTestServer(t, 2, Options{Engine: e, MaxBatch: 4, TimeScale: -1})
	run := func(dev, size int) error {
		reqs := make([]*request, size)
		for k := range reqs {
			reqs[k] = &request{enq: time.Now(), done: make(chan reqDone, 1)}
		}
		s.runBatch(dev, reqs)
		return (<-reqs[0].done).err
	}
	if err := run(0, 3); err == nil {
		t.Fatal("a batch whose plan failed was served")
	}
	for round := 0; round < 3; round++ {
		for dev := range s.gpus {
			for _, size := range []int{2, 3} {
				if err := run(dev, size); err != nil {
					t.Fatalf("device %d, batch %d: %v", dev, size, err)
				}
			}
		}
	}
	for dev, g := range s.gpus {
		for _, size := range []int{2, 3} {
			want := 1
			if dev == 0 && size == 3 {
				want = 2 // the failed Plan and the one that replaced it
			}
			if got := e.calls[planKey{g.dev, size}]; got != want {
				t.Errorf("device %d, batch %d: %d Plan calls, want %d", dev, size, got, want)
			}
		}
		if g.dev.Mem.Used() == 0 {
			t.Errorf("device %d holds no plan memory before Close", dev)
		}
	}
	s.Close()
	for dev, g := range s.gpus {
		if used := g.dev.Mem.Used(); used != 0 {
			t.Errorf("device %d still holds %d bytes after Close", dev, used)
		}
	}
}
