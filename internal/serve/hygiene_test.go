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
		s.runBatch(0, &batch{reqs: []*request{req}, device: 0, formedAt: time.Now()})
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
}
