package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/multigpu"
	"gpucnn/internal/obs"
	"gpucnn/internal/telemetry"
)

// testModel is a small CIFAR-scale layer: cheap enough that tests are
// fast, big enough that batching amortisation is visible.
func testModel() conv.Config {
	return conv.Config{Input: 32, Channels: 3, Filters: 32, Kernel: 5, Stride: 1, Pad: 2}
}

// testPlane is a plane over a fresh registry, so a test's metrics
// start from zero.
func testPlane() *obs.Plane { return obs.NewPlane(telemetry.NewRegistry()) }

// newTestServer builds a server over its own plane (unless opts brings
// one) with manual SLO evaluation.
func newTestServer(t *testing.T, devices int, opts Options) *Server {
	t.Helper()
	if (opts.Model == conv.Config{}) {
		opts.Model = testModel()
	}
	if opts.Obs == nil {
		opts.Obs = testPlane()
	}
	if opts.SLO.Interval == 0 {
		opts.SLO.Interval = -1
	}
	s, err := New(multigpu.New(devices, gpusim.TeslaK40c()), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestBatchFormsOnMaxBatch: with a deadline far away, the batch must
// flush the moment it fills.
func TestBatchFormsOnMaxBatch(t *testing.T) {
	s := newTestServer(t, 1, Options{MaxBatch: 4, MaxWait: 10 * time.Second})
	s.Start()
	var wg sync.WaitGroup
	results := make([]Result, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Submit(context.Background())
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			results[i] = r
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch never flushed: max-batch trigger broken")
	}
	for i, r := range results {
		if r.BatchSize != 4 {
			t.Errorf("request %d rode a batch of %d, want 4", i, r.BatchSize)
		}
	}
}

// TestBatchFlushesOnDeadline: a lone request must be served after
// roughly MaxWait even though the batch never fills.
func TestBatchFlushesOnDeadline(t *testing.T) {
	const wait = 30 * time.Millisecond
	s := newTestServer(t, 1, Options{MaxBatch: 64, MaxWait: wait})
	s.Start()
	start := time.Now()
	r, err := s.Submit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	if r.BatchSize != 1 {
		t.Fatalf("lone request rode a batch of %d", r.BatchSize)
	}
	if el < wait {
		t.Fatalf("served in %v, before the %v deadline", el, wait)
	}
	if el > wait+2*time.Second {
		t.Fatalf("deadline flush took %v", el)
	}
}

// TestAdmissionControl: with no batcher running, the bounded queue
// must accept exactly QueueCap requests and reject the next with
// ErrOverloaded; once started, everything admitted must be served.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, 1, Options{MaxBatch: 8, MaxWait: time.Millisecond, QueueCap: 8})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(ctx)
			errs <- err
		}()
	}
	// Wait until all 8 are actually queued before probing the 9th.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) < 8 {
		if time.Now().After(deadline) {
			t.Fatal("requests never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("9th request on a full queue: err=%v, want ErrOverloaded", err)
	}
	s.Start()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	if st := s.Stats(); st.Rejected != 1 || st.Completed != 8 {
		t.Fatalf("stats = %+v, want 1 rejected / 8 completed", st)
	}
}

// TestSubmitAfterClose returns ErrClosed, and Close drains admitted
// requests rather than abandoning them.
func TestSubmitAfterClose(t *testing.T) {
	s := newTestServer(t, 1, Options{MaxBatch: 4, MaxWait: time.Millisecond})
	s.Start()
	if _, err := s.Submit(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestLeastLoadedSpread: under sustained concurrent load every device
// of the cluster must end up serving batches.
func TestLeastLoadedSpread(t *testing.T) {
	s := newTestServer(t, 4, Options{MaxBatch: 4, MaxWait: 500 * time.Microsecond})
	rep := RunLoad(context.Background(), s, LoadOptions{Clients: 32, Requests: 256})
	if rep.Completed != 256 {
		t.Fatalf("completed %d of 256", rep.Completed)
	}
	st := s.Stats()
	for i, b := range st.Batches {
		if b == 0 {
			t.Errorf("device %d served no batches: %+v", i, st)
		}
	}
}

// TestUnsupportedEngineRejectedUpFront: an engine with shape limits
// that would fail a deadline flush (batch 1) must be rejected by New.
func TestUnsupportedEngineRejectedUpFront(t *testing.T) {
	c := multigpu.New(1, gpusim.TeslaK40c())
	_, err := New(c, Options{
		Engine: shapeLimitedEngine{},
		Model:  testModel(),
	})
	if err == nil {
		t.Fatal("engine that cannot serve batch=1 must be rejected")
	}
}

// TestTelemetry: spans exist per batch with kernel events attached and
// all ended; registry carries the serving metric surface.
func TestTelemetry(t *testing.T) {
	tr := telemetry.NewTracer()
	plane := testPlane()
	reg := plane.Registry()
	s := newTestServer(t, 2, Options{
		MaxBatch: 4, MaxWait: time.Millisecond,
		Tracer: tr, Obs: plane,
	})
	rep := RunLoad(context.Background(), s, LoadOptions{Clients: 8, Requests: 64})
	if rep.Completed != 64 {
		t.Fatalf("completed %d of 64", rep.Completed)
	}
	s.Close()

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name() != "serve" {
		t.Fatalf("want one 'serve' root span, got %d", len(roots))
	}
	batches := roots[0].Children()
	if len(batches) == 0 {
		t.Fatal("no batch spans recorded")
	}
	reqSpans := 0
	for _, b := range batches {
		if tot := b.Totals(); tot.Kernels == 0 || tot.Transfers == 0 {
			t.Errorf("batch span %q missing device events: %+v", b.Name(), tot)
		}
		for _, c := range b.Children() {
			if c.Name() == "request" {
				reqSpans++
			}
		}
	}
	if reqSpans != 64 {
		t.Errorf("want 64 request spans across batches, got %d", reqSpans)
	}
	roots[0].Walk(func(_ int, sp *telemetry.Span) {
		if !sp.Ended() {
			t.Errorf("span %q left un-ended", sp.Name())
		}
	})

	for i, dev := range s.Cluster().Devices {
		if dev.Sink() != nil {
			t.Errorf("device %d sink still attached after close", i)
		}
	}

	if v := reg.Counter("serve_images_total", telemetry.Labels{"engine": "cuDNN"}).Value(); v != 64 {
		t.Errorf("serve_images_total = %v, want 64", v)
	}
	if h := reg.Histogram("serve_e2e_latency_seconds", telemetry.Labels{"engine": "cuDNN", "clock": "host"}, nil); h.Count() != 64 {
		t.Errorf("e2e histogram count = %d, want 64", h.Count())
	}
	busy := 0.0
	for i := 0; i < 2; i++ {
		busy += reg.Counter("serve_device_busy_seconds_total",
			telemetry.Labels{"engine": "cuDNN", "device": []string{"0", "1"}[i], "clock": "sim"}).Value()
	}
	if busy <= 0 {
		t.Error("no simulated busy time accumulated")
	}
}

// TestDynamicBatchingBeatsBatchOne is the acceptance check: on the
// same cluster and model, dynamic batching must deliver a multiple of
// the batch=1 baseline's simulated throughput while its p99 queue wait
// stays bounded by the max-wait knob (plus generous scheduler slack).
func TestDynamicBatchingBeatsBatchOne(t *testing.T) {
	run := func(maxBatch int, maxWait time.Duration) Report {
		s := newTestServer(t, 2, Options{MaxBatch: maxBatch, MaxWait: maxWait})
		defer s.Close()
		return RunLoad(context.Background(), s, LoadOptions{Clients: 64, Requests: 512})
	}
	base := run(1, time.Millisecond)
	dyn := run(32, 2*time.Millisecond)
	if base.Completed != 512 || dyn.Completed != 512 {
		t.Fatalf("incomplete runs: base %d, dyn %d", base.Completed, dyn.Completed)
	}
	if dyn.MeanBatch < 2 {
		t.Fatalf("dynamic batcher never batched: mean batch %.1f", dyn.MeanBatch)
	}
	if dyn.SimImagesPerSec < 1.5*base.SimImagesPerSec {
		t.Fatalf("dynamic batching %.0f sim img/s does not beat batch=1 %.0f sim img/s",
			dyn.SimImagesPerSec, base.SimImagesPerSec)
	}
	// Bounded latency: p99 queue wait within max-wait plus service and
	// a generous scheduling margin.
	if limit := 2*time.Millisecond + 500*time.Millisecond; dyn.QueueP99 > limit {
		t.Fatalf("dynamic p99 queue wait %v exceeds bound %v", dyn.QueueP99, limit)
	}
}

// TestStartAfterCloseIsNoop: once Close has run, Start must not spawn
// workers over the closed queue.
func TestStartAfterCloseIsNoop(t *testing.T) {
	s := newTestServer(t, 1, Options{MaxBatch: 4, MaxWait: time.Millisecond})
	s.Close()
	s.Start()
	if _, err := s.Submit(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close+start: %v, want ErrClosed", err)
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("second Close hung: Start-after-Close spawned workers")
	}
}

// TestStartCloseRaceStress is the regression test for the Close/Start
// race: Close used to read started *after* closing the queue, so a
// Start slipping in between could spawn a batchLoop draining the queue
// alongside Close's manual drain (and Add to the WaitGroup Close was
// already Waiting on). Run under -race in the tier-1 gate; every
// interleaving must resolve every request exactly once and shut down
// cleanly.
func TestStartCloseRaceStress(t *testing.T) {
	for iter := 0; iter < 30; iter++ {
		s, err := New(multigpu.New(1, gpusim.TeslaK40c()), Options{
			Model: testModel(), MaxBatch: 4, MaxWait: 200 * time.Microsecond,
			QueueCap: 8, TimeScale: -1, Obs: testPlane(), SLO: SLOConfig{Disable: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		gate := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate
				_, _ = s.Submit(ctx) // served, ErrClosed or ErrOverloaded — all fine
			}()
		}
		wg.Add(2)
		go func() { defer wg.Done(); <-gate; s.Start() }()
		go func() { defer wg.Done(); <-gate; s.Close() }()
		close(gate)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("iter %d: Start/Close race deadlocked the server", iter)
		}
		cancel()
		s.Close()
	}
}

// TestPrioritySheddingOrder: with the batcher withheld the queue fills
// deterministically, and the admission limits must shed batch traffic
// at half capacity, standard at 7/8, and interactive only when full.
func TestPrioritySheddingOrder(t *testing.T) {
	s := newTestServer(t, 1, Options{MaxBatch: 4, QueueCap: 16, TimeScale: -1})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // admitted submits return immediately; queued slots persist

	fill := func(n int, pr Priority) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.SubmitPriority(cancelled, pr); !errors.Is(err, context.Canceled) {
				t.Fatalf("fill at depth %d class %v: %v", len(s.queue), pr, err)
			}
		}
	}

	fill(8, PriorityInteractive) // depth 8 = cap/2: batch limit reached
	if _, err := s.SubmitPriority(cancelled, PriorityBatch); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch at half-full queue: %v, want ErrOverloaded", err)
	}
	fill(6, PriorityStandard) // depth 14 = cap−cap/8: standard limit
	if _, err := s.SubmitPriority(cancelled, PriorityStandard); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("standard at 7/8-full queue: %v, want ErrOverloaded", err)
	}
	fill(2, PriorityInteractive) // depth 16: full
	if _, err := s.SubmitPriority(cancelled, PriorityInteractive); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("interactive at full queue: %v, want ErrOverloaded", err)
	}

	for pr := PriorityBatch; pr <= PriorityInteractive; pr++ {
		labels := telemetry.Labels{"engine": "cuDNN", "priority": pr.String()}
		if got := s.plane.Registry().Counter("serve_rejected_total", labels).Value(); got != 1 {
			t.Errorf("serve_rejected_total%v = %v, want 1", labels, got)
		}
	}
	s.Start() // drain the queued requests before Cleanup closes
}

// shapeLimitedEngine rejects batch sizes below 32 (the cuda-convnet2
// style constraint that makes deadline flushes unservable).
type shapeLimitedEngine struct{}

func (shapeLimitedEngine) Name() string            { return "limited" }
func (shapeLimitedEngine) Strategy() conv.Strategy { return conv.Direct }
func (shapeLimitedEngine) Supports(cfg conv.Config) error {
	if cfg.Batch%32 != 0 {
		return errors.New("batch must be a multiple of 32")
	}
	return nil
}
func (shapeLimitedEngine) Plan(dev *gpusim.Device, cfg conv.Config) (impls.Plan, error) {
	return nil, errors.New("unused")
}
func (shapeLimitedEngine) PlanShared(dev *gpusim.Device, cfg conv.Config) (impls.Plan, error) {
	return nil, errors.New("unused")
}
