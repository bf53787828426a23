package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/telemetry"
)

func TestPercentile(t *testing.T) {
	xs := []time.Duration{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 3},
		{1, 5},
		{0.99, 5},
		{0.2, 1},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample p50 = %v", got)
	}
}

// TestPercentileNearestRank pins the ⌈n·q⌉ nearest-rank definition
// against hand-computed quantiles. The regression case is a rank whose
// fractional part is below 0.5 (n=7, q=0.3 → rank ⌈2.1⌉ = 3): the old
// rounded-rank formula picked the 2nd smallest sample instead of the
// 3rd, under-reporting the tail.
func TestPercentileNearestRank(t *testing.T) {
	xs7 := []time.Duration{70, 10, 50, 30, 60, 20, 40} // sorted: 10..70
	xs4 := []time.Duration{40, 10, 30, 20}
	cases := []struct {
		name string
		xs   []time.Duration
		q    float64
		want time.Duration
	}{
		{"n7 q0.30 rank ceil(2.1)=3", xs7, 0.30, 30},
		{"n7 q0.25 rank ceil(1.75)=2", xs7, 0.25, 20},
		{"n7 q0.50 rank ceil(3.5)=4", xs7, 0.50, 40},
		{"n7 q0.99 rank ceil(6.93)=7", xs7, 0.99, 70},
		{"n7 q1.00 rank 7", xs7, 1.00, 70},
		{"n7 q0.01 rank ceil(0.07)=1", xs7, 0.01, 10},
		{"n4 q0.50 rank ceil(2)=2", xs4, 0.50, 20},
		{"n4 q0.51 rank ceil(2.04)=3", xs4, 0.51, 30},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// flakyPlan fails its first shared-countdown Inference calls, then
// delegates to the real plan.
type flakyPlan struct {
	impls.Plan
	failures *atomic.Int64
}

func (p flakyPlan) Inference() error {
	if p.failures.Add(-1) >= 0 {
		return errors.New("transient device fault")
	}
	return p.Plan.Inference()
}

// flakyEngine wraps a real engine so that the first N batches anywhere
// on the cluster fail wholesale.
type flakyEngine struct {
	impls.Engine
	failures *atomic.Int64
}

func (e flakyEngine) Plan(dev *gpusim.Device, cfg conv.Config) (impls.Plan, error) {
	p, err := e.Engine.Plan(dev, cfg)
	if err != nil {
		return nil, err
	}
	return flakyPlan{Plan: p, failures: e.failures}, nil
}

func (e flakyEngine) PlanShared(dev *gpusim.Device, cfg conv.Config) (impls.Plan, error) {
	return e.Plan(dev, cfg)
}

// TestRunLoadQuotaSurvivesEngineFailures is the quota-leak regression
// test: a Requests-bounded run whose engine fails some batches must
// still finish with exactly the requested completions — a failed
// submission may not consume a completion slot. Pre-fix, the default
// error branch never restored the slot and the run finished short.
func TestRunLoadQuotaSurvivesEngineFailures(t *testing.T) {
	var failures atomic.Int64
	failures.Store(3) // first three batches fail wholesale
	s := newTestServer(t, 1, Options{
		Engine:   flakyEngine{Engine: impls.NewCuDNN(), failures: &failures},
		MaxBatch: 8, MaxWait: time.Millisecond, TimeScale: -1,
	})
	rep := RunLoad(context.Background(), s, LoadOptions{Clients: 8, Requests: 64})
	if rep.Failed == 0 {
		t.Fatal("engine never failed a request; the regression test is vacuous")
	}
	if rep.Completed != 64 {
		t.Fatalf("quota leak: completed %d of 64 (failed %d counted against the quota)",
			rep.Completed, rep.Failed)
	}
}

// TestRunLoadQuota: the request-count mode completes exactly the quota
// and reports consistent aggregates.
func TestRunLoadQuota(t *testing.T) {
	s := newTestServer(t, 2, Options{MaxBatch: 8, MaxWait: time.Millisecond})
	rep := RunLoad(context.Background(), s, LoadOptions{Clients: 16, Requests: 128})
	if rep.Completed != 128 {
		t.Fatalf("completed %d, want 128", rep.Completed)
	}
	if rep.ThroughputRPS <= 0 || rep.SimImagesPerSec <= 0 {
		t.Fatalf("throughput not computed: %+v", rep)
	}
	if rep.P50 > rep.P99 || rep.P99 > rep.Max {
		t.Fatalf("percentiles not ordered: p50=%v p99=%v max=%v", rep.P50, rep.P99, rep.Max)
	}
	if rep.MeanBatch < 1 || rep.MeanBatch > 8 {
		t.Fatalf("mean batch %v outside [1,8]", rep.MeanBatch)
	}
}

// TestRunLoadDuration: the wall-window mode stops near the deadline
// and still drains cleanly.
func TestRunLoadDuration(t *testing.T) {
	s := newTestServer(t, 1, Options{MaxBatch: 8, MaxWait: 500 * time.Microsecond})
	start := time.Now()
	rep := RunLoad(context.Background(), s, LoadOptions{Clients: 4, Duration: 100 * time.Millisecond})
	el := time.Since(start)
	if rep.Completed == 0 {
		t.Fatal("no requests completed in the window")
	}
	if el > 5*time.Second {
		t.Fatalf("run overshot its window: %v", el)
	}
}

// TestRunLoadExportsHeadlines: the headline gauges land in the
// server's registry — the acceptance criterion's export path.
func TestRunLoadExportsHeadlines(t *testing.T) {
	s := newTestServer(t, 1, Options{MaxBatch: 8, MaxWait: time.Millisecond})
	reg := s.plane.Registry()
	rep := RunLoad(context.Background(), s, LoadOptions{Clients: 8, Requests: 64})
	labels := telemetry.Labels{"engine": "cuDNN"}
	if g := reg.Gauge("serve_load_sim_images_per_second", labels).Value(); g != rep.SimImagesPerSec || g <= 0 {
		t.Fatalf("sim img/s gauge %v, report %v", g, rep.SimImagesPerSec)
	}
	if g := reg.Gauge("serve_load_p99_seconds", labels.With("clock", "host")).Value(); g != rep.P99.Seconds() {
		t.Fatalf("p99 gauge %v, report %v", g, rep.P99.Seconds())
	}
	if g := reg.Gauge("serve_load_throughput_rps", labels).Value(); g != rep.ThroughputRPS {
		t.Fatalf("throughput gauge %v, report %v", g, rep.ThroughputRPS)
	}
}
