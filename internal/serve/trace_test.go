package serve

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/telemetry"
)

// TestBuildTraceDeterminism: the schedule is a pure function of the
// options — replaying an experiment means rebuilding its trace.
func TestBuildTraceDeterminism(t *testing.T) {
	opts := TraceOptions{
		Shape: ShapeDiurnal, BaseRPS: 500, Duration: time.Second,
		Seed: 42, HeavyTailP: 0.1,
	}
	a, b := BuildTrace(opts), BuildTrace(opts)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("arrivals not monotonic at %d: %v < %v", i, a[i].At, a[i-1].At)
		}
	}
	for _, ar := range a {
		if ar.At < 0 || ar.At >= opts.Duration {
			t.Fatalf("arrival %v outside [0,%v)", ar.At, opts.Duration)
		}
		if ar.Key == "" {
			t.Fatal("arrival with empty routing key")
		}
	}
	opts.Seed = 43
	if c := BuildTrace(opts); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestBuildTraceShapes checks each curve's signature property by
// counting arrivals per region of the run.
func TestBuildTraceShapes(t *testing.T) {
	count := func(tr []Arrival, lo, hi float64, d time.Duration) int {
		n := 0
		for _, a := range tr {
			x := a.At.Seconds() / d.Seconds()
			if x >= lo && x < hi {
				n++
			}
		}
		return n
	}
	d := 2 * time.Second

	ramp := BuildTrace(TraceOptions{Shape: ShapeRamp, BaseRPS: 200, PeakRPS: 2000, Duration: d, Seed: 7})
	if lo, hi := count(ramp, 0, 0.5, d), count(ramp, 0.5, 1, d); hi < 2*lo {
		t.Errorf("ramp second half (%d) not ≫ first half (%d)", hi, lo)
	}

	burst := BuildTrace(TraceOptions{Shape: ShapeBurst, BaseRPS: 200, PeakRPS: 2000, Duration: d, Seed: 7})
	mid := count(burst, 0.4, 0.6, d)
	edges := count(burst, 0, 0.4, d) + count(burst, 0.6, 1, d)
	midRate, edgeRate := float64(mid)/0.2, float64(edges)/0.8
	if midRate < 2*edgeRate {
		t.Errorf("burst plateau density %.0f not ≫ edge density %.0f", midRate, edgeRate)
	}

	steady := BuildTrace(TraceOptions{Shape: ShapeSteady, BaseRPS: 1000, Duration: d, Seed: 7})
	got := float64(len(steady)) / d.Seconds()
	if got < 700 || got > 1300 {
		t.Errorf("steady 1000 RPS trace realised %.0f RPS", got)
	}
}

// TestBuildTracePriorityMix: the class split tracks the configured
// fractions and every class appears.
func TestBuildTracePriorityMix(t *testing.T) {
	tr := BuildTrace(TraceOptions{
		BaseRPS: 2000, Duration: 2 * time.Second, Seed: 11,
		InteractiveFrac: 0.5, StandardFrac: 0.3,
	})
	var byClass [3]int
	for _, a := range tr {
		byClass[a.Pri.index()]++
	}
	n := float64(len(tr))
	for pr, want := range map[Priority]float64{
		PriorityInteractive: 0.5, PriorityStandard: 0.3, PriorityBatch: 0.2,
	} {
		got := float64(byClass[pr.index()]) / n
		if got < want-0.1 || got > want+0.1 {
			t.Errorf("%s fraction %.2f, want %.2f±0.1", pr, got, want)
		}
	}
}

// TestTraceShapeByName round-trips every shape and rejects junk.
func TestTraceShapeByName(t *testing.T) {
	for sh := ShapeSteady; sh <= ShapeBurst; sh++ {
		got, err := TraceShapeByName(sh.String())
		if err != nil || got != sh {
			t.Errorf("round-trip %v: got %v, %v", sh, got, err)
		}
	}
	if _, err := TraceShapeByName("sawtooth"); err == nil {
		t.Error("unknown shape accepted")
	}
}

// TestRunTraceAgainstFleet replays a short steady trace open-loop
// against a two-replica fleet and checks the report reconciles.
func TestRunTraceAgainstFleet(t *testing.T) {
	f, err := NewFleet(FleetOptions{
		Replicas: 2, ShardDevices: 2,
		Server: Options{
			Model: testModel(), MaxBatch: 16, MaxWait: 500 * time.Microsecond,
			QueueCap: 1024, TimeScale: -1,
			Obs: testPlane(), SLO: SLOConfig{Interval: -1},
		},
		Autoscale: AutoscaleConfig{Min: 2, Max: 2, Interval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rep := RunTrace(context.Background(), f, TraceOptions{
		Shape: ShapeSteady, BaseRPS: 2000, Duration: 300 * time.Millisecond, Seed: 3,
	})
	if rep.Offered == 0 || rep.Completed == 0 {
		t.Fatalf("trace did not serve: %+v", rep)
	}
	if rep.Completed+rep.Shed+rep.Failed != rep.Offered {
		t.Fatalf("report does not reconcile: %+v", rep)
	}
	if rep.Failed != 0 {
		t.Fatalf("unexpected hard failures: %+v", rep)
	}
	if rep.P50 > rep.P95 || rep.P95 > rep.P99 || rep.P99 > rep.Max || rep.QueueP50 > rep.QueueP99 {
		t.Fatalf("percentiles not ordered: %+v", rep)
	}
	if rep.ThroughputRPS <= 0 || rep.SimImagesPerSec <= 0 {
		t.Fatalf("throughput not computed: %+v", rep)
	}
	if rep.MeanBatch < 1 || rep.MeanBatch > 16 {
		t.Fatalf("mean batch %v outside [1,16]", rep.MeanBatch)
	}
	if rep.ReplicaMin != 2 || rep.ReplicaMax != 2 {
		t.Fatalf("pinned fleet changed size: %+v", rep)
	}
	st := f.Stats()
	for id, rs := range st.PerReplica {
		if rs.Submitted == 0 {
			t.Errorf("replica %d idle for the whole trace", id)
		}
	}
}

// TestTraceReportMatchesRegistry: the report's batch-amortisation
// numbers, computed from the results the driver saw, agree with the
// replica's own instruments — mean batch with serve_batch_size_images,
// simulated images per busy second with serve_device_busy_seconds_total.
func TestTraceReportMatchesRegistry(t *testing.T) {
	plane := testPlane()
	f := newTestFleet(t, FleetOptions{
		ShardDevices: 2,
		Server:       Options{Obs: plane, MaxBatch: 16, MaxWait: 500 * time.Microsecond, QueueCap: 1024},
	})
	rep := RunTrace(context.Background(), f, TraceOptions{BaseRPS: 5000, Duration: 200 * time.Millisecond, Seed: 2})
	if rep.Completed == 0 || rep.Completed != rep.Offered {
		t.Fatalf("completed %d of %d offered", rep.Completed, rep.Offered)
	}
	f.Close() // every batch has landed in the registry

	var images, batches, busy float64
	for _, s := range plane.Registry().Series() {
		switch s.Name {
		case "serve_batch_size_images":
			h := s.Inst.(*telemetry.Histogram)
			images += h.Sum()
			batches += float64(h.Count())
		case "serve_device_busy_seconds_total":
			busy += s.Inst.(*telemetry.Counter).Value()
		}
	}
	if images != float64(rep.Completed) {
		t.Fatalf("registry batched %v images, report completed %d", images, rep.Completed)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	if want := images / batches; !near(rep.MeanBatch, want) {
		t.Errorf("MeanBatch %v, registry %v", rep.MeanBatch, want)
	}
	if want := images / busy; !near(rep.SimImagesPerSec, want) {
		t.Errorf("SimImagesPerSec %v, registry %v", rep.SimImagesPerSec, want)
	}
}

// TestRunTraceReconcilesOnCancel: requests still in flight when the
// context is cancelled are counted, so Completed + Shed + Failed equals
// Offered after an interrupted replay too.
func TestRunTraceReconcilesOnCancel(t *testing.T) {
	// A slow replica (each batch holds its device for 200× its
	// simulated time) keeps its queue full, so requests are in flight
	// at the cancel.
	f := newTestFleet(t, FleetOptions{Server: Options{MaxBatch: 4, QueueCap: 64, TimeScale: 200}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	rep := RunTrace(ctx, f, TraceOptions{BaseRPS: 2000, Duration: 10 * time.Second})
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("RunTrace ran %v past its cancel", el)
	}
	if rep.Completed+rep.Shed+rep.Failed != rep.Offered {
		t.Fatalf("report does not reconcile after cancel: %+v", rep)
	}
	if rep.Failed == 0 {
		t.Fatalf("no request was in flight at the cancel; the test is vacuous: %+v", rep)
	}
}

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

// TestRunTraceCountsEngineFailures: a replica whose engine fails some
// batches keeps serving, the failed requests are counted as such, and
// the report still reconciles with the offered load and with the
// replica's counters.
func TestRunTraceCountsEngineFailures(t *testing.T) {
	var failures atomic.Int64
	failures.Store(3) // first three batches fail wholesale
	f := newTestFleet(t, FleetOptions{Server: Options{
		Engine:   flakyEngine{Engine: impls.NewCuDNN(), failures: &failures},
		MaxBatch: 8, QueueCap: 1024,
	}})
	rep := RunTrace(context.Background(), f, TraceOptions{BaseRPS: 2000, Duration: 100 * time.Millisecond})
	if rep.Failed == 0 {
		t.Fatal("engine never failed a request; the regression test is vacuous")
	}
	if rep.Completed == 0 || rep.Completed+rep.Shed+rep.Failed != rep.Offered {
		t.Fatalf("report does not reconcile: %+v", rep)
	}
	if st := f.Stats().Total; st.Failed != int64(rep.Failed) || st.Completed != int64(rep.Completed) {
		t.Fatalf("replica counted %d failed / %d completed, report %d / %d",
			st.Failed, st.Completed, rep.Failed, rep.Completed)
	}
}
