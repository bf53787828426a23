package serve

import (
	"context"
	"reflect"
	"testing"
	"time"
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
	if rep.P50 > rep.P95 || rep.P95 > rep.P99 || rep.P99 > rep.Max {
		t.Fatalf("percentiles not ordered: %+v", rep)
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
