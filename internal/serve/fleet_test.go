package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/obs"
	"gpucnn/internal/telemetry"
)

// newTestFleet builds a fleet with test-friendly defaults: instant
// simulated service (no wall occupancy), manual SLO evaluation and a
// manual autoscaler.
func newTestFleet(t *testing.T, opts FleetOptions) *Fleet {
	t.Helper()
	if opts.Server.Model == (conv.Config{}) {
		opts.Server.Model = testModel()
	}
	if opts.Server.Obs == nil {
		opts.Server.Obs = testPlane()
	}
	if opts.Server.MaxBatch == 0 {
		opts.Server.MaxBatch = 4
	}
	if opts.Server.MaxWait == 0 {
		opts.Server.MaxWait = time.Millisecond
	}
	if opts.Server.TimeScale == 0 {
		opts.Server.TimeScale = -1
	}
	if opts.ShardDevices == 0 {
		opts.ShardDevices = 1
	}
	if opts.Server.SLO.Interval == 0 {
		opts.Server.SLO.Interval = -1
	}
	if opts.Autoscale.Interval == 0 {
		opts.Autoscale.Interval = -1
	}
	f, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestHashRingStability: removing a replica must remap only the keys
// that lived on it; every surviving replica's keys stay put.
func TestHashRingStability(t *testing.T) {
	r := new(hashRing)
	r.rebuild([]int{0, 1, 2})
	before := map[string]int{}
	perID := map[int]int{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user-%d", i)
		id, ok := r.pick(key)
		if !ok {
			t.Fatal("pick on a populated ring failed")
		}
		before[key] = id
		perID[id]++
	}
	for id := 0; id < 3; id++ {
		if perID[id] == 0 {
			t.Fatalf("replica %d owns no keys: vnode spread broken (%v)", id, perID)
		}
	}
	r.rebuild([]int{0, 2})
	moved := 0
	for key, id := range before {
		after, _ := r.pick(key)
		if id == 1 {
			moved++
			if after == 1 {
				t.Fatalf("key %s still routed to removed replica 1", key)
			}
			continue
		}
		if after != id {
			t.Errorf("key %s moved %d→%d though its replica survived", key, id, after)
		}
	}
	if moved != perID[1] {
		t.Fatalf("moved %d keys, want exactly replica 1's %d", moved, perID[1])
	}
}

// TestFleetHashRoutingStickiness: the fleet's front door keeps a key on
// one replica across calls, and a membership change (scale-in) leaves
// the surviving replicas' keys in place.
func TestFleetHashRoutingStickiness(t *testing.T) {
	f := newTestFleet(t, FleetOptions{
		Replicas: 3, Route: RouteHash,
		Autoscale: AutoscaleConfig{Min: 1, Max: 4, Interval: -1},
	})
	routeID := func(key string) int {
		f.mu.RLock()
		defer f.mu.RUnlock()
		r := f.route(key)
		if r == nil {
			t.Fatalf("no route for %s", key)
		}
		return r.id
	}
	assign := map[string]int{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("user-%d", i)
		id := routeID(key)
		if again := routeID(key); again != id {
			t.Fatalf("key %s flapped %d→%d with stable membership", key, id, again)
		}
		assign[key] = id
	}
	if n := f.scaleIn(1); n != 2 {
		t.Fatalf("scale-in left %d replicas, want 2", n)
	}
	moved := 0
	for key, id := range assign {
		after := routeID(key)
		if id == 1 {
			moved++
			continue
		}
		if after != id {
			t.Errorf("key %s moved %d→%d though its replica survived", key, id, after)
		}
	}
	if moved == 0 {
		t.Fatal("no keys lived on the removed replica: test never exercised the remap")
	}
}

// TestFleetLeastLoadTiesRotate submits requests one at a time to a
// two-replica least-load fleet, each served before the next is sent,
// so every route sees a tie. The rotating scan start must spread them
// over both replicas instead of sending all of them to the first.
func TestFleetLeastLoadTiesRotate(t *testing.T) {
	f := newTestFleet(t, FleetOptions{
		Replicas:  2,
		Autoscale: AutoscaleConfig{Min: 2, Max: 2, Interval: -1},
	})
	for i := 0; i < 8; i++ {
		if _, err := f.Submit(context.Background(), "", PriorityStandard); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for id, rs := range f.Stats().PerReplica {
		if rs.Submitted == 0 {
			t.Errorf("replica %d received none of 8 sequential requests", id)
		}
	}
}

// TestFleetAutoscaleOnBurnAndIdle is the acceptance-criterion test:
// under a fake clock, injected shed burn walks the fleet monitor into
// PAGE and the autoscaler scales out (respecting hysteresis and the
// max bound); once the burn clears and traffic stops, sustained cold
// ticks scale the fleet back to min.
func TestFleetAutoscaleOnBurnAndIdle(t *testing.T) {
	fc := telemetry.NewFakeClock(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	reg := telemetry.NewRegistryWith(telemetry.Options{Clock: fc, Window: time.Minute, Resolution: time.Second})
	plane := obs.NewPlane(reg)
	f := newTestFleet(t, FleetOptions{
		Server: Options{Obs: plane},
		Autoscale: AutoscaleConfig{
			Min: 1, Max: 3, Interval: -1,
			ScaleOutAfter: 2, ScaleInAfter: 3, Cooldown: 1,
		},
	})
	if f.Size() != 1 {
		t.Fatalf("initial size %d, want 1 (= min)", f.Size())
	}

	// Phase 1: inject a 50% shed rate (burn 10× the 5% budget) for ten
	// fake seconds, on series no replica owns so the replicas' own
	// traffic counters stay idle. ScaleOutAfter=2 with Cooldown=1 means
	// events land on ticks 2 and 4: 1→2→3, then the max bound holds.
	injected := telemetry.Labels{"source": "test"}
	var sizes []int
	for sec := 0; sec < 10; sec++ {
		reg.Counter("serve_requests_total", injected).Add(50)
		reg.Counter("serve_rejected_total", injected).Add(50)
		fc.Advance(time.Second)
		f.Autoscaler().Tick()
		sizes = append(sizes, f.Size())
	}
	if f.Size() != 3 {
		t.Fatalf("after sustained burn: size %d, want 3 (= max); walk %v", f.Size(), sizes)
	}
	if sizes[0] != 1 {
		t.Fatalf("scaled out on the first burn tick — hysteresis broken: %v", sizes)
	}
	if got := f.Monitor().State("shed-rate"); got != obs.PAGE {
		t.Fatalf("shed objective = %v, want PAGE", got)
	}

	// Phase 2: burn stops and traffic goes idle. The fast window drains
	// in 10 fake seconds, the state returns to OK, and cold ticks scale
	// the fleet back 3→2→1.
	for sec := 0; sec < 40 && f.Size() > 1; sec++ {
		fc.Advance(time.Second)
		f.Autoscaler().Tick()
	}
	if f.Size() != 1 {
		t.Fatalf("idle fleet did not scale in: size %d, want 1", f.Size())
	}
	if ids := f.ReplicaIDs(); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("survivor ids %v, want the founding replica [0]", ids)
	}

	events := f.Autoscaler().Events()
	if len(events) != 4 {
		t.Fatalf("events = %v, want 2 scale-outs + 2 scale-ins", events)
	}
	for i, want := range []string{"slo burn", "slo burn", "idle", "idle"} {
		if !strings.Contains(events[i].Reason, want) {
			t.Errorf("event %d reason %q, want ~%q", i, events[i].Reason, want)
		}
	}
	for _, e := range events[:2] {
		if e.To != e.From+1 {
			t.Errorf("scale-out event %v not a single step", e)
		}
	}
}

// TestFleetServesTraffic drives least-loaded routing from a load
// signal the test sets — each replica's outstanding-image count —
// rather than from goroutine timing, then serves concurrent traffic end
// to end and reconciles the per-replica counters with the fleet-wide
// aggregate in the plane's registry.
func TestFleetServesTraffic(t *testing.T) {
	plane := testPlane()
	f := newTestFleet(t, FleetOptions{
		Replicas: 2, ShardDevices: 2,
		Server:    Options{Obs: plane, MaxBatch: 8, MaxWait: 500 * time.Microsecond, QueueCap: 1024},
		Autoscale: AutoscaleConfig{Min: 2, Max: 2, Interval: -1},
	})
	ctx := context.Background()
	ids := f.ReplicaIDs()

	// Deterministic routing: load every replica but one; each request,
	// served before the next is sent, must land on the idle one.
	const perReplica = 8
	for _, idle := range ids {
		for _, id := range ids {
			if id != idle {
				f.replicas[id].srv.load[0].Add(1000)
			}
		}
		for i := 0; i < perReplica; i++ {
			res, err := f.Submit(ctx, "", PriorityStandard)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			if res.BatchSize != 1 {
				t.Fatalf("sequential request rode a batch of %d", res.BatchSize)
			}
		}
		for _, id := range ids {
			if id != idle {
				f.replicas[id].srv.load[0].Add(-1000)
			}
		}
		// Each replica is idle in exactly one round, so it has admitted
		// exactly that round's requests.
		if got := f.Stats().PerReplica[idle].Submitted; got != perReplica {
			t.Fatalf("idle replica %d admitted %d requests, want %d", idle, got, perReplica)
		}
	}

	// End to end: concurrent traffic through the front door.
	const n = 256
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("user-%d", i%16)
		go func() {
			_, err := f.Submit(ctx, key, PriorityStandard)
			done <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	total := n + perReplica*len(ids)
	if st := f.Stats(); st.Total.Completed != int64(total) {
		t.Fatalf("fleet completed %d of %d: %+v", st.Total.Completed, total, st)
	}
	completed := 0.0
	for _, s := range plane.Registry().Series() {
		if s.Name == "serve_images_total" {
			completed += s.Inst.(*telemetry.Counter).Sum(0)
		}
	}
	if completed != float64(total) {
		t.Errorf("registry-aggregate completed over the window = %v, want %v", completed, total)
	}
	snap := plane.Dash()
	if snap.Sections["fleet"] == nil || snap.Sections["autoscaler"] == nil {
		t.Errorf("fleet/autoscaler dashboard sections missing: %v", snap.Sections)
	}
}

// BenchmarkFleet measures the fleet front door (routing + admission +
// batcher + dispatch) with the wall-occupancy sleep disabled.
func BenchmarkFleet(b *testing.B) {
	for _, route := range []RoutePolicy{RouteLeastLoaded, RouteHash} {
		b.Run(route.String(), func(b *testing.B) {
			f, err := NewFleet(FleetOptions{
				Replicas: 2, ShardDevices: 2,
				Server: Options{
					Model: testModel(), MaxBatch: 32, MaxWait: 500 * time.Microsecond,
					QueueCap: 4096, TimeScale: -1, Obs: testPlane(), SLO: SLOConfig{Interval: -1},
				},
				Route:     route,
				Autoscale: AutoscaleConfig{Min: 2, Max: 2, Interval: -1},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.SetParallelism(64)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					key := fmt.Sprintf("user-%d", i%64)
					if _, err := f.Submit(context.Background(), key, PriorityStandard); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
