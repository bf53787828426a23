package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"gpucnn/internal/obs"
	"gpucnn/internal/telemetry"
)

// TestServeFeedsObsPlane serves real traffic through a fleet and
// checks the surfaces it feeds through its plane: the serve_* and
// per-device gpusim_* series (whole-run and windowed reads of the same
// instruments), the one SLO monitor, the batcher section and the op
// tag.
func TestServeFeedsObsPlane(t *testing.T) {
	plane := testPlane()
	reg := plane.Registry()
	f := newTestFleet(t, FleetOptions{
		ShardDevices: 2,
		Server:       Options{MaxBatch: 4, MaxWait: time.Millisecond, Obs: plane},
	})
	for i := 0; i < 16; i++ {
		if _, err := f.Submit(context.Background(), "", PriorityInteractive); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	labels := telemetry.Labels{"engine": "cuDNN", "replica": "0"}
	for name, want := range map[string]float64{"serve_requests_total": 16, "serve_images_total": 16} {
		c := reg.Counter(name, labels)
		if c.Value() != want || c.Sum(0) != want {
			t.Errorf("%s = %v (window %v), want %v", name, c.Value(), c.Sum(0), want)
		}
	}
	if st := f.Stats().Total; st.Submitted != 16 || st.Completed != 16 || st.Rejected != 0 {
		t.Errorf("Stats = %+v, want 16 submitted and completed", st)
	}
	if got := reg.Histogram("serve_e2e_latency_seconds", labels.With("clock", "host"), nil).Window(0).Count; got != 16 {
		t.Errorf("e2e observations in window = %v, want 16", got)
	}
	kernels := 0.0
	for _, d := range []string{"0", "1"} {
		kernels += reg.Counter("gpusim_kernel_launches_total", labels.With("device", d)).Value()
	}
	if kernels == 0 {
		t.Error("device recorders counted no kernels")
	}
	if f.Monitor() == nil {
		t.Fatal("monitor missing")
	}
	if st := f.Monitor().Status(); len(st) != 2 {
		t.Fatalf("objectives = %+v", st)
	}
	snap := plane.Dash()
	if len(snap.SLOs) != 2 {
		t.Errorf("dash shows %d objectives, want the one monitor's 2: %+v", len(snap.SLOs), snap.SLOs)
	}
	if snap.Sections["batcher"] == nil {
		t.Error("batcher section missing from dash")
	}
	if snap.Op == "" {
		t.Error("active op not set by runBatch")
	}
}

// TestServeSLOEscalationFakeClock is the acceptance-criterion test: an
// under-provisioned replica walks the fleet monitor's shed-rate
// objective OK→WARN→PAGE under a fake clock, and the PAGE state is
// visible in the dashboard JSON. Phase 1 serves a healthy minute
// through the fleet; phase 2 adds a replica whose batcher never drains
// (start withheld) to the same plane, so a fixed slice of each
// second's offered load is admitted and the rest is shed. The fleet's
// monitor reads every replica's series on the plane, so it is the one
// monitor judging both phases.
func TestServeSLOEscalationFakeClock(t *testing.T) {
	fc := telemetry.NewFakeClock(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	plane := obs.NewPlane(telemetry.NewRegistryWith(telemetry.Options{Clock: fc, Window: time.Minute, Resolution: time.Second}))
	f := newTestFleet(t, FleetOptions{Server: Options{MaxBatch: 4, MaxWait: time.Millisecond, Obs: plane}})
	m := f.Monitor()

	// Phase 1: healthy traffic fills the slow window — 20 served
	// requests per fake second for a minute.
	for sec := 0; sec < 60; sec++ {
		for i := 0; i < 20; i++ {
			if _, err := f.Submit(context.Background(), "", PriorityInteractive); err != nil {
				t.Fatalf("healthy submit: %v", err)
			}
		}
		fc.Advance(time.Second)
		m.Eval()
	}
	if got := m.State("shed-rate"); got != obs.OK {
		t.Fatalf("after healthy minute: %v, want OK", got)
	}

	// Phase 2: an under-provisioned replica on the same plane. Its
	// batcher is never started, so the queue (cap 4) fills once and
	// every further request sheds; the cancelled context returns each
	// admitted submit immediately instead of blocking on completion.
	// The shared plane keeps the healthy history in the slow window,
	// so the burn ramps WARN before PAGE instead of jumping.
	under := newTestServer(t, 1, Options{MaxBatch: 4, QueueCap: 4, TimeScale: -1, Obs: plane})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	var walk []obs.State
	deadline := 0
	for sec := 0; sec < 60; sec++ {
		for i := 0; i < 100; i++ {
			_, err := under.submit(cancelled, PriorityInteractive)
			if err != nil && !errors.Is(err, ErrOverloaded) && !errors.Is(err, context.Canceled) {
				t.Fatalf("overload submit: %v", err)
			}
		}
		fc.Advance(time.Second)
		for _, tr := range m.Eval() {
			if tr.Objective == "shed-rate" {
				walk = append(walk, tr.To)
			}
		}
		if st := m.State("shed-rate"); st == obs.PAGE && deadline == 0 {
			deadline = sec
		}
	}
	if got := m.State("shed-rate"); got != obs.PAGE {
		t.Fatalf("under-provisioned server = %v, want PAGE", got)
	}
	if len(walk) != 2 || walk[0] != obs.WARN || walk[1] != obs.PAGE {
		t.Fatalf("escalation walk = %v, want [WARN PAGE]", walk)
	}
	if stats := under.Stats(); stats.Rejected == 0 {
		t.Fatal("Stats().Rejected must count the shed load")
	}

	// The PAGE state and the transition history are on the dashboard.
	rr := httptest.NewRecorder()
	obs.Handler(plane, nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/dash.json", nil))
	var snap obs.DashSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("dash.json: %v", err)
	}
	paged := false
	for _, o := range snap.SLOs {
		if o.Name == "shed-rate" && o.State == "PAGE" {
			paged = true
		}
	}
	if !paged {
		t.Fatalf("dashboard JSON does not show the PAGE: %+v", snap.SLOs)
	}
	if len(snap.Transitions) == 0 {
		t.Fatal("dashboard JSON carries no transitions")
	}
}
