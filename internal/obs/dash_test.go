package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/telemetry"
)

// TestDashEndpoints serves the dashboard from the unified handler and
// checks both the text and JSON routes end to end.
func TestDashEndpoints(t *testing.T) {
	fc := telemetry.NewFakeClock(t0)
	r := testRegistry(fc, time.Minute, time.Second)
	p := NewPlane(r)
	lat := r.Histogram("e2e_seconds", nil, []float64{0.001, 0.002, 0.004, 0.008})
	depth := r.Gauge("queue_depth", nil)
	offered := r.Counter("offered_total", nil)
	p.SetOp("conv3x3/b32")
	p.Section("batcher", func() map[string]any {
		return map[string]any{"max_batch": 32, "policy": "dynamic"}
	})
	m := NewMonitor(MonitorConfig{Clock: fc, Fast: 5 * time.Second, Slow: time.Minute},
		LatencyObjective{ObjName: "e2e-p99", Reg: r, Family: "e2e_seconds", Threshold: 0.008, Target: 0.99})
	defer m.Stop()
	p.Watch(m)

	for i := 0; i < 50; i++ {
		lat.Observe(0.003)
		offered.Inc()
	}
	depth.Set(7)
	fc.Advance(time.Second)
	m.Eval()

	h := Handler(p, nil)

	// JSON route: decode into the typed snapshot and spot-check.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/dash.json", nil))
	if rr.Code != 200 {
		t.Fatalf("dash.json status %d", rr.Code)
	}
	var snap DashSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("dash.json decode: %v", err)
	}
	if snap.Op != "conv3x3/b32" {
		t.Errorf("op = %q", snap.Op)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].CountSlow != 50 {
		t.Errorf("histograms = %+v", snap.Histograms)
	}
	if snap.Histograms[0].P99Slow != 0.004 {
		t.Errorf("p99 = %v, want 0.004", snap.Histograms[0].P99Slow)
	}
	if len(snap.SLOs) != 1 || snap.SLOs[0].State != "OK" {
		t.Errorf("slos = %+v", snap.SLOs)
	}
	if snap.Sections["batcher"]["policy"] != "dynamic" {
		t.Errorf("sections = %+v", snap.Sections)
	}

	// Text route: the rendered frame names every surface.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/dash", nil))
	body := rr.Body.String()
	for _, want := range []string{"e2e-p99", "OK", "queue_depth", "offered_total", "[batcher]", "op=conv3x3/b32", "4ms"} {
		if !strings.Contains(body, want) {
			t.Errorf("text dash missing %q in:\n%s", want, body)
		}
	}

	// The same instruments export whole-run through /metrics.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "offered_total 50\n") {
		t.Errorf("/metrics status %d body:\n%s", rr.Code, rr.Body.String())
	}
}

// TestRecorderFeedsDash runs a real simulated device through a counting
// span recorder and checks the dashboard sees the device's work in the
// plane's registry, including the simulated busy seconds.
func TestRecorderFeedsDash(t *testing.T) {
	p := NewPlane(telemetry.NewRegistry())
	tr := telemetry.NewTracer()
	root := tr.Root("run")
	rec := telemetry.NewRecorder().CountInto(p.Registry(), telemetry.Labels{"device": "0"})
	rec.Attach(root)
	dev := gpusim.New(gpusim.TeslaK40c())
	dev.SetSink(rec)

	dev.MustLaunch(gpusim.KernelSpec{
		Name: "gemm", Grid: gpusim.Dim3{X: 1024}, Block: gpusim.Dim3{X: 256},
		RegsPerThread: 32, FLOPs: 1e9,
	})
	dev.Copy(gpusim.Transfer{Bytes: 1 << 20, Pinned: true})

	counters := map[string]CounterStat{}
	for _, c := range p.Dash().Counters {
		counters[c.Name] = c
	}
	for name, want := range map[string]float64{
		`gpusim_kernel_launches_total{device="0"}`: 1,
		`gpusim_flops_total{device="0"}`:           1e9,
		`gpusim_transfers_total{device="0"}`:       1,
		`gpusim_transfer_bytes_total{device="0"}`:  1 << 20,
	} {
		if c := counters[name]; c.Total != want || c.SumFast != want {
			t.Errorf("%s = %+v, want total and fast-window sum %v", name, c, want)
		}
	}
	if busy := counters[`gpusim_busy_seconds_total{clock="sim",device="0"}`]; busy.Total <= 0 || busy.Total != busy.SumSlow {
		t.Errorf("busy seconds %+v not accumulated in the window", busy)
	}
	if n := len(root.Events()); n != 2 {
		t.Fatalf("recorder dropped the span leg: %d events", n)
	}
}

// TestHandler covers the registry and tracer routes of the unified
// handler.
func TestHandler(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Help("reqs_total", "Requests.")
	reg.Counter("reqs_total", telemetry.Labels{"impl": "cuDNN"}).Add(3)
	tr := telemetry.NewTracer()
	s := tr.Root("run")
	s.AddEvent(telemetry.Event{Name: "k", Cat: "kernel", Dur: time.Millisecond})
	s.End()
	h := Handler(NewPlane(reg), tr)

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	if w := get("/metrics"); w.Code != 200 ||
		!strings.Contains(w.Body.String(), `reqs_total{impl="cuDNN"} 3`) ||
		!strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("/metrics: code=%d type=%q", w.Code, w.Header().Get("Content-Type"))
	}
	if w := get("/metrics?format=json"); !strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		t.Fatal("/metrics?format=json should return JSON")
	}
	var snap telemetry.MetricsSnapshot
	if err := json.Unmarshal(get("/metrics.json").Body.Bytes(), &snap); err != nil || snap.Counters[`reqs_total{impl="cuDNN"}`] != 3 {
		t.Fatalf("/metrics.json = %+v, %v", snap, err)
	}
	var trace map[string]any
	if err := json.Unmarshal(get("/trace").Body.Bytes(), &trace); err != nil {
		t.Fatalf("/trace invalid: %v", err)
	}
	if _, ok := trace["traceEvents"]; !ok {
		t.Fatal("/trace missing traceEvents")
	}
	if w := get("/debug/dash"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "reqs_total") {
		t.Fatalf("/debug/dash: code=%d body:\n%s", w.Code, w.Body.String())
	}
}
