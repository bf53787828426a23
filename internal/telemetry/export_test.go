package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

func exportRegistry() *Registry {
	r := NewRegistry()
	r.Help("reqs_total", "Requests.")
	r.Counter("reqs_total", Labels{"impl": "cuDNN"}).Add(3)
	r.Gauge("mem_bytes", nil).Set(1024)
	h := r.Histogram("lat_seconds", Labels{"layer": "conv1"}, []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	return r
}

func TestWritePrometheus(t *testing.T) {
	var b strings.Builder
	if err := exportRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP reqs_total Requests.",
		"# TYPE reqs_total counter",
		`reqs_total{impl="cuDNN"} 3`,
		"# TYPE mem_bytes gauge",
		"mem_bytes 1024",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{layer="conv1",le="0.001"} 1`,
		`lat_seconds_bucket{layer="conv1",le="0.01"} 1`,
		`lat_seconds_bucket{layer="conv1",le="+Inf"} 2`,
		`lat_seconds_sum{layer="conv1"} 0.5005`,
		`lat_seconds_count{layer="conv1"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	var b strings.Builder
	if err := exportRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if snap.Counters[`reqs_total{impl="cuDNN"}`] != 3 {
		t.Fatalf("counters %v", snap.Counters)
	}
	if snap.Gauges["mem_bytes"] != 1024 {
		t.Fatalf("gauges %v", snap.Gauges)
	}
	h, ok := snap.Histograms[`lat_seconds{layer="conv1"}`]
	if !ok || h.Count != 2 {
		t.Fatalf("histograms %v", snap.Histograms)
	}
}
