package gpusim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/telemetry"
)

func launch(d *gpusim.Device, name string) {
	d.MustLaunch(gpusim.KernelSpec{
		Name: name, Grid: gpusim.Dim3{X: 1024}, Block: gpusim.Dim3{X: 256},
		RegsPerThread: 32, FLOPs: 1e9,
	})
}

// traced installs a recorder on the device, attached to a root span of
// a tracer that follows the device clock.
func traced(d *gpusim.Device) (*telemetry.Tracer, *telemetry.Span) {
	tr := telemetry.NewTracer()
	tr.SetSimClock(d.Elapsed)
	root := tr.Root("run")
	rec := telemetry.NewRecorder()
	rec.Attach(root)
	d.SetSink(rec)
	return tr, root
}

func TestTraceRecordsLaunchesAndCopies(t *testing.T) {
	d := gpusim.New(gpusim.TeslaK40c())
	_, root := traced(d)
	launch(d, "k1")
	d.Copy(gpusim.Transfer{Bytes: 1 << 20})
	launch(d, "k2")
	events := root.Events()
	if len(events) != 3 {
		t.Fatalf("recorded %d events, want 3", len(events))
	}
	if events[0].Name != "k1" || events[0].Cat != "kernel" || events[0].Start != 0 {
		t.Fatalf("first event wrong: %+v", events[0])
	}
	if events[1].Cat != "transfer" {
		t.Fatalf("second event should be a transfer: %+v", events[1])
	}
	// Events must be laid out back to back on the simulated timeline.
	if events[1].Start != events[0].Dur {
		t.Fatalf("transfer start %v, want %v", events[1].Start, events[0].Dur)
	}
	if events[2].Start != events[0].Dur+events[1].Dur {
		t.Fatalf("k2 start %v misplaced", events[2].Start)
	}
}

// chromeEvents exports the tracer and returns its trace-event objects.
func chromeEvents(t *testing.T, tr *telemetry.Tracer) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("invalid object-form JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit %q, want ns", file.DisplayTimeUnit)
	}
	return file.TraceEvents
}

// TestTraceChromeJSON: device events export as complete slices, kernels
// on the compute lane and transfers on the copy-engine lane.
func TestTraceChromeJSON(t *testing.T) {
	d := gpusim.New(gpusim.TeslaK40c())
	tr, root := traced(d)
	launch(d, "sgemm")
	d.Copy(gpusim.Transfer{Bytes: 1 << 20, Async: true})
	root.End()
	lanes := map[string]float64{}
	for _, e := range chromeEvents(t, tr) {
		if e["ph"] == "X" && e["cat"] != "span" {
			lanes[e["name"].(string)] = e["tid"].(float64)
		}
	}
	if lanes["sgemm"] != 1 || lanes["memcpy_HtoD_async"] != 2 {
		t.Fatalf("kernel and transfer lanes = %v, want sgemm:1 memcpy_HtoD_async:2", lanes)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	d := gpusim.New(gpusim.TeslaK40c())
	launch(d, "k") // must not panic with no sink
	_, root := traced(d)
	if n := len(root.Events()); n != 0 {
		t.Fatalf("%d pre-install launches recorded, want 0", n)
	}
}

func TestTraceChromeObjectParses(t *testing.T) {
	d := gpusim.New(gpusim.TeslaK40c())
	tr, root := traced(d)
	launch(d, "k")
	root.End()
	kernels := 0
	for _, e := range chromeEvents(t, tr) {
		if e["cat"] == "kernel" {
			kernels++
		}
	}
	if kernels != 1 {
		t.Fatalf("%d kernel events in the export, want 1", kernels)
	}
}
