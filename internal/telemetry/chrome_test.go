package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// buildTestTrace constructs a deterministic two-level trace with a
// transfer feeding a kernel, on fixed simulated timestamps.
func buildTestTrace() *Tracer {
	tr := NewTracer()
	var now time.Duration
	tr.SetSimClock(func() time.Duration { return now })

	run := tr.Root("run").SetAttr("impl", "cuDNN")
	layer := run.Child("conv1")
	layer.AddEvent(Event{Name: "memcpy_HtoD", Cat: "transfer",
		Start: 0, Dur: 2 * time.Millisecond, Bytes: 1 << 20})
	layer.AddEvent(Event{Name: "cudnn_gemm", Cat: "kernel",
		Start: 2 * time.Millisecond, Dur: 5 * time.Millisecond, FLOPs: 1e9})
	now = 7 * time.Millisecond
	layer.End()
	run.End()
	return tr
}

func decodeChrome(t *testing.T, tr *Tracer) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("invalid chrome JSON: %v", err)
	}
	return file
}

func eventsOf(t *testing.T, file map[string]any) []map[string]any {
	t.Helper()
	raw, ok := file["traceEvents"].([]any)
	if !ok {
		t.Fatalf("traceEvents missing: %v", file)
	}
	out := make([]map[string]any, len(raw))
	for i, e := range raw {
		out[i] = e.(map[string]any)
	}
	return out
}

func TestWriteChromeObjectForm(t *testing.T) {
	file := decodeChrome(t, buildTestTrace())
	if file["displayTimeUnit"] != "ns" {
		t.Fatalf("displayTimeUnit = %v", file["displayTimeUnit"])
	}
	events := eventsOf(t, file)

	byName := map[string]map[string]any{}
	phases := map[string]int{}
	for _, e := range events {
		byName[e["name"].(string)] = e
		phases[e["ph"].(string)]++
	}

	// Span slices with args, on the compute lane.
	run := byName["run"]
	if run["cat"] != "span" || run["tid"].(float64) != tidCompute {
		t.Fatalf("run span %v", run)
	}
	if args := run["args"].(map[string]any); args["impl"] != "cuDNN" {
		t.Fatalf("span args %v", run["args"])
	}
	if byName["conv1"] == nil {
		t.Fatal("nested span missing")
	}

	// Kernel on compute lane, transfer on copy lane, µs timestamps.
	k := byName["cudnn_gemm"]
	if k["tid"].(float64) != tidCompute || k["ts"].(float64) != 2000 || *durOf(k) != 5000 {
		t.Fatalf("kernel event %v", k)
	}
	cp := byName["memcpy_HtoD"]
	if cp["cat"] == "transfer" && cp["tid"].(float64) != tidCopy {
		t.Fatalf("transfer event %v", cp)
	}

	// Flow arrow from the transfer to the kernel that consumes it.
	if phases["s"] != 1 || phases["f"] != 1 {
		t.Fatalf("flow phases %v, want one s and one f", phases)
	}

	// Process/thread metadata present.
	if phases["M"] != 3 {
		t.Fatalf("%d metadata rows, want 3", phases["M"])
	}
}

func durOf(e map[string]any) *float64 {
	if d, ok := e["dur"].(float64); ok {
		return &d
	}
	return nil
}

func TestWriteChromeMultiProcess(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("serve")
	for i := 0; i < 2; i++ {
		r := root.Child("replica").SetProc(i)
		r.AddEvent(Event{Name: "k", Cat: "kernel", Dur: time.Millisecond})
		r.End()
	}
	root.End()

	events := eventsOf(t, decodeChrome(t, tr))
	pids := map[float64]bool{}
	for _, e := range events {
		if e["ph"] == "X" {
			pids[e["pid"].(float64)] = true
		}
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("replica lanes missing: pids %v", pids)
	}
	// One process_name metadata row per lane.
	names := 0
	for _, e := range events {
		if e["ph"] == "M" && e["name"] == "process_name" {
			names++
		}
	}
	if names != 2 {
		t.Fatalf("%d process_name rows, want 2", names)
	}
}
