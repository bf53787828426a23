package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// buildWindowTrace lays three layers end to end on the simulated
// clock — [0,2ms), [2,5ms), [5,9ms) — each with one kernel, under one
// run span covering all of it.
func buildWindowTrace() *Tracer {
	tr := NewTracer()
	var now time.Duration
	tr.SetSimClock(func() time.Duration { return now })

	run := tr.Root("run")
	type seg struct {
		name     string
		from, to time.Duration
	}
	for _, s := range []seg{
		{"conv1", 0, 2 * time.Millisecond},
		{"conv2", 2 * time.Millisecond, 5 * time.Millisecond},
		{"conv3", 5 * time.Millisecond, 9 * time.Millisecond},
	} {
		now = s.from
		sp := run.Child(s.name)
		sp.AddEvent(Event{Name: "k_" + s.name, Cat: "kernel", Start: s.from, Dur: s.to - s.from})
		now = s.to
		sp.End()
	}
	run.End()
	return tr
}

func windowNames(t *testing.T, tr *Tracer, since, until time.Duration) map[string]bool {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeWindow(&buf, since, until); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range decodeChromeBytes(t, buf.Bytes()) {
		if e["ph"] == "X" {
			names[e["name"].(string)] = true
		}
	}
	return names
}

func decodeChromeBytes(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var file map[string]any
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("invalid chrome JSON: %v", err)
	}
	return eventsOf(t, file)
}

// TestWriteChromeWindowGolden pins the window-filter semantics: slices
// overlapping the half-open [since, until) survive whole, the rest
// disappear, and the unbounded window is byte-identical to WriteChrome.
func TestWriteChromeWindowGolden(t *testing.T) {
	tr := buildWindowTrace()

	cases := []struct {
		name         string
		since, until time.Duration
		want         []string
		wantAbsent   []string
	}{
		{"full", 0, MaxSimTime,
			[]string{"run", "conv1", "conv2", "conv3", "k_conv1", "k_conv2", "k_conv3"}, nil},
		{"middle", 3 * time.Millisecond, 4 * time.Millisecond,
			[]string{"run", "conv2", "k_conv2"}, []string{"conv1", "conv3", "k_conv1", "k_conv3"}},
		{"tail", 5 * time.Millisecond, MaxSimTime,
			[]string{"run", "conv2", "conv3"}, []string{"conv1", "k_conv1"}},
		{"head-halfopen", 0, 2 * time.Millisecond,
			[]string{"run", "conv1", "k_conv1"}, []string{"conv2", "conv3", "k_conv3"}},
		{"past-the-end", 20 * time.Millisecond, MaxSimTime,
			nil, []string{"run", "conv1", "conv2", "conv3"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			names := windowNames(t, tr, c.since, c.until)
			for _, w := range c.want {
				if !names[w] {
					t.Errorf("window [%v,%v): %q missing (have %v)", c.since, c.until, w, names)
				}
			}
			for _, a := range c.wantAbsent {
				if names[a] {
					t.Errorf("window [%v,%v): %q should be filtered out", c.since, c.until, a)
				}
			}
		})
	}

	// conv2 ends exactly at 5ms: a window starting there keeps it
	// (end >= since), while a window ending there drops conv3
	// (start < until fails) — the boundary cases above assert both.

	var full, unbounded bytes.Buffer
	if err := tr.WriteChrome(&full); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeWindow(&unbounded, 0, MaxSimTime); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Bytes(), unbounded.Bytes()) {
		t.Fatal("WriteChrome and the unbounded WriteChromeWindow diverge")
	}
}

// TestWriteChromeWindowDropsEmptyLanes: a device lane whose every span
// and event falls outside the window must not emit metadata rows.
func TestWriteChromeWindowDropsEmptyLanes(t *testing.T) {
	tr := NewTracer()
	// The root rides device 1's lane so lane 0 holds only the early
	// replica — the lane the window should drop entirely.
	root := tr.Root("serve").SetProc(1)
	early := root.Child("replica-early").SetProc(0)
	early.AddEvent(Event{Name: "k0", Cat: "kernel", Start: 0, Dur: time.Millisecond})
	early.SetSim(0, time.Millisecond).End()
	late := root.Child("replica-late").SetProc(1)
	late.AddEvent(Event{Name: "k1", Cat: "kernel", Start: 10 * time.Millisecond, Dur: time.Millisecond})
	late.SetSim(10*time.Millisecond, 11*time.Millisecond).End()
	root.SetSim(0, 11*time.Millisecond).End()

	var buf bytes.Buffer
	if err := tr.WriteChromeWindow(&buf, 9*time.Millisecond, MaxSimTime); err != nil {
		t.Fatal(err)
	}
	pids := map[float64]bool{}
	for _, e := range decodeChromeBytes(t, buf.Bytes()) {
		pids[e["pid"].(float64)] = true
	}
	if pids[1] {
		t.Fatal("device-0 lane survived a window that excludes all its work")
	}
	if !pids[2] {
		t.Fatal("device-1 lane missing")
	}
}
