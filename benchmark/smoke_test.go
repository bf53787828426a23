package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

const specFile = "../BENCHMARK.json"

// TestSmoke runs every workload with a one-second window and checks it
// passes its correctness checks and prints every metric. The runs are
// traced, which adds the per-layer probes, unless -short is set.
func TestSmoke(t *testing.T) {
	traced := !testing.Short()
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(runConfig{workload: w.name, seed: 1, window: time.Second,
				trace: traced, traceDir: dir, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed: %v", r.Correct, r.Failed, r.Attempted, r.Notes)
			}
			res, err := spec.result(r)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted != r.Attempted || len(res.Metrics) == 0 {
				t.Fatalf("result %+v", res)
			}
			if !traced {
				return
			}
			// A traced run also produces every end-to-end metric.
			r.Trace = false
			if _, err := spec.result(r); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Fatalf("trace holds %d events: %v", len(trace.TraceEvents), err)
			}
		})
	}
}

// TestSpecFormat checks BENCHMARK.json against the format and limits
// its readers rely on, and against the workloads this program runs.
func TestSpecFormat(t *testing.T) {
	data, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json has no %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(raw))
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program runs %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var setupBound, maxBound float64
	for _, list := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
		for _, d := range list {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("metric %q (unit %q) is malformed or repeated", d.Name, d.Unit)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better is %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setupBound = d.Bound
			if d.Unit != "s" || d.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %g, want the largest bound (%g)", setupBound, maxBound)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}
