package main

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestParseLineMetricPairs(t *testing.T) {
	cases := []struct {
		name string
		line string
		want map[string]float64
	}{
		{
			name: "plain pairs",
			line: "BenchmarkGEMM-8  100  123.4 ns/op  45.6 GFLOPS  12 B/op  3 allocs/op",
			want: map[string]float64{"GFLOPS": 45.6, "B/op": 12, "allocs/op": 3},
		},
		{
			// A stray non-numeric token must advance by one to
			// resynchronise, not swallow the next pair's value.
			name: "misaligned tail resyncs",
			line: "BenchmarkGEMM-8  100  123.4 ns/op  45.6 GFLOPS  oops  12 B/op  3 allocs/op",
			want: map[string]float64{"GFLOPS": 45.6, "B/op": 12, "allocs/op": 3},
		},
		{
			// Two metrics sharing a unit must not clobber each other:
			// later ones get position-qualified keys.
			name: "unit collision position-qualified",
			line: "BenchmarkStages-8  10  50 ns/op  1.5 ns  2.5 ns  4 ns",
			want: map[string]float64{"ns": 1.5, "ns#2": 2.5, "ns#3": 4},
		},
		{
			name: "no extra metrics",
			line: "BenchmarkSmall-4  1000  99 ns/op",
			want: map[string]float64{},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			name, r, ok := parseLine(c.line)
			if !ok {
				t.Fatalf("line not parsed: %q", c.line)
			}
			if name == "" || r.nsPerOp <= 0 {
				t.Fatalf("bad parse: name=%q r=%+v", name, r)
			}
			if !reflect.DeepEqual(r.metrics, c.want) {
				t.Errorf("metrics = %v, want %v", r.metrics, c.want)
			}
		})
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"BenchmarkX-8 notanumber 5 ns/op",
		"BenchmarkX-8 100 5 s/op", // field 3 must be ns/op
		"ok  \tgpucnn/internal/gemm\t1.2s",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("parsed non-result line %q", line)
		}
	}
}

func TestParseLineKeepsRawName(t *testing.T) {
	name, _, ok := parseLine("BenchmarkGEMM/size-256  100  5 ns/op")
	if !ok || name != "BenchmarkGEMM/size-256" {
		t.Fatalf("parseLine must not strip names itself; got %q", name)
	}
}

func normalize(names []string, gomaxprocs int) []string {
	byName := map[string][]result{}
	for _, n := range names {
		byName[n] = append(byName[n], result{nsPerOp: 1})
	}
	var order []string
	seen := map[string]bool{}
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			order = append(order, n)
		}
	}
	out, _ := normalizeNames(order, byName, gomaxprocs)
	return out
}

func TestNormalizeNames(t *testing.T) {
	cases := []struct {
		name       string
		in         []string
		gomaxprocs int
		want       []string
	}{
		{
			name:       "suffix matches gomaxprocs",
			in:         []string{"BenchmarkA-8", "BenchmarkB-8"},
			gomaxprocs: 8,
			want:       []string{"BenchmarkA", "BenchmarkB"},
		},
		{
			// GOMAXPROCS=1 emits no suffix: a genuine sub-benchmark
			// ending in -<int> must not be truncated and merged.
			name:       "gomaxprocs=1 sub-benchmark preserved",
			in:         []string{"BenchmarkGEMM/size-128", "BenchmarkGEMM/size-256"},
			gomaxprocs: 1,
			want:       []string{"BenchmarkGEMM/size-128", "BenchmarkGEMM/size-256"},
		},
		{
			// Cross-machine snapshot: every distinct benchmark carries
			// the same -16 even though this process has gomaxprocs=1.
			name:       "shared suffix across distinct names stripped",
			in:         []string{"BenchmarkA-16", "BenchmarkB-16"},
			gomaxprocs: 1,
			want:       []string{"BenchmarkA", "BenchmarkB"},
		},
		{
			// A single name trivially "shares" its suffix with itself;
			// that is not evidence of a GOMAXPROCS suffix.
			name:       "lone sub-benchmark not truncated",
			in:         []string{"BenchmarkGEMM/size-256"},
			gomaxprocs: 1,
			want:       []string{"BenchmarkGEMM/size-256"},
		},
		{
			name:       "mixed suffixed and bare kept apart",
			in:         []string{"BenchmarkA-256", "BenchmarkB"},
			gomaxprocs: 1,
			want:       []string{"BenchmarkA-256", "BenchmarkB"},
		},
		{
			// `-cpu 1,2` at GOMAXPROCS=2: the bare name is the one-proc
			// run, the -2 name the two-proc run; each keeps its own row.
			name:       "cpu list runs kept apart",
			in:         []string{"BenchmarkGEMM/parallel/256", "BenchmarkGEMM/parallel/256-2", "BenchmarkGEMM/packed/256-2"},
			gomaxprocs: 2,
			want:       []string{"BenchmarkGEMM/parallel/256", "BenchmarkGEMM/parallel/256-2", "BenchmarkGEMM/packed/256"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := normalize(c.in, c.gomaxprocs); !reflect.DeepEqual(got, c.want) {
				t.Errorf("normalize(%v, %d) = %v, want %v", c.in, c.gomaxprocs, got, c.want)
			}
		})
	}
}

// TestNormalizeMergesCountRepeats: -count=N repeats of one benchmark
// (same raw name) stay merged after stripping, keeping the median
// semantics.
func TestNormalizeMergesCountRepeats(t *testing.T) {
	byName := map[string][]result{
		"BenchmarkA-8": {{nsPerOp: 1}, {nsPerOp: 2}, {nsPerOp: 3}},
	}
	order, merged := normalizeNames([]string{"BenchmarkA-8"}, byName, 8)
	if len(order) != 1 || order[0] != "BenchmarkA" {
		t.Fatalf("order = %v", order)
	}
	if len(merged["BenchmarkA"]) != 3 {
		t.Fatalf("runs = %d, want 3", len(merged["BenchmarkA"]))
	}
}

func TestSnapshotStampsHost(t *testing.T) {
	s := newSnapshot("n")
	if s.Note != "n" || s.NProc != runtime.NumCPU() || s.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("snapshot stamp = %+v, want nproc %d and GOMAXPROCS %d", s, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	enc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"nproc":`, `"gomaxprocs":`} {
		if !strings.Contains(string(enc), key) {
			t.Errorf("snapshot JSON %s lacks %s", enc, key)
		}
	}
}
