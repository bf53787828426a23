package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.05, 15}, {0.2, 15}, {0.3, 20}, {0.4, 20}, {0.5, 35}, {0.9, 50}, {1, 50},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("percentile of unsorted input = %g, want 2", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %g, want NaN", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestReportableNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		n    int
		want bool
	}{
		{0.5, 19, false}, // rank 10, 9 beyond
		{0.5, 20, true},  // rank 10, 10 beyond
		{0.9, 99, false}, // rank 90, 9 beyond
		{0.9, 100, true},
		{0.99, 999, false},
		{0.99, 1000, true},
		{0.5, 0, false},
	} {
		if got := reportable(tc.q, tc.n); got != tc.want {
			t.Errorf("reportable(%g, %d) = %v, want %v", tc.q, tc.n, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false}, {20, 0.5, true}, {40, 0.75, true}, {120, 0.9, true}, {5000, 0.99, true},
	} {
		q, ok := tail(tc.n)
		if q != tc.want || ok != tc.ok {
			t.Errorf("tail(%d) = %g, %v; want %g, %v", tc.n, q, ok, tc.want, tc.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	for _, tc := range []struct {
		name     string
		parent   interval
		children []interval
		want     int // ms
	}{
		{"leaf", ms(0, 10), nil, 10},
		{"disjoint children", ms(0, 10), []interval{ms(1, 3), ms(5, 6)}, 7},
		{"overlapping children count once", ms(0, 10), []interval{ms(1, 5), ms(3, 7)}, 4},
		{"child outside the parent is clipped", ms(0, 10), []interval{ms(8, 15)}, 8},
		{"nested duplicate", ms(0, 10), []interval{ms(2, 8), ms(3, 4)}, 4},
		{"fully covered", ms(0, 10), []interval{ms(0, 10)}, 0},
	} {
		if got := selfTime(tc.parent, tc.children); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: selfTime = %v, want %dms", tc.name, got, tc.want)
		}
	}
}

func TestLayerTotalsSubtractChildren(t *testing.T) {
	tr := &tracer{}
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	tr.spans = []span{
		{name: "op", parent: -1, start: at(0), end: at(10)},
		{name: "conv1", layer: "nn.Conv.fwd", parent: 0, start: at(0), end: at(4)},
		{name: "conv2", layer: "nn.Conv.fwd", parent: 0, start: at(4), end: at(7)},
		{name: "figure", layer: "bench.fig2", parent: 0, start: at(7), end: at(10)},
		{name: "inner", layer: "", parent: 3, start: at(8), end: at(9)},
		{name: "open", layer: "nn.sgd", parent: 0, start: at(9), end: -1},
	}
	got := tr.layerTotals()
	want := map[string]time.Duration{"nn.Conv.fwd": at(7), "bench.fig2": at(2)}
	if len(got) != len(want) {
		t.Fatalf("layerTotals = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("layerTotals[%s] = %v, want %v", k, got[k], v)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", "", 0, -1)
	tr.end(id)
	if id != -1 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}
