package main

import (
	"math"
	"strings"
	"testing"
)

func snapOf(pairs ...any) Snapshot {
	var s Snapshot
	for i := 0; i+1 < len(pairs); i += 2 {
		s.Benchmarks = append(s.Benchmarks, Summary{
			Name:    pairs[i].(string),
			NsPerOp: pairs[i+1].(float64),
		})
	}
	return s
}

func TestCompareSnapshotsRatiosAndFlags(t *testing.T) {
	oldSnap := snapOf("BenchmarkA", 1000.0, "BenchmarkB", 2000.0, "BenchmarkGone", 10.0)
	newSnap := snapOf("BenchmarkA", 500.0, "BenchmarkB", 2500.0, "BenchmarkNew", 42.0)
	rows, regressed := compareSnapshots(oldSnap, newSnap, 1.15)
	if !regressed {
		t.Fatal("1.25x slowdown on BenchmarkB not flagged")
	}
	byName := map[string]compareRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["BenchmarkA"]; r.Status != "faster" || r.Ratio != 0.5 {
		t.Errorf("BenchmarkA row = %+v, want faster at 0.5", r)
	}
	if r := byName["BenchmarkB"]; r.Status != "REGRESSION" || r.Ratio != 1.25 {
		t.Errorf("BenchmarkB row = %+v, want REGRESSION at 1.25", r)
	}
	if r := byName["BenchmarkNew"]; r.Status != "new" {
		t.Errorf("BenchmarkNew row = %+v, want status new", r)
	}
	if r := byName["BenchmarkGone"]; r.Status != "removed" {
		t.Errorf("BenchmarkGone row = %+v, want status removed", r)
	}
}

func TestCompareSnapshotsWithinThresholdPasses(t *testing.T) {
	oldSnap := snapOf("BenchmarkA", 1000.0)
	newSnap := snapOf("BenchmarkA", 1100.0) // 1.10 < 1.15
	rows, regressed := compareSnapshots(oldSnap, newSnap, 1.15)
	if regressed {
		t.Fatal("within-threshold slowdown flagged as regression")
	}
	if rows[0].Status != "ok" {
		t.Errorf("row = %+v, want status ok", rows[0])
	}
	// Missing-on-one-side benchmarks must never flag the run.
	rows, regressed = compareSnapshots(snapOf("BenchmarkOnlyOld", 5.0), snapOf("BenchmarkOnlyNew", 7.0), 1.15)
	if regressed {
		t.Fatalf("new/removed rows flagged a regression: %+v", rows)
	}
}

func TestRenderCompareTable(t *testing.T) {
	rows, _ := compareSnapshots(snapOf("BenchmarkA", 1000.0), snapOf("BenchmarkA", 500.0), 1.15)
	var sb strings.Builder
	renderCompare(&sb, rows, 1.15)
	out := sb.String()
	for _, want := range []string{"BenchmarkA", "0.500", "faster", "ratio = new/old"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// runsOf is a one-row snapshot carrying per-run ns/op.
func runsOf(name string, runs ...float64) Snapshot {
	s := Summary{Name: name, NsPerOp: median(runs), NsRuns: runs}
	return Snapshot{Benchmarks: []Summary{s}}
}

func TestRankSumExactValues(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{6, 7, 8, 9, 10}
	if p := rankSumP(a, b); math.Abs(p-1.0/252) > 1e-12 {
		t.Errorf("disjoint 5 v 5 (b above): p = %g, want 1/252", p)
	}
	if p := rankSumP(b, a); p != 1 {
		t.Errorf("disjoint 5 v 5 (b below): p = %g, want 1", p)
	}
	// One swap at the boundary: U = 24 of 25, reached or beaten by 2
	// of the 252 splits.
	if p := rankSumP([]float64{1, 2, 3, 4, 6}, []float64{5, 7, 8, 9, 10}); math.Abs(p-2.0/252) > 1e-12 {
		t.Errorf("one swap: p = %g, want 2/252", p)
	}
	// Two ties count half each: U = 23 of 25, reached or beaten by 4
	// of the 252 splits.
	if p := rankSumP([]float64{1, 2, 3, 4, 5}, []float64{4, 5, 7, 8, 9}); math.Abs(p-4.0/252) > 1e-12 {
		t.Errorf("two ties: p = %g, want 4/252", p)
	}
	// 2 v 2 has 6 splits, so p can never reach 5%: no say.
	if p := rankSumP([]float64{1, 2}, []float64{3, 4}); p != -1 {
		t.Errorf("2 v 2: p = %g, want -1 (untestable)", p)
	}
	if p := rankSumP(nil, []float64{3, 4}); p != -1 {
		t.Errorf("no old runs: p = %g, want -1", p)
	}
}

// TestCompareShiftUnderSpread: a 1.3x shift that moves every round is
// flagged even when host load spreads one side's rounds over 2x, while
// two draws of one distribution whose medians differ by more than the
// threshold read as noise and pass.
func TestCompareShiftUnderSpread(t *testing.T) {
	base := []float64{100, 104, 102, 200, 106} // one loaded round: 2x spread
	shifted := make([]float64, len(base))
	for i, v := range base {
		shifted[i] = 1.3 * v
	}
	rows, regressed := compareSnapshots(runsOf("BenchmarkA", base...), runsOf("BenchmarkA", shifted...), 1.15)
	if !regressed || rows[0].Status != "REGRESSION" {
		t.Fatalf("1.3x shift under 2x spread not flagged: %+v", rows[0])
	}
	if rows[0].P >= alpha {
		t.Errorf("1.3x shift: p = %g, want < %g", rows[0].P, alpha)
	}

	// The same five rounds, split two ways: the medians differ by 1.2x
	// but the ranks interleave.
	oldRuns := []float64{100, 150, 105, 190, 110}
	newRuns := []float64{140, 102, 185, 132, 200}
	rows, regressed = compareSnapshots(runsOf("BenchmarkA", oldRuns...), runsOf("BenchmarkA", newRuns...), 1.15)
	if rows[0].Ratio <= 1.15 {
		t.Fatalf("fixture ratio %.3f does not cross the threshold", rows[0].Ratio)
	}
	if regressed || rows[0].Status != "noise" {
		t.Fatalf("same-distribution pair flagged: %+v", rows[0])
	}
}

func TestRenderComparePrintsVerdict(t *testing.T) {
	rows, _ := compareSnapshots(runsOf("BenchmarkA", 1, 2, 3, 4, 5), runsOf("BenchmarkA", 6, 7, 8, 9, 10), 1.15)
	var sb strings.Builder
	renderCompare(&sb, rows, 1.15)
	if out := sb.String(); !strings.Contains(out, "0.004") || !strings.Contains(out, "REGRESSION") {
		t.Errorf("rendered row lacks the p-value or verdict:\n%s", out)
	}
}
