package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"gpucnn/internal/workload"
)

// The goldens are the outputs of the per-figure commands paper
// replaced: all.golden from runall, scorecard.golden from report, and
// fig3_stride.csv.golden from `convbench -sweep stride -csv`. Every
// number in them is simulated, so they hold on any host at any -j.

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func paper(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("paper %v: %v", args, err)
	}
	return buf.String()
}

func TestAllMatchesGolden(t *testing.T) {
	if got, want := paper(t, "all"), golden(t, "all.golden"); got != want {
		t.Errorf("paper all differs from testdata/all.golden:\n%s", got)
	}
}

// TestSectionsAreSlicesOfAll: each section printed alone is exactly
// its block of the all output.
func TestSectionsAreSlicesOfAll(t *testing.T) {
	all := golden(t, "all.golden")
	for _, s := range sections() {
		if s.name == "scorecard" {
			continue
		}
		args := []string{s.name}
		if s.sweep != "" {
			args = append(args, s.sweep)
		}
		if got := paper(t, args...); !strings.Contains(all, got) || !strings.Contains(got, s.title) {
			t.Errorf("paper %v is not its block of the all output:\n%s", args, got)
		}
	}
}

// TestSweepSectionsWithoutSweep: fig3 and fig5 alone pick all five
// sweeps, in the paper's order.
func TestSweepSectionsWithoutSweep(t *testing.T) {
	for _, name := range []string{"fig3", "fig5"} {
		picked, err := pick([]string{name})
		if err != nil {
			t.Fatal(err)
		}
		var sweeps []string
		for _, s := range picked {
			sweeps = append(sweeps, s.sweep)
		}
		if got, want := strings.Join(sweeps, ","), strings.Join(workload.SweepNames(), ","); got != want {
			t.Errorf("paper %s picks sweeps %s, want %s", name, got, want)
		}
	}
}

func TestScorecardMatchesGolden(t *testing.T) {
	if got, want := paper(t, "scorecard"), golden(t, "scorecard.golden"); got != want {
		t.Errorf("paper scorecard differs from testdata/scorecard.golden:\n%s", got)
	}
}

func TestCSVMatchesGolden(t *testing.T) {
	if got, want := paper(t, "-csv", "fig3", "stride"), golden(t, "fig3_stride.csv.golden"); got != want {
		t.Errorf("paper -csv fig3 stride differs from testdata/fig3_stride.csv.golden:\n%s", got)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"fig9"},
		{"fig2", "batch"},
		{"fig3", "depth"},
		{"fig3", "batch", "extra"},
		{"-device", "v100", "fig3"},
		{"-device", "titanx", "fig6"},
		{"-device", "titanx", "all"},
		{"-csv", "all"},
		{"-csv", "table2"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("paper %v: want an error", args)
		}
	}
}
