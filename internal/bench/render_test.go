package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/impls"
	"gpucnn/internal/workload"
)

func sampleRows() []Row {
	cells := []Cell{
		{Impl: "Caffe", Time: 100 * time.Millisecond, PeakBytes: 500 << 20},
		{Impl: "fbfft", Time: 20 * time.Millisecond, PeakBytes: 1000 << 20},
		{Impl: "Theano-fft", Unsupported: "stride"},
		{Impl: "cuda-convnet2", OOM: true},
	}
	return []Row{{Value: 64, Cells: cells}}
}

func TestRenderSweepTimesMarksSpecialCells(t *testing.T) {
	out := RenderSweepTimes("batch", sampleRows())
	if !strings.Contains(out, "100.00") || !strings.Contains(out, "20.00") {
		t.Fatalf("times missing:\n%s", out)
	}
	if !strings.Contains(out, "n/s") {
		t.Fatalf("unsupported marker missing:\n%s", out)
	}
	if !strings.Contains(out, "OOM") {
		t.Fatalf("OOM marker missing:\n%s", out)
	}
}

func TestRenderSweepMemory(t *testing.T) {
	out := RenderSweepMemory("batch", sampleRows())
	if !strings.Contains(out, "500") || !strings.Contains(out, "1000") {
		t.Fatalf("memory values missing:\n%s", out)
	}
	if !strings.Contains(out, "peak device memory") {
		t.Fatalf("header missing:\n%s", out)
	}
}

func TestCSVSweep(t *testing.T) {
	out := CSVSweep("batch", sampleRows(), false)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "batch,") {
		t.Fatalf("bad header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "64,") {
		t.Fatalf("bad row %q", lines[1])
	}
	mem := CSVSweep("batch", sampleRows(), true)
	if !strings.Contains(mem, "500") {
		t.Fatalf("memory CSV missing values:\n%s", mem)
	}
}

// TestRenderSweepHeadersFollowRows: headers derive from the rows' own
// cells, so a subset or reordered sweep cannot misalign columns.
func TestRenderSweepHeadersFollowRows(t *testing.T) {
	rows := []Row{
		{Value: 1, Cells: []Cell{
			{Impl: "fbfft", Time: 10 * time.Millisecond},
			{Impl: "Caffe", Time: 20 * time.Millisecond},
		}},
		// Second row reordered and missing Caffe: values must still land
		// under their own headers.
		{Value: 2, Cells: []Cell{
			{Impl: "Caffe", Time: 40 * time.Millisecond},
			{Impl: "fbfft", Time: 30 * time.Millisecond},
		}},
		{Value: 3, Cells: []Cell{
			{Impl: "fbfft", Time: 50 * time.Millisecond},
		}},
	}
	out := RenderSweepTimes("batch", rows)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + 3 rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	header := strings.Fields(lines[1])
	if len(header) != 3 || header[1] != "fbfft" || header[2] != "Caffe" {
		t.Fatalf("header should come from the rows' impls, got %v", header)
	}
	row2 := strings.Fields(lines[3])
	if row2[1] != "30.00" || row2[2] != "40.00" {
		t.Fatalf("reordered row misaligned: %v", row2)
	}
	row3 := strings.Fields(lines[4])
	if row3[1] != "50.00" || row3[2] != "-" {
		t.Fatalf("missing cell should render a placeholder: %v", row3)
	}

	csv := CSVSweep("batch", rows, false)
	csvLines := strings.Split(strings.TrimSpace(csv), "\n")
	if csvLines[0] != "batch,fbfft,Caffe" {
		t.Fatalf("CSV header should come from the rows' impls: %q", csvLines[0])
	}
	if csvLines[2] != "2,30.000,40.000" {
		t.Fatalf("reordered CSV row misaligned: %q", csvLines[2])
	}
	if csvLines[3] != "3,50.000," {
		t.Fatalf("missing CSV cell should render empty: %q", csvLines[3])
	}
}

// TestCSVSweepMarkers: the CSV keeps the paper's OOM-vs-unsupported
// distinction instead of collapsing both to an empty cell.
func TestCSVSweepMarkers(t *testing.T) {
	out := CSVSweep("batch", sampleRows(), false)
	line := strings.Split(strings.TrimSpace(out), "\n")[1]
	if !strings.Contains(line, ",n/s") || !strings.Contains(line, ",OOM") {
		t.Fatalf("CSV should mark n/s and OOM distinctly: %q", line)
	}
	failed := []Row{{Value: 1, Cells: []Cell{
		{Impl: "a", Panic: "boom"},
		{Impl: "b", Canceled: true},
	}}}
	line = strings.Split(strings.TrimSpace(CSVSweep("batch", failed, false)), "\n")[1]
	if line != "1,panic,canceled" {
		t.Fatalf("CSV should mark panicked/canceled cells: %q", line)
	}
}

// TestFmtDurSubMicrosecond: millisecond rendering must round from the
// full-precision duration instead of truncating at the microsecond.
func TestFmtDurSubMicrosecond(t *testing.T) {
	if got := fmtDur(1234567 * time.Nanosecond); got != "1.23" {
		t.Fatalf("fmtDur = %q, want 1.23", got)
	}
	if got := fmtDur(4999 * time.Nanosecond); got != "0.00" {
		t.Fatalf("fmtDur = %q", got)
	}
	// CSV keeps three decimals: 1.5 µs rounds to 0.002 ms, where the
	// old microsecond truncation rendered 0.001.
	rows := []Row{{Value: 1, Cells: []Cell{{Impl: "a", Time: 1500 * time.Nanosecond}}}}
	if out := CSVSweep("x", rows, false); !strings.Contains(out, "1,0.002") {
		t.Fatalf("CSV truncated sub-microsecond runtime:\n%s", out)
	}
}

func TestRowHelpers(t *testing.T) {
	row := sampleRows()[0]
	best, ok := row.Best()
	if !ok || best.Impl != "fbfft" {
		t.Fatalf("Best = %v", best)
	}
	c, ok := row.CellFor("Caffe")
	if !ok || c.Time != 100*time.Millisecond {
		t.Fatalf("CellFor(Caffe) = %v", c)
	}
	if _, ok := row.CellFor("nope"); ok {
		t.Fatal("CellFor on unknown impl should report false")
	}
}

func TestCellOk(t *testing.T) {
	if (Cell{OOM: true}).Ok() || (Cell{Unsupported: "x"}).Ok() {
		t.Fatal("failed cells must not be Ok")
	}
	if !(Cell{Time: time.Millisecond}).Ok() {
		t.Fatal("valid cell should be Ok")
	}
}

func TestMeasureUnsupportedAndOOM(t *testing.T) {
	fb, _ := impls.ByName("fbfft")
	strided := conv.Config{Batch: 4, Input: 16, Channels: 1, Filters: 4, Kernel: 3, Stride: 2}
	c := Measure(fb, strided)
	if c.Unsupported == "" {
		t.Fatal("Measure should mark unsupported shape")
	}
	huge := conv.Config{Batch: 256, Input: 256, Channels: 3, Filters: 96, Kernel: 11, Stride: 1}
	c = Measure(fb, huge)
	if !c.OOM {
		t.Fatalf("Measure should mark OOM, got %+v", c)
	}
}

func TestMeasureDeterministic(t *testing.T) {
	e, _ := impls.ByName("cuDNN")
	a := Measure(e, workload.Base())
	b := Measure(e, workload.Base())
	if a.Time != b.Time || a.PeakBytes != b.PeakBytes {
		t.Fatalf("Measure not deterministic: %v/%v vs %v/%v", a.Time, a.PeakBytes, b.Time, b.PeakBytes)
	}
}

func TestRenderFigure6AndFigure7(t *testing.T) {
	rows6 := []MetricsRow{{Config: "Conv1", Impl: "cuDNN", Cell: Cell{Time: time.Millisecond}}}
	out := RenderFigure6(rows6)
	if !strings.Contains(out, "Conv1") || !strings.Contains(out, "cuDNN") {
		t.Fatalf("figure 6 render missing rows:\n%s", out)
	}
	rows7 := []TransferRow{
		{Config: "Conv2", Impl: "Theano-CorrMM", Share: 0.6, Ok: true},
		{Config: "Conv2", Impl: "fbfft", Ok: true},
	}
	out = RenderFigure7(rows7)
	if !strings.Contains(out, "60.0%") {
		t.Fatalf("figure 7 render missing share:\n%s", out)
	}
}

func TestRenderTableII(t *testing.T) {
	out := RenderTableII([]TableIIRow{{Impl: "fbfft", RegsPerThread: 106, SmemPerBlockB: 10240}})
	if !strings.Contains(out, "106") || !strings.Contains(out, "10.0") {
		t.Fatalf("table II render wrong:\n%s", out)
	}
}

func TestShapeMatrixMatchesPaperSummary(t *testing.T) {
	m := ShapeMatrix()
	// Unrolling engines support everything.
	for _, name := range []string{"Caffe", "Torch-cunn", "Theano-CorrMM", "cuDNN"} {
		for caseName, row := range m {
			if !row[name] {
				t.Errorf("%s should support %q", name, caseName)
			}
		}
	}
	// cuda-convnet2 rejects odd batches and filter counts.
	if m["batch 50"]["cuda-convnet2"] || m["filters 100"]["cuda-convnet2"] {
		t.Error("cuda-convnet2 should reject non-multiple shapes")
	}
	if !m["stride 2"]["cuda-convnet2"] {
		t.Error("cuda-convnet2 supports strides")
	}
	// FFT engines reject stride 2 only.
	for _, name := range []string{"fbfft", "Theano-fft"} {
		if m["stride 2"][name] {
			t.Errorf("%s should reject stride 2", name)
		}
		if !m["batch 50"][name] || !m["filters 100"][name] {
			t.Errorf("%s should accept odd batch/filter counts", name)
		}
	}
	out := RenderShapeMatrix()
	if !strings.Contains(out, "stride 2") || !strings.Contains(out, "yes") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestScorecardAllClaimsPass(t *testing.T) {
	claims := ScorecardCtx(context.Background(), Options{})
	if len(claims) < 18 {
		t.Fatalf("scorecard has %d claims, want a comprehensive set", len(claims))
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("claim %s failed: paper %q, measured %q", c.ID, c.Paper, c.Measured)
		}
	}
	out := RenderScorecard(claims)
	if !strings.Contains(out, "claims reproduced") || !strings.Contains(out, "PASS") {
		t.Fatalf("scorecard render wrong:\n%s", out)
	}
}
