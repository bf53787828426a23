package bench

import (
	"math"
	"testing"

	"gpucnn/internal/impls"
	"gpucnn/internal/workload"
)

// Golden pins: the exact headline values EXPERIMENTS.md documents. The
// simulation is deterministic, so any drift here means the performance
// model changed and EXPERIMENTS.md must be regenerated — this test
// turns silent drift into a visible diff. A 1% tolerance absorbs
// innocuous float reordering.

func pinMs(t *testing.T, name string, wantMs float64) {
	t.Helper()
	e, err := impls.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cell := Measure(e, workload.Base())
	if !cell.Ok() {
		t.Fatalf("%s failed at base config", name)
	}
	got := float64(cell.Time.Microseconds()) / 1000
	if math.Abs(got-wantMs)/wantMs > 0.01 {
		t.Errorf("%s base runtime = %.2f ms, pinned %.2f ms — update EXPERIMENTS.md if intentional",
			name, got, wantMs)
	}
}

func TestGoldenBaseRuntimes(t *testing.T) {
	// From `go run ./cmd/paper all` (documented in EXPERIMENTS.md).
	pinMs(t, "fbfft", 16.76)
	pinMs(t, "cuDNN", 43.74)
	pinMs(t, "cuda-convnet2", 54.15)
	pinMs(t, "Theano-CorrMM", 81.07)
	pinMs(t, "Caffe", 100.68)
	pinMs(t, "Torch-cunn", 105.00)
	pinMs(t, "Theano-fft", 211.26)
}

func TestGoldenBaseMemory(t *testing.T) {
	want := map[string]int64{ // MB at the base config
		"cuda-convnet2": 229,
		"Torch-cunn":    261,
		"Caffe":         478,
		"cuDNN":         502,
		"Theano-fft":    1019,
		"fbfft":         1028,
	}
	for name, mb := range want {
		e, _ := impls.ByName(name)
		cell := Measure(e, workload.Base())
		got := cell.PeakBytes >> 20
		if got < mb-6 || got > mb+6 {
			t.Errorf("%s base memory = %d MB, pinned %d MB", name, got, mb)
		}
	}
}

func TestGoldenConv2TransferSpike(t *testing.T) {
	conv2 := workload.TableI()[1].Cfg
	e, _ := impls.ByName("Theano-CorrMM")
	cell := Measure(e, conv2)
	if cell.TransferShare < 0.58 || cell.TransferShare > 0.64 {
		t.Errorf("Conv2 transfer share = %.1f%%, pinned ≈60.4%%", cell.TransferShare*100)
	}
}
