package conv

import (
	"testing"
	"testing/quick"

	"gpucnn/internal/gemm"
	"gpucnn/internal/im2col"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// materializedForward is the pre-fusion reference: im2col into a real
// buffer, then a packed GEMM against the filter matrix. The fused path
// in UnrollForward must be bit-compatible up to float reassociation.
func materializedForward(cfg Config, x, w, y *tensor.Tensor) {
	g := cfg.geom()
	rows, cols := g.ColRows(), g.ColCols()
	imgLen := cfg.Channels * cfg.Input * cfg.Input
	outLen := cfg.Filters * cols
	col := make([]float32, rows*cols)
	for n := 0; n < cfg.Batch; n++ {
		im2col.Im2col(g, x.Data[n*imgLen:(n+1)*imgLen], col)
		gemm.Blocked(new(workspace.Arena), 1, w.Data, col, 0, y.Data[n*outLen:(n+1)*outLen], cfg.Filters, cols, rows)
	}
}

// materializedBackwardFilter accumulates dw = Σ_n dy_n·col_nᵀ through
// the materialised column matrix and the NT kernel.
func materializedBackwardFilter(cfg Config, x, dy, dw *tensor.Tensor) {
	g := cfg.geom()
	rows, cols := g.ColRows(), g.ColCols()
	imgLen := cfg.Channels * cfg.Input * cfg.Input
	outLen := cfg.Filters * cols
	col := make([]float32, rows*cols)
	clear(dw.Data)
	for n := 0; n < cfg.Batch; n++ {
		im2col.Im2col(g, x.Data[n*imgLen:(n+1)*imgLen], col)
		gemm.NT(new(workspace.Arena), 1, dy.Data[n*outLen:(n+1)*outLen], col, 1, dw.Data, cfg.Filters, rows, cols)
	}
}

func fusedTestConfigs() []Config {
	return []Config{
		{Batch: 2, Input: 8, Channels: 3, Filters: 4, Kernel: 3, Stride: 1, Pad: 1},
		{Batch: 1, Input: 13, Channels: 2, Filters: 7, Kernel: 5, Stride: 2, Pad: 2},
		{Batch: 3, Input: 9, Channels: 1, Filters: 9, Kernel: 3, Stride: 3},
		{Batch: 1, Input: 16, Channels: 4, Filters: 8, Kernel: 1, Stride: 1},
		{Batch: 2, Input: 7, Channels: 2, Filters: 3, Kernel: 7, Stride: 1, Pad: 6},
		{Batch: 1, Input: 24, Channels: 3, Filters: 16, Kernel: 3, Stride: 1, Pad: 1},
	}
}

func TestFusedForwardMatchesMaterialized(t *testing.T) {
	for _, cfg := range fusedTestConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("bad config %v: %v", cfg, err)
		}
		x, w := randTensors(cfg, 41)
		want := tensor.New(cfg.OutputShape()...)
		got := tensor.New(cfg.OutputShape()...)
		materializedForward(cfg, x, w, want)
		UnrollForward(new(workspace.Arena), cfg, x, w, got)
		if !tensor.AllClose(want, got, 1e-4) {
			t.Errorf("fused forward diverges from materialised reference at %v", cfg)
		}
	}
}

func TestFusedBackwardFilterMatchesMaterialized(t *testing.T) {
	for _, cfg := range fusedTestConfigs() {
		x, _ := randTensors(cfg, 43)
		r := tensor.NewRNG(44)
		dy := tensor.New(cfg.OutputShape()...)
		dy.FillUniform(r, -1, 1)
		want := tensor.New(cfg.FilterShape()...)
		got := tensor.New(cfg.FilterShape()...)
		materializedBackwardFilter(cfg, x, dy, want)
		UnrollBackwardFilter(new(workspace.Arena), cfg, x, dy, got)
		if !tensor.AllClose(want, got, 1e-3) {
			t.Errorf("fused backward-filter diverges from materialised reference at %v", cfg)
		}
	}
}

// TestFusedForwardPropertyRagged drives fused-vs-materialised over
// randomly drawn ragged shapes, strides, and paddings.
func TestFusedForwardPropertyRagged(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		cfg := Config{
			Batch: 1 + r.Intn(2), Input: 5 + r.Intn(14),
			Channels: 1 + r.Intn(4), Filters: 1 + r.Intn(9),
			Kernel: 1 + r.Intn(5), Stride: 1 + r.Intn(3), Pad: r.Intn(3),
		}
		if cfg.Validate() != nil {
			return true
		}
		x, w := randTensors(cfg, seed+7)
		want := tensor.New(cfg.OutputShape()...)
		got := tensor.New(cfg.OutputShape()...)
		materializedForward(cfg, x, w, want)
		UnrollForward(new(workspace.Arena), cfg, x, w, got)
		return tensor.AllClose(want, got, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzFusedUnroll lets the fuzzer search the geometry space for any
// divergence between the fused im2col→pack path and the materialised
// reference, on both the forward and backward-filter GEMMs.
func FuzzFusedUnroll(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(3), uint8(4), uint8(3), uint8(1), uint8(1))
	f.Add(uint64(9), uint8(13), uint8(2), uint8(7), uint8(5), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, input, channels, filters, kernel, stride, pad uint8) {
		cfg := Config{
			Batch:    1,
			Input:    4 + int(input%16),
			Channels: 1 + int(channels%4),
			Filters:  1 + int(filters%8),
			Kernel:   1 + int(kernel%6),
			Stride:   1 + int(stride%3),
			Pad:      int(pad % 4),
		}
		if cfg.Validate() != nil {
			t.Skip()
		}
		x, w := randTensors(cfg, seed)
		want := tensor.New(cfg.OutputShape()...)
		got := tensor.New(cfg.OutputShape()...)
		materializedForward(cfg, x, w, want)
		UnrollForward(new(workspace.Arena), cfg, x, w, got)
		if !tensor.AllClose(want, got, 1e-4) {
			t.Fatalf("fused forward diverges at %v", cfg)
		}
		r := tensor.NewRNG(seed + 1)
		dy := tensor.New(cfg.OutputShape()...)
		dy.FillUniform(r, -1, 1)
		dwWant := tensor.New(cfg.FilterShape()...)
		dwGot := tensor.New(cfg.FilterShape()...)
		materializedBackwardFilter(cfg, x, dy, dwWant)
		UnrollBackwardFilter(new(workspace.Arena), cfg, x, dy, dwGot)
		if !tensor.AllClose(dwWant, dwGot, 1e-3) {
			t.Fatalf("fused backward-filter diverges at %v", cfg)
		}
	})
}
