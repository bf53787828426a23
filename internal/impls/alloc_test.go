package impls

import (
	"testing"

	"gpucnn/internal/conv"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// cifarNetConvs are CIFARNet's three conv layers (models.CIFARNet) at
// a small training batch. Winograd supports only 3×3 kernels, so it
// runs the same layers with 3×3 kernels and padding 1.
var cifarNetConvs = []conv.Config{
	{Batch: 8, Input: 32, Channels: 3, Filters: 32, Kernel: 5, Stride: 1, Pad: 2},
	{Batch: 8, Input: 16, Channels: 32, Filters: 32, Kernel: 5, Stride: 1, Pad: 2},
	{Batch: 8, Input: 8, Channels: 32, Filters: 64, Kernel: 5, Stride: 1, Pad: 2},
}

// TestPlansHoldTheirScratch checks the zero-allocation property where
// it is built: each plan holds its own arena, so once every pass has
// run once, repeating the passes grows no arena slab and allocates
// nothing — whatever GOMAXPROCS the warm-up ran at, because
// testing.AllocsPerRun measures at GOMAXPROCS 1.
func TestPlansHoldTheirScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations")
	}
	for _, eng := range []Engine{NewCuDNN(), NewCaffe(), NewFbfft(), NewWinograd()} {
		for _, cfg := range cifarNetConvs {
			if eng.Supports(cfg) != nil {
				cfg.Kernel, cfg.Pad = 3, 1
			}
			plan, err := eng.Plan(newDev(), cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", eng.Name(), cfg, err)
			}
			x, w, y := tensor.New(cfg.InputShape()...), tensor.New(cfg.FilterShape()...), tensor.New(cfg.OutputShape()...)
			dx, dw := tensor.New(cfg.InputShape()...), tensor.New(cfg.FilterShape()...)
			x.FillUniform(tensor.NewRNG(1), -1, 1)
			w.FillUniform(tensor.NewRNG(2), -1, 1)
			y.FillUniform(tensor.NewRNG(3), -1, 1)
			passes := []struct {
				name string
				run  func() error
			}{
				{"forward", func() error { return plan.Forward(x, w, y) }},
				{"backward-data", func() error { return plan.BackwardData(y, w, dx) }},
				{"backward-filter", func() error { return plan.BackwardFilter(x, y, dw) }},
			}
			for _, p := range passes {
				if err := p.run(); err != nil {
					t.Fatalf("%s %s: %v", eng.Name(), p.name, err)
				}
			}
			grows := workspace.ReadStats().SlabGrows
			for _, p := range passes {
				if err := p.run(); err != nil {
					t.Fatalf("%s %s: %v", eng.Name(), p.name, err)
				}
				if allocs := testing.AllocsPerRun(2, func() { _ = p.run() }); allocs != 0 {
					t.Errorf("%s %v %s: %v allocs per steady-state pass, want 0", eng.Name(), cfg, p.name, allocs)
				}
			}
			if g := workspace.ReadStats().SlabGrows - grows; g != 0 {
				t.Errorf("%s %v: %d slab grows after the warm-up passes, want 0", eng.Name(), cfg, g)
			}
			plan.Release()
		}
	}
}
