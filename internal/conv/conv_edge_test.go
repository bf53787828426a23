package conv

import (
	"testing"

	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// held adapts an arena-taking forward pass to Forwarder, over one arena
// held across calls the way a plan holds its own.
func held(pass func(*workspace.Arena, Config, *tensor.Tensor, *tensor.Tensor, *tensor.Tensor)) Forwarder {
	ws := new(workspace.Arena)
	return func(cfg Config, x, w, y *tensor.Tensor) { pass(ws, cfg, x, w, y) }
}

// Edge geometries: 1×1 kernels, kernel == input, single-pixel outputs,
// and batch-size-1 paths through every strategy.

func TestOneByOneKernelAllStrategies(t *testing.T) {
	cfg := Config{Batch: 2, Input: 8, Channels: 3, Filters: 4, Kernel: 1, Stride: 1}
	x, w := randTensors(cfg, 101)
	ref := tensor.New(cfg.OutputShape()...)
	DirectForward(cfg, x, w, ref)
	// A 1×1 convolution is a per-pixel channel mix; verify one element
	// by hand.
	var want float32
	for c := 0; c < 3; c++ {
		want += x.At(0, c, 2, 3) * w.At(1, c, 0, 0)
	}
	if got := ref.At(0, 1, 2, 3); absDiff(got, want) > 1e-5 {
		t.Fatalf("1x1 reference wrong: %v vs %v", got, want)
	}
	for name, fwd := range map[string]Forwarder{"unroll": held(UnrollForward), "fft": held(FFTForward)} {
		y := tensor.New(cfg.OutputShape()...)
		fwd(cfg, x, w, y)
		if !tensor.AllClose(ref, y, 1e-3) {
			t.Errorf("%s differs on 1x1 kernel: %g", name, tensor.RelDiff(ref, y))
		}
	}
}

func TestKernelEqualsInput(t *testing.T) {
	// k == i collapses the output to a single pixel (a full dot
	// product — an FC layer in disguise).
	cfg := Config{Batch: 2, Input: 7, Channels: 2, Filters: 3, Kernel: 7, Stride: 1}
	if cfg.Out() != 1 {
		t.Fatalf("out = %d, want 1", cfg.Out())
	}
	x, w := randTensors(cfg, 102)
	ref := tensor.New(cfg.OutputShape()...)
	DirectForward(cfg, x, w, ref)
	for name, fwd := range map[string]Forwarder{"unroll": held(UnrollForward), "fft": held(FFTForward)} {
		y := tensor.New(cfg.OutputShape()...)
		fwd(cfg, x, w, y)
		if !tensor.AllClose(ref, y, 1e-3) {
			t.Errorf("%s differs with kernel==input: %g", name, tensor.RelDiff(ref, y))
		}
	}
}

func TestBatchOfOne(t *testing.T) {
	cfg := Config{Batch: 1, Input: 9, Channels: 2, Filters: 2, Kernel: 3, Stride: 2}
	x, w := randTensors(cfg, 103)
	y1 := tensor.New(cfg.OutputShape()...)
	y2 := tensor.New(cfg.OutputShape()...)
	DirectForward(cfg, x, w, y1)
	UnrollForward(new(workspace.Arena), cfg, x, w, y2)
	if !tensor.AllClose(y1, y2, 1e-4) {
		t.Fatal("batch-1 strided disagreement")
	}
}

func TestLargePaddingBeyondKernel(t *testing.T) {
	// Padding larger than the kernel still has a well-defined output.
	cfg := Config{Batch: 1, Input: 4, Channels: 1, Filters: 1, Kernel: 3, Stride: 1, Pad: 3}
	x, w := randTensors(cfg, 104)
	y1 := tensor.New(cfg.OutputShape()...)
	y2 := tensor.New(cfg.OutputShape()...)
	y3 := tensor.New(cfg.OutputShape()...)
	DirectForward(cfg, x, w, y1)
	UnrollForward(new(workspace.Arena), cfg, x, w, y2)
	FFTForward(new(workspace.Arena), cfg, x, w, y3)
	if !tensor.AllClose(y1, y2, 1e-4) || !tensor.AllClose(y1, y3, 1e-3) {
		t.Fatal("large-padding disagreement")
	}
	// Corner outputs see only padding -> exactly zero.
	if y1.At(0, 0, 0, 0) != 0 {
		t.Fatalf("all-padding corner = %v, want 0", y1.At(0, 0, 0, 0))
	}
}

func TestZeroInputGivesZeroOutput(t *testing.T) {
	cfg := Config{Batch: 2, Input: 8, Channels: 2, Filters: 3, Kernel: 3, Stride: 1}
	x := tensor.New(cfg.InputShape()...)
	_, w := randTensors(cfg, 105)
	for name, fwd := range map[string]Forwarder{"direct": DirectForward, "unroll": held(UnrollForward), "fft": held(FFTForward)} {
		y := tensor.New(cfg.OutputShape()...)
		y.Fill(9)
		fwd(cfg, x, w, y)
		if y.AbsMax() > 1e-5 {
			t.Errorf("%s: zero input must give zero output, max %v", name, y.AbsMax())
		}
	}
}

// TestLinearityInInput: conv(a·x1 + x2) = a·conv(x1) + conv(x2) for
// every strategy (convolution is linear).
func TestLinearityInInput(t *testing.T) {
	cfg := Config{Batch: 1, Input: 10, Channels: 2, Filters: 2, Kernel: 3, Stride: 1}
	x1, w := randTensors(cfg, 106)
	x2, _ := randTensors(cfg, 107)
	combo := x1.Clone()
	combo.Scale(2.5)
	combo.AddScaled(x2, 1)
	for name, fwd := range map[string]Forwarder{"direct": DirectForward, "unroll": held(UnrollForward), "fft": held(FFTForward)} {
		yCombo := tensor.New(cfg.OutputShape()...)
		fwd(cfg, combo, w, yCombo)
		y1 := tensor.New(cfg.OutputShape()...)
		fwd(cfg, x1, w, y1)
		y2 := tensor.New(cfg.OutputShape()...)
		fwd(cfg, x2, w, y2)
		want := y1.Clone()
		want.Scale(2.5)
		want.AddScaled(y2, 1)
		if !tensor.AllClose(yCombo, want, 1e-3) {
			t.Errorf("%s violates linearity: %g", name, tensor.RelDiff(yCombo, want))
		}
	}
}
