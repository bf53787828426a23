package models

import (
	"testing"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/nn"
	"gpucnn/internal/planner"
	"gpucnn/internal/tensor"
)

// simulate runs one training iteration of a model at the given batch
// and returns the context (ledger) and device.
func simulate(t *testing.T, m *Model, batch int) (*nn.Context, *gpusim.Device) {
	t.Helper()
	dev := gpusim.New(gpusim.TeslaK40c())
	ctx := nn.NewContext(dev, true)
	m.Net.SimulateIteration(ctx, tensor.Shape(m.InputShape(batch)))
	return ctx, dev
}

// TestParameterCounts asserts the sizes the paper quotes in Section I:
// AlexNet "more than 60 million parameters", VGGNet "over 144 million"
// (VGG-19's exact count is 143.67 M), GoogLeNet "about 6.8 million".
func TestParameterCounts(t *testing.T) {
	cases := []struct {
		m        *Model
		min, max int
	}{
		{AlexNet(nil), 60_000_000, 65_000_000},
		{VGG19(nil), 140_000_000, 147_000_000},
		{VGG16(nil), 136_000_000, 141_000_000}, // reference count 138.36 M
		{GoogLeNet(nil), 6_500_000, 7_500_000},
		{OverFeat(nil), 130_000_000, 150_000_000},
		{LeNet5(nil), 40_000, 70_000},
	}
	for _, c := range cases {
		// Parameters initialise lazily on the first (simulate-only) pass.
		ctx := nn.NewContext(nil, true)
		c.m.Net.SimulateIteration(ctx, tensor.Shape(c.m.InputShape(1)))
		got := c.m.Net.ParamCount()
		if got < c.min || got > c.max {
			t.Errorf("%s parameter count = %d, want in [%d, %d]",
				c.m.Net.Name, got, c.min, c.max)
		}
	}
}

// TestLayerComposition checks the architectural shape the paper quotes:
// AlexNet 5 conv + 3 FC, VGG-19 16 conv + 3 FC, GoogLeNet 22
// weight-bearing levels.
func TestLayerComposition(t *testing.T) {
	count := func(net *nn.Net) (convs, fcs int) {
		var walk func(ls []nn.Layer)
		walk = func(ls []nn.Layer) {
			for _, l := range ls {
				switch v := l.(type) {
				case *nn.Conv:
					convs++
				case *nn.FC:
					fcs++
				case *nn.Branch:
					for _, p := range v.Paths {
						walk(p)
					}
				}
			}
		}
		walk(net.Layers)
		return
	}
	if c, f := count(AlexNet(nil).Net); c != 5 || f != 3 {
		t.Errorf("AlexNet has %d conv + %d fc, want 5 + 3", c, f)
	}
	if c, f := count(VGG19(nil).Net); c != 16 || f != 3 {
		t.Errorf("VGG-19 has %d conv + %d fc, want 16 + 3", c, f)
	}
	if c, f := count(OverFeat(nil).Net); c != 5 || f != 3 {
		t.Errorf("OverFeat has %d conv + %d fc, want 5 + 3", c, f)
	}
	c, f := count(GoogLeNet(nil).Net)
	// 9 inception modules × 6 convs + 3 stem convs = 57 convs, 1 FC.
	if c != 57 || f != 1 {
		t.Errorf("GoogLeNet has %d conv + %d fc, want 57 + 1", c, f)
	}
}

func TestOutputShapes(t *testing.T) {
	for name, m := range All(nil) {
		out := m.Net.OutShape(tensor.Shape(m.InputShape(4)))
		if !out.Equal(tensor.Shape{4, 1000}) {
			t.Errorf("%s output shape = %v, want [4 1000]", name, out)
		}
	}
	le := LeNet5(nil)
	if out := le.Net.OutShape(tensor.Shape(le.InputShape(2))); !out.Equal(tensor.Shape{2, 10}) {
		t.Errorf("LeNet-5 output shape = %v", out)
	}
}

// TestFigure2ConvDominance reproduces the paper's Figure 2 headline:
// convolutional layers consume the bulk (86–94% in the paper) of each
// model's training iteration.
func TestFigure2ConvDominance(t *testing.T) {
	if testing.Short() {
		t.Skip("model simulation in short mode")
	}
	batches := map[string]int{"AlexNet": 128, "GoogLeNet": 128, "OverFeat": 128, "VGG": 64}
	for name, m := range All(impls.NewCaffe()) {
		ctx, dev := simulate(t, m, batches[name])
		share := nn.ConvShare(ctx.TimeByKind)
		if share < 0.80 || share > 0.98 {
			t.Errorf("%s conv share = %.1f%%, want within [80%%, 98%%] (paper: 86-94%%)",
				name, share*100)
		}
		if dev.Elapsed() <= 0 {
			t.Errorf("%s: no simulated time", name)
		}
		m.Net.Release()
		if dev.Mem.Used() != 0 {
			t.Errorf("%s leaked %d device bytes", name, dev.Mem.Used())
		}
	}
}

// TestGoogLeNetHasConcatTime: the Concat category must appear for
// GoogLeNet (the paper calls it out as GoogLeNet-specific).
func TestGoogLeNetHasConcatTime(t *testing.T) {
	m := GoogLeNet(impls.NewCuDNN())
	ctx, _ := simulate(t, m, 32)
	if ctx.TimeByKind[nn.KindConcat] <= 0 {
		t.Fatal("GoogLeNet should spend time in Concat")
	}
	m.Net.Release()
	a := AlexNet(impls.NewCuDNN())
	ctxA, _ := simulate(t, a, 32)
	if ctxA.TimeByKind[nn.KindConcat] != 0 {
		t.Fatal("AlexNet has no concat layers")
	}
	a.Net.Release()
}

// TestLeNetTrains runs real training on LeNet-5 with synthetic digits
// and checks the loss decreases.
func TestLeNetTrains(t *testing.T) {
	m := LeNet5(nil)
	r := tensor.NewRNG(3)
	batch := 8
	makeBatch := func() (*tensor.Tensor, []int) {
		x := tensor.New(batch, 1, 28, 28)
		labels := make([]int, batch)
		for bi := 0; bi < batch; bi++ {
			label := r.Intn(10)
			labels[bi] = label
			// Synthetic class signature: a bright band at a
			// label-dependent row.
			row := 2 + label*2
			for c := 0; c < 28; c++ {
				x.Data[bi*784+row*28+c] = 1
				x.Data[bi*784+(row+1)*28+c] = 0.5
			}
		}
		return x, labels
	}
	ctx := nn.NewContext(nil, true)
	opt := nn.NewSGD(0.05, 0.9, 0)
	var first, last float64
	for step := 0; step < 25; step++ {
		x, labels := makeBatch()
		loss, _ := m.Net.TrainStep(ctx, x, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		opt.Step(m.Net.Params())
	}
	if last >= first*0.7 {
		t.Fatalf("LeNet-5 did not learn: first %.4f last %.4f", first, last)
	}
}

func TestCIFARNetShapeAndTraining(t *testing.T) {
	m := CIFARNet(nil)
	if out := m.Net.OutShape(tensor.Shape(m.InputShape(4))); !out.Equal(tensor.Shape{4, 10}) {
		t.Fatalf("CIFARNet output = %v", out)
	}
	ctx := nn.NewContext(nil, true)
	opt := nn.NewSGD(0.05, 0.9, 0)
	r := tensor.NewRNG(9)
	var first, last float64
	for step := 0; step < 40; step++ {
		x := tensor.New(8, 3, 32, 32)
		labels := make([]int, 8)
		for bi := 0; bi < 8; bi++ {
			labels[bi] = r.Intn(2) // two easy classes
			base := float32(labels[bi])*2 - 1
			for j := 0; j < 3*1024; j++ {
				x.Data[bi*3*1024+j] = base + 0.3*(2*r.Float32()-1)
			}
		}
		loss, _ := m.Net.TrainStep(ctx, x, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		opt.Step(m.Net.Params())
	}
	if last >= first*0.7 {
		t.Fatalf("CIFARNet did not learn: %v -> %v", first, last)
	}
}

func TestEvaluateBatches(t *testing.T) {
	m := LeNet5(nil)
	r := tensor.NewRNG(44)
	images := tensor.New(10, 1, 28, 28)
	images.FillUniform(r, 0, 1)
	labels := make([]int, 10)
	for i := range labels {
		labels[i] = r.Intn(10)
	}
	// Batched evaluation must match single-shot evaluation. Not
	// bitwise: the batch dimension is the GEMM m dimension, and rows
	// inside a full 8-row register tile run through the FMA micro-kernel
	// (fused rounding) while tail rows take the scalar kernel — so the
	// same sample's logits can differ at float32 rounding order
	// depending on batch size, like any vectorised BLAS.
	l1, a1 := Evaluate(m, images, labels, 10)
	l2, a2 := Evaluate(m, images, labels, 3)
	if diff := l1 - l2; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("batched loss %v != full-batch loss %v", l2, l1)
	}
	if a1 != a2 {
		t.Fatalf("batched accuracy %v != %v", a2, a1)
	}
}

// TestAutoEngineRunsEveryModel: the planner's Autotuned engine must
// plan every layer of every profiled model (strided, 1×1, 3×3, 5×5,
// 7×7, 11×11) and never be slower than a fixed cuDNN choice.
func TestAutoEngineRunsEveryModel(t *testing.T) {
	for name := range All(nil) {
		auto := All(planner.NewAutotuned(planner.Options{Cache: planner.NewCache()}))[name]
		fixed := All(impls.NewCuDNN())[name]
		_, devA := simulate(t, auto, 32)
		_, devF := simulate(t, fixed, 32)
		if devA.Elapsed() > devF.Elapsed() {
			t.Errorf("%s: Autotuned (%v) slower than fixed cuDNN (%v)", name, devA.Elapsed(), devF.Elapsed())
		}
		auto.Net.Release()
		fixed.Net.Release()
	}
}
