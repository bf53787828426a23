package nn

import (
	"math"
	"strings"
	"testing"
	"time"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/tensor"
)

// numericalGrad estimates d(loss)/d(target) for the scalar loss
// Σ out ⊙ proj by central differences, where target aliases either the
// input tensor or a parameter tensor.
func numericalGrad(t *testing.T, layer Layer, x *tensor.Tensor, target *tensor.Tensor, proj *tensor.Tensor, eps float32) *tensor.Tensor {
	t.Helper()
	grad := tensor.New(target.Shape()...)
	loss := func() float64 {
		ctx := NewContext(nil, true)
		ctx.RNG = tensor.NewRNG(42) // freeze dropout masks
		out := layer.Forward(ctx, NewValue(x))
		var s float64
		for i := range out.Data.Data {
			s += float64(out.Data.Data[i]) * float64(proj.Data[i])
		}
		return s
	}
	for i := range target.Data {
		orig := target.Data[i]
		target.Data[i] = orig + eps
		lp := loss()
		target.Data[i] = orig - eps
		lm := loss()
		target.Data[i] = orig
		grad.Data[i] = float32((lp - lm) / (2 * float64(eps)))
	}
	return grad
}

// nudgeAwayFromZero shifts every element at least margin away from
// zero, so finite differences don't straddle the ReLU kink.
func nudgeAwayFromZero(x *tensor.Tensor, margin float32) {
	for i, v := range x.Data {
		if v >= 0 && v < margin {
			x.Data[i] = v + margin
		} else if v < 0 && v > -margin {
			x.Data[i] = v - margin
		}
	}
}

// analyticGrads runs forward+backward once and returns dx.
func analyticGrads(layer Layer, x, proj *tensor.Tensor) *Value {
	ctx := NewContext(nil, true)
	ctx.RNG = tensor.NewRNG(42)
	layer.Forward(ctx, NewValue(x))
	return layer.Backward(ctx, NewValue(proj))
}

func gradCheckInput(t *testing.T, layer Layer, x *tensor.Tensor, outShape tensor.Shape, tol float64) {
	t.Helper()
	proj := tensor.New(outShape...)
	proj.FillUniform(tensor.NewRNG(7), -1, 1)
	dx := analyticGrads(layer, x, proj)
	num := numericalGrad(t, layer, x, x, proj, 1e-2)
	if !tensor.AllClose(dx.Data, num, tol) {
		t.Fatalf("input gradient mismatch: rel diff %g", tensor.RelDiff(dx.Data, num))
	}
}

func TestReLUForward(t *testing.T) {
	l := NewReLU("r")
	x := tensor.FromSlice([]float32{-1, 0, 2, -3}, 1, 1, 2, 2)
	ctx := NewContext(nil, false)
	y := l.Forward(ctx, NewValue(x))
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if y.Data.Data[i] != want[i] {
			t.Fatalf("relu = %v, want %v", y.Data.Data, want)
		}
	}
}

// TestReLUSpecialValues pins ReLU on the values a compare-and-zero
// loop treats specially: −0, +0 and NaN (of either sign) give +0, as
// do negatives and −Inf; positives, positive subnormals and +Inf pass.
// Backward passes dy exactly where the input is > 0 and writes +0
// everywhere else, also over a held gradient from an earlier pass.
func TestReLUSpecialValues(t *testing.T) {
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(math.Float32bits(nan) | 1<<31)
	sub := math.Float32frombits(1)
	// The NaNs next to +Inf and at the top of the bit range bound the
	// positive NaNs.
	nanLo, nanHi := math.Float32frombits(0x7f800001), math.Float32frombits(0x7fffffff)
	in := []float32{float32(math.Copysign(0, -1)), 0, nan, negNaN, nanLo, nanHi, -1,
		float32(math.Inf(-1)), -sub, sub, 1.5, float32(math.Inf(1)), math.MaxFloat32}
	wantY := []float32{0, 0, 0, 0, 0, 0, 0, 0, 0, sub, 1.5, float32(math.Inf(1)), math.MaxFloat32}
	l := NewReLU("r")
	ctx := NewContext(nil, true)
	x := tensor.FromSlice(in, 1, len(in))
	y := l.Forward(ctx, NewValue(x))
	if i, ok := sameBits(y.Data.Data, wantY); !ok {
		t.Fatalf("relu(%v) = %v, want %v (+0)", in[i], y.Data.Data[i], wantY[i])
	}
	for pass, fill := range []float32{7, -3} {
		dy := tensor.New(1, len(in))
		dy.Fill(fill)
		dx := l.Backward(ctx, NewValue(dy))
		for i, v := range in {
			want := float32(0)
			if v > 0 {
				want = fill
			}
			if math.Float32bits(dx.Data.Data[i]) != math.Float32bits(want) {
				t.Fatalf("pass %d: relu backward at x=%v gives %v, want %v", pass, v, dx.Data.Data[i], want)
			}
		}
	}
}

func TestReLUGradient(t *testing.T) {
	x := tensor.New(2, 3, 4, 4)
	x.FillUniform(tensor.NewRNG(1), -1, 1)
	nudgeAwayFromZero(x, 0.05)
	gradCheckInput(t, NewReLU("r"), x, x.Shape(), 2e-2)
}

func TestMaxPoolForward(t *testing.T) {
	l := NewMaxPool("p", 2, 2, 0)
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 0,
	}, 1, 1, 4, 4)
	ctx := NewContext(nil, false)
	y := l.Forward(ctx, NewValue(x))
	want := []float32{4, 8, 9, 4}
	for i := range want {
		if y.Data.Data[i] != want[i] {
			t.Fatalf("maxpool = %v, want %v", y.Data.Data, want)
		}
	}
}

func TestPoolCeilMode(t *testing.T) {
	// 13 -> 6 with window 3 stride 2 (AlexNet pool5), 7x7 avg -> 1.
	l := NewMaxPool("p", 3, 2, 0)
	if got := l.OutShape(tensor.Shape{1, 1, 13, 13}); got[2] != 6 {
		t.Fatalf("pool(13,3,2) = %v, want 6", got)
	}
	if got := l.OutShape(tensor.Shape{1, 1, 55, 55}); got[2] != 27 {
		t.Fatalf("pool(55,3,2) = %v, want 27", got)
	}
	// Ceil mode: 28 with window 3 stride 2 -> 14 (Caffe's GoogLeNet).
	if got := l.OutShape(tensor.Shape{1, 1, 28, 28}); got[2] != 14 {
		t.Fatalf("pool(28,3,2) = %v, want 14", got)
	}
}

func TestMaxPoolGradient(t *testing.T) {
	l := NewMaxPool("p", 2, 2, 0)
	x := tensor.New(2, 2, 6, 6)
	x.FillUniform(tensor.NewRNG(2), -1, 1)
	gradCheckInput(t, l, x, l.OutShape(x.Shape()), 2e-2)
}

func TestAvgPoolGradient(t *testing.T) {
	l := NewAvgPool("p", 3, 2, 1)
	x := tensor.New(1, 2, 7, 7)
	x.FillUniform(tensor.NewRNG(3), -1, 1)
	gradCheckInput(t, l, x, l.OutShape(x.Shape()), 2e-2)
}

func TestFCForwardKnown(t *testing.T) {
	l := NewFC("fc", 2)
	x := tensor.FromSlice([]float32{1, 2, 3}, 1, 3)
	ctx := NewContext(nil, false)
	l.Forward(ctx, NewValue(x)) // initialise params
	// Overwrite with known weights.
	copy(l.weight.W.Data, []float32{1, 0, 0, 0, 1, 0})
	copy(l.bias.W.Data, []float32{10, 20})
	y := l.Forward(ctx, NewValue(x))
	if y.Data.Data[0] != 11 || y.Data.Data[1] != 22 {
		t.Fatalf("fc = %v, want [11 22]", y.Data.Data)
	}
}

func TestFCGradients(t *testing.T) {
	l := NewFC("fc", 5)
	x := tensor.New(3, 7)
	x.FillUniform(tensor.NewRNG(4), -1, 1)
	gradCheckInput(t, l, x, tensor.Shape{3, 5}, 2e-2)

	// Weight gradient check.
	proj := tensor.New(3, 5)
	proj.FillUniform(tensor.NewRNG(5), -1, 1)
	l.weight.Grad.Zero()
	l.bias.Grad.Zero()
	analyticGrads(l, x, proj)
	numW := numericalGrad(t, l, x, l.weight.W, proj, 1e-2)
	if !tensor.AllClose(l.weight.Grad, numW, 2e-2) {
		t.Fatalf("fc weight gradient mismatch: %g", tensor.RelDiff(l.weight.Grad, numW))
	}
	numB := numericalGrad(t, l, x, l.bias.W, proj, 1e-2)
	if !tensor.AllClose(l.bias.Grad, numB, 2e-2) {
		t.Fatalf("fc bias gradient mismatch: %g", tensor.RelDiff(l.bias.Grad, numB))
	}
}

func TestLRNIdentityAtZeroAlpha(t *testing.T) {
	l := NewLRN("n", 5, 1e-12, 0.75, 1)
	x := tensor.New(1, 8, 3, 3)
	x.FillUniform(tensor.NewRNG(6), -1, 1)
	ctx := NewContext(nil, false)
	y := l.Forward(ctx, NewValue(x))
	if !tensor.AllClose(x, y.Data, 1e-5) {
		t.Fatal("LRN with alpha~0, k=1 should be the identity")
	}
}

func TestLRNGradient(t *testing.T) {
	// Use a large alpha so the normalisation term actually matters.
	l := NewLRN("n", 3, 0.5, 0.75, 2)
	x := tensor.New(1, 6, 3, 3)
	x.FillUniform(tensor.NewRNG(7), -1, 1)
	gradCheckInput(t, l, x, x.Shape(), 3e-2)
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	l := NewDropout("d", 0.5)
	x := tensor.New(4, 10)
	x.FillUniform(tensor.NewRNG(8), -1, 1)
	ctx := NewContext(nil, false) // eval mode
	y := l.Forward(ctx, NewValue(x))
	if tensor.MaxAbsDiff(x, y.Data) != 0 {
		t.Fatal("eval-mode dropout must be the identity")
	}
}

func TestDropoutTrainMasksAndScales(t *testing.T) {
	l := NewDropout("d", 0.5)
	x := tensor.New(1, 10000)
	x.Fill(1)
	ctx := NewContext(nil, true)
	y := l.Forward(ctx, NewValue(x))
	zeros, twos := 0, 0
	for _, v := range y.Data.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("dropout output must be 0 or 1/(1-p)=2, got %v", v)
		}
	}
	if zeros < 4000 || zeros > 6000 {
		t.Fatalf("drop rate looks wrong: %d/10000 zeros", zeros)
	}
	if twos+zeros != 10000 {
		t.Fatal("mask accounting wrong")
	}
	// Backward applies the same mask.
	dy := tensor.New(1, 10000)
	dy.Fill(1)
	dx := l.Backward(ctx, NewValue(dy))
	for i, v := range dx.Data.Data {
		if (y.Data.Data[i] == 0) != (v == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestSoftmaxProbabilities(t *testing.T) {
	l := NewSoftmaxLoss("s")
	x := tensor.FromSlice([]float32{1, 2, 3, 1, 1, 1}, 2, 3)
	ctx := NewContext(nil, true)
	y := l.Forward(ctx, NewValue(x))
	for bi := 0; bi < 2; bi++ {
		var sum float64
		for j := 0; j < 3; j++ {
			sum += float64(y.Data.At(bi, j))
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d probabilities sum to %v", bi, sum)
		}
	}
	// Uniform logits -> loss = ln(3).
	loss, acc := l.Loss([]int{2, 0})
	_ = acc
	want := (-math.Log(float64(y.Data.At(0, 2))) - math.Log(1.0/3)) / 2
	if math.Abs(loss-want) > 1e-5 {
		t.Fatalf("loss = %v, want %v", loss, want)
	}
}

func TestSoftmaxGradientSumsToZero(t *testing.T) {
	l := NewSoftmaxLoss("s")
	x := tensor.New(4, 6)
	x.FillUniform(tensor.NewRNG(9), -1, 1)
	ctx := NewContext(nil, true)
	out := l.Forward(ctx, NewValue(x))
	l.Loss([]int{0, 1, 2, 3})
	g := l.Backward(ctx, &Value{Shape: out.Shape})
	var sum float64
	for _, v := range g.Data.Data {
		sum += float64(v)
	}
	if math.Abs(sum) > 1e-5 {
		t.Fatalf("softmax-loss gradient rows must sum to zero, got %v", sum)
	}
}

func TestConvLayerGradient(t *testing.T) {
	l := NewConv("c", nil, 4, 3, 1, 1)
	x := tensor.New(2, 3, 6, 6)
	x.FillUniform(tensor.NewRNG(10), -1, 1)
	gradCheckInput(t, l, x, l.OutShape(x.Shape()), 2e-2)

	proj := tensor.New(l.OutShape(x.Shape())...)
	proj.FillUniform(tensor.NewRNG(11), -1, 1)
	l.weight.Grad.Zero()
	l.bias.Grad.Zero()
	analyticGrads(l, x, proj)
	numW := numericalGrad(t, l, x, l.weight.W, proj, 1e-2)
	if !tensor.AllClose(l.weight.Grad, numW, 3e-2) {
		t.Fatalf("conv weight gradient mismatch: %g", tensor.RelDiff(l.weight.Grad, numW))
	}
	numB := numericalGrad(t, l, x, l.bias.W, proj, 1e-2)
	if !tensor.AllClose(l.bias.Grad, numB, 3e-2) {
		t.Fatalf("conv bias gradient mismatch: %g", tensor.RelDiff(l.bias.Grad, numB))
	}
}

func TestBranchConcatShapes(t *testing.T) {
	b := NewBranch("inc",
		[]Layer{NewConv("a", nil, 4, 1, 1, 0)},
		[]Layer{NewConv("b", nil, 6, 3, 1, 1)},
		[]Layer{NewMaxPool("p", 3, 1, 1)},
	)
	in := tensor.Shape{2, 3, 8, 8}
	out := b.OutShape(in)
	if !out.Equal(tensor.Shape{2, 4 + 6 + 3, 8, 8}) {
		t.Fatalf("branch OutShape = %v", out)
	}
}

func TestBranchForwardConcatenates(t *testing.T) {
	b := NewBranch("inc",
		[]Layer{NewReLU("r1")},
		[]Layer{NewReLU("r2")},
	)
	x := tensor.New(2, 3, 4, 4)
	x.FillUniform(tensor.NewRNG(12), -1, 1)
	ctx := NewContext(nil, false)
	y := b.Forward(ctx, NewValue(x))
	if !y.Shape.Equal(tensor.Shape{2, 6, 4, 4}) {
		t.Fatalf("branch output shape %v", y.Shape)
	}
	// Both halves must equal relu(x).
	for n := 0; n < 2; n++ {
		for c := 0; c < 3; c++ {
			for h := 0; h < 4; h++ {
				for w := 0; w < 4; w++ {
					v := x.At(n, c, h, w)
					if v < 0 {
						v = 0
					}
					if y.Data.At(n, c, h, w) != v || y.Data.At(n, c+3, h, w) != v {
						t.Fatal("concat halves wrong")
					}
				}
			}
		}
	}
}

func TestBranchGradient(t *testing.T) {
	b := NewBranch("inc",
		[]Layer{NewConv("a", nil, 2, 1, 1, 0)},
		[]Layer{NewMaxPool("p", 3, 1, 1)},
	)
	x := tensor.New(1, 3, 5, 5)
	x.FillUniform(tensor.NewRNG(13), -1, 1)
	gradCheckInput(t, b, x, b.OutShape(x.Shape()), 3e-2)
}

func TestSGDStep(t *testing.T) {
	p := NewParam("w", nil, 3).Materialise()
	p.W.Fill(1)
	p.grad().Fill(2)
	opt := NewSGD(0.1, 0, 0)
	opt.Step([]*Param{p})
	for _, v := range p.W.Data {
		if math.Abs(float64(v)-0.8) > 1e-6 {
			t.Fatalf("w = %v, want 0.8", v)
		}
	}
	if p.Grad.Sum() != 0 {
		t.Fatal("Step must zero gradients")
	}
	// Momentum accumulates across steps.
	p.Grad.Fill(2)
	optM := NewSGD(0.1, 0.9, 0)
	optM.Step([]*Param{p})
	first := p.W.Data[0]
	p.Grad.Fill(2)
	optM.Step([]*Param{p})
	if step2 := first - p.W.Data[0]; step2 <= 0.2 {
		t.Fatalf("momentum step %v should exceed the plain step 0.2", step2)
	}
}

// TestSGDStepNilGradIsZero checks that a parameter no Backward has
// reached (nil Grad) gets the update a zero gradient gives, bit for
// bit: weight decay and momentum still apply, over two steps.
func TestSGDStepNilGradIsZero(t *testing.T) {
	nilGrad := NewParam("w", heNormal(3, 4), 5).Materialise()
	zeroGrad := NewParam("w", heNormal(3, 4), 5).Materialise()
	zeroGrad.grad()
	nilGrad.W.Data[0] = float32(math.Copysign(0, -1))
	zeroGrad.W.Data[0] = nilGrad.W.Data[0]
	before := nilGrad.W.Data[1]
	opt := NewSGD(0.1, 0.9, 5e-4)
	for step := 0; step < 2; step++ {
		opt.Step([]*Param{nilGrad, zeroGrad})
	}
	if nilGrad.Grad != nil {
		t.Fatal("Step allocated a gradient")
	}
	for i, w := range nilGrad.W.Data {
		if math.Float32bits(w) != math.Float32bits(zeroGrad.W.Data[i]) {
			t.Fatalf("w[%d] = %v with a nil gradient, %v with a zero one", i, w, zeroGrad.W.Data[i])
		}
	}
	if nilGrad.W.Data[1] == before {
		t.Fatal("decay did not move the weights")
	}
}

func TestNetShapePropagation(t *testing.T) {
	net := NewNet("tiny",
		NewConv("c1", nil, 4, 3, 1, 1),
		NewReLU("r1"),
		NewMaxPool("p1", 2, 2, 0),
		NewFC("fc", 10),
		NewSoftmaxLoss("loss"),
	)
	out := net.OutShape(tensor.Shape{8, 3, 8, 8})
	if !out.Equal(tensor.Shape{8, 10}) {
		t.Fatalf("net OutShape = %v", out)
	}
}

// TestTrainingReducesLoss trains a tiny net on linearly separable
// synthetic data and checks convergence.
func TestTrainingReducesLoss(t *testing.T) {
	net := NewNet("tiny",
		NewConv("c1", nil, 4, 3, 1, 0),
		NewReLU("r1"),
		NewFC("fc", 2),
		NewSoftmaxLoss("loss"),
	)
	r := tensor.NewRNG(17)
	batch := 16
	makeBatch := func() (*tensor.Tensor, []int) {
		x := tensor.New(batch, 1, 6, 6)
		labels := make([]int, batch)
		for bi := 0; bi < batch; bi++ {
			label := r.Intn(2)
			labels[bi] = label
			base := float32(label)*2 - 1 // class 0 -> -1, class 1 -> +1
			for i := 0; i < 36; i++ {
				x.Data[bi*36+i] = base + 0.3*(2*r.Float32()-1)
			}
		}
		return x, labels
	}
	ctx := NewContext(nil, true)
	opt := NewSGD(0.05, 0.9, 0)
	var first, last float64
	for step := 0; step < 30; step++ {
		x, labels := makeBatch()
		loss, _ := net.TrainStep(ctx, x, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		opt.Step(net.Params())
	}
	if last >= first/2 {
		t.Fatalf("training did not converge: first %.4f last %.4f", first, last)
	}
	x, labels := makeBatch()
	net.Forward(ctx, NewValue(x))
	_, acc := net.Loss().Loss(labels)
	if acc < 0.9 {
		t.Fatalf("accuracy after training = %v, want >= 0.9", acc)
	}
}

// TestSimulateIterationAdvancesClock: shape-only runs must produce a
// per-kind ledger without touching data.
func TestSimulateIterationAdvancesClock(t *testing.T) {
	net := NewNet("tiny",
		NewConv("c1", nil, 16, 3, 1, 1),
		NewReLU("r1"),
		NewMaxPool("p1", 2, 2, 0),
		NewFC("fc", 10),
		NewSoftmaxLoss("loss"),
	)
	dev := gpusim.New(gpusim.TeslaK40c())
	ctx := NewContext(dev, true)
	net.SimulateIteration(ctx, tensor.Shape{32, 3, 32, 32})
	if dev.Elapsed() <= 0 {
		t.Fatal("simulated clock did not advance")
	}
	if ctx.TimeByKind[KindConv] <= 0 || ctx.TimeByKind[KindFC] <= 0 {
		t.Fatalf("missing ledger entries: %v", ctx.TimeByKind)
	}
	if ctx.TotalTime() > dev.Elapsed() {
		t.Fatal("ledger exceeds device clock")
	}
	net.Release()
	if dev.Mem.Used() != 0 {
		t.Fatalf("Release leaked %d device bytes", dev.Mem.Used())
	}
}

func TestConvShareAndReport(t *testing.T) {
	times := map[Kind]time.Duration{
		KindConv: 90 * time.Millisecond,
		KindFC:   10 * time.Millisecond,
	}
	if s := ConvShare(times); math.Abs(s-0.9) > 1e-9 {
		t.Fatalf("ConvShare = %v, want 0.9", s)
	}
	rep := BreakdownReport(times)
	if !strings.Contains(rep, "Conv") || !strings.Contains(rep, "90.0%") {
		t.Fatalf("report missing content:\n%s", rep)
	}
	if ConvShare(nil) != 0 {
		t.Fatal("empty ledger should have zero share")
	}
}

func TestNestedBranchGradient(t *testing.T) {
	inner := NewBranch("inner",
		[]Layer{NewConv("ia", nil, 2, 1, 1, 0)},
		[]Layer{NewReLU("ib")},
	)
	outer := NewBranch("outer",
		[]Layer{inner},
		[]Layer{NewAvgPool("op", 3, 1, 1)}, // avg: smooth, so finite differences are exact
	)
	x := tensor.New(1, 2, 5, 5)
	x.FillUniform(tensor.NewRNG(31), -1, 1)
	nudgeAwayFromZero(x, 0.05)
	out := outer.OutShape(x.Shape())
	// inner: 2 conv + 2 relu channels = 4; outer: 4 + 2 pool = 6.
	if !out.Equal(tensor.Shape{1, 6, 5, 5}) {
		t.Fatalf("nested branch OutShape = %v", out)
	}
	gradCheckInput(t, outer, x, out, 3e-2)
}

func TestFCFlattensRank4(t *testing.T) {
	l := NewFC("fc", 5)
	x := tensor.New(3, 2, 4, 4) // flattens to (3, 32)
	x.FillUniform(tensor.NewRNG(32), -1, 1)
	ctx := NewContext(nil, false)
	y := l.Forward(ctx, NewValue(x))
	if !y.Shape.Equal(tensor.Shape{3, 5}) {
		t.Fatalf("FC on rank-4 input -> %v", y.Shape)
	}
	// Changing the input width afterwards must be rejected.
	defer func() {
		if recover() == nil {
			t.Fatal("FC must reject a changed input width")
		}
	}()
	l.Forward(ctx, NewValue(tensor.New(3, 2, 5, 5)))
}

func TestNetWithEveryLayerTypeTrains(t *testing.T) {
	net := NewNet("kitchen-sink",
		NewConv("c1", nil, 6, 3, 1, 1),
		NewReLU("r1"),
		NewLRN("n1", 3, 0, 0, 0),
		NewBranch("b1",
			[]Layer{NewConv("b1a", nil, 4, 1, 1, 0)},
			[]Layer{NewMaxPool("b1p", 3, 1, 1)},
		),
		NewMaxPool("p1", 2, 2, 0),
		NewDropout("d1", 0.2),
		NewFC("fc", 2),
		NewSoftmaxLoss("loss"),
	)
	r := tensor.NewRNG(33)
	ctx := NewContext(nil, true)
	opt := NewSGD(0.03, 0.9, 0)
	var first, last float64
	for step := 0; step < 40; step++ {
		x := tensor.New(8, 1, 8, 8)
		labels := make([]int, 8)
		for bi := 0; bi < 8; bi++ {
			labels[bi] = r.Intn(2)
			base := float32(labels[bi])*2 - 1
			for j := 0; j < 64; j++ {
				x.Data[bi*64+j] = base + 0.4*(2*r.Float32()-1)
			}
		}
		loss, _ := net.TrainStep(ctx, x, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		opt.Step(net.Params())
	}
	if last >= first*0.6 {
		t.Fatalf("kitchen-sink net did not learn: %v -> %v", first, last)
	}
}

func TestActivationAccounting(t *testing.T) {
	net := NewNet("tiny",
		NewConv("c1", nil, 4, 3, 1, 1), // out 8x8x4 = 256 elems/img
		NewMaxPool("p1", 2, 2, 0),      // out 4x4x4 = 64
		NewFC("fc", 10),                // out 10
		NewSoftmaxLoss("loss"),         // out 10
	)
	ctx := NewContext(nil, true)
	net.Forward(ctx, ShapeOnly(2, 3, 8, 8))
	// (512 + 128 + 20 + 20) elems × 4 B × 2 (grads) = 5440.
	want := int64(512+128+20+20) * 4 * 2
	if ctx.ActivationBytes != want {
		t.Fatalf("ActivationBytes = %d, want %d", ctx.ActivationBytes, want)
	}
	// Evaluation mode counts no gradient twin.
	eval := NewContext(nil, false)
	net.Forward(eval, ShapeOnly(2, 3, 8, 8))
	if eval.ActivationBytes != want/2 {
		t.Fatalf("eval ActivationBytes = %d, want %d", eval.ActivationBytes, want/2)
	}
}
