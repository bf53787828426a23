package nn_test

import (
	"runtime"
	"testing"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/models"
	"gpucnn/internal/nn"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workload"
)

// heldNet is a small network with every layer kind that holds its
// forward output, on engine eng (nil: the default, run plan-less
// without a device).
func heldNet(eng impls.Engine) *nn.Net {
	return nn.NewNet("held",
		nn.NewConv("c1", eng, 6, 3, 1, 1),
		nn.NewReLU("r1"),
		nn.NewLRN("n1", 3, 0, 0, 0),
		nn.NewBranch("b1",
			[]nn.Layer{nn.NewConv("b1a", eng, 4, 3, 1, 1), nn.NewReLU("b1r")},
			[]nn.Layer{nn.NewMaxPool("b1p", 3, 1, 1)}),
		nn.NewAvgPool("p1", 2, 2, 0),
		nn.NewDropout("d1", 0.3),
		nn.NewFC("fc", 5),
		nn.NewSoftmaxLoss("loss"),
	)
}

// TestHeldActivationsMatchFreshNet runs one network forward on an
// input A, then on B = −A, then on a batch of another size, and checks
// each output against a fresh network's forward on the same input.
// Negating A flips the sign of every first-layer output (biases start
// at zero), so a held ReLU output that kept the last pass's positives,
// or any layer that left part of its held output unwritten, shows as a
// difference. Every engine runs it with a device attached, and the
// plan-less default without one, in inference and training mode.
func TestHeldActivationsMatchFreshNet(t *testing.T) {
	engines := append([]impls.Engine{nil}, impls.All()...)
	engines = append(engines, impls.Extensions()...)
	a := tensor.New(2, 3, 8, 8)
	a.FillUniform(tensor.NewRNG(21), -1, 1)
	b := a.Clone()
	b.Scale(-1)
	c := tensor.New(3, 3, 8, 8)
	c.FillUniform(tensor.NewRNG(22), -1, 1)
	for _, eng := range engines {
		name := "default"
		if eng != nil {
			name = eng.Name()
			conv1 := heldNet(eng).Layers[0].(*nn.Conv)
			if err := eng.Supports(confOf(conv1, a.Shape())); err != nil {
				continue
			}
		}
		for _, train := range []bool{false, true} {
			forward := func(net *nn.Net, x *tensor.Tensor) *tensor.Tensor {
				var dev *gpusim.Device
				if eng != nil {
					dev = gpusim.New(gpusim.TeslaK40c())
				}
				ctx := nn.NewContext(dev, train)
				ctx.RNG = tensor.NewRNG(5) // the same dropout mask for both nets
				return net.Forward(ctx, nn.NewValue(x)).Data.Clone()
			}
			held := heldNet(eng)
			forward(held, a)
			for _, x := range []*tensor.Tensor{b, c} {
				got, want := forward(held, x), forward(heldNet(eng), x)
				if d := tensor.RelDiff(want, got); !(d <= 1e-6) {
					t.Errorf("%s train=%v input %v: held net differs from a fresh one by %g",
						name, train, x.Shape(), d)
				}
			}
			held.Release()
		}
	}
}

// confOf is the convolution config conv l runs on input shape in.
func confOf(l *nn.Conv, in tensor.Shape) conv.Config {
	return conv.Config{
		Batch: in[0], Channels: in[1], Input: in[2],
		Filters: l.Filters, Kernel: l.Kernel, Stride: l.Stride, Pad: l.Pad,
	}
}

// TestInferenceForwardAllocatesNoActivations holds the steady state of
// a CIFARNet inference forward at batch 16 on cuDNN with a device
// attached: once every layer holds its output, a pass allocates less
// than 5% of the activation bytes it produces. The least of three
// passes is taken, so an unrelated allocation elsewhere in the process
// does not count against it.
func TestInferenceForwardAllocatesNoActivations(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations")
	}
	m := models.CIFARNet(impls.NewCuDNN())
	defer m.Net.Release()
	x, _ := workload.SyntheticBatch(16, m.InputChans, m.InputSize, m.Classes, 3)
	ctx := nn.NewContext(gpusim.New(gpusim.TeslaK40c()), false)
	for i := 0; i < 2; i++ {
		m.Net.Forward(ctx, nn.NewValue(x))
	}
	var least, acts uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		act0 := ctx.ActivationBytes
		runtime.ReadMemStats(&before)
		m.Net.Forward(ctx, nn.NewValue(x))
		runtime.ReadMemStats(&after)
		acts = uint64(ctx.ActivationBytes - act0)
		if got := after.TotalAlloc - before.TotalAlloc; i == 0 || got < least {
			least = got
		}
	}
	if least*20 >= acts {
		t.Fatalf("steady-state forward allocates %d bytes, not under 5%% of its %d activation bytes", least, acts)
	}
	t.Logf("steady-state forward allocates %d bytes against %d activation bytes", least, acts)
}

// TestBatchOneFCAndLRNAllocateNothing holds FC forward and LRN forward
// and backward at batch 1 to zero steady-state allocations: the layers
// return held Values over held data, and their kernels dispatch pooled
// Runners. The FC shape is large enough for ParallelNT's skinny path
// to fan out over the pool. The least of three readings is taken, as a
// reading counts every malloc in the process.
func TestBatchOneFCAndLRNAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations")
	}
	ctx := nn.NewContext(nil, true)
	fc := nn.NewFC("fc", 1024)
	fx := tensor.New(1, 2048)
	fx.FillUniform(tensor.NewRNG(3), -1, 1)
	lrn := nn.NewLRN("norm", 5, 0, 0, 0)
	lx, ldy := tensor.New(1, 16, 13, 13), tensor.New(1, 16, 13, 13)
	lx.FillUniform(tensor.NewRNG(4), -1, 1)
	ldy.FillUniform(tensor.NewRNG(5), -1, 1)
	fxv, lxv, ldyv := nn.NewValue(fx), nn.NewValue(lx), nn.NewValue(ldy)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"FC forward", func() { fc.Forward(ctx, fxv) }},
		{"LRN forward", func() { lrn.Forward(ctx, lxv) }},
		{"LRN backward", func() { lrn.Backward(ctx, ldyv) }},
	} {
		tc.run()
		tc.run()
		least := testing.AllocsPerRun(5, tc.run)
		for i := 1; i < 3; i++ {
			least = min(least, testing.AllocsPerRun(5, tc.run))
		}
		if least != 0 {
			t.Errorf("%s: %v allocs per steady-state run, want 0", tc.name, least)
		}
	}
}
