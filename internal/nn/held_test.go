package nn_test

import (
	"math"
	"runtime"
	"testing"

	"gpucnn/internal/alloctest"
	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/models"
	"gpucnn/internal/nn"
	"gpucnn/internal/planner"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workload"
)

// heldNet is a small network with every layer kind, on engine eng
// (nil: the default, run plan-less without a device).
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

// TestHeldActivationsMatchFreshNet runs one network on an input A,
// then on B = −A, then on a batch of another size, and checks each
// pass's output against a fresh network's on the same input, bit for
// bit. Negating A flips the sign of every first-layer output (biases
// start at zero), so a held ReLU output that kept the last pass's
// positives, or any layer that left part of its held output unwritten,
// shows as a difference. In training mode each step also runs Backward
// from the loss, and the input gradient and every parameter gradient
// must match too, so a held gradient that a layer accumulates into
// without clearing it first shows as well. Every engine runs it with a
// device attached, and the plan-less default without one, in inference
// and training mode.
func TestHeldActivationsMatchFreshNet(t *testing.T) {
	engines := append([]impls.Engine{nil}, impls.All()...)
	engines = append(engines, impls.Extensions()...)
	a := tensor.New(2, 3, 8, 8)
	a.FillUniform(tensor.NewRNG(21), -1, 1)
	b := a.Clone()
	b.Scale(-1)
	c := tensor.New(3, 3, 8, 8)
	c.FillUniform(tensor.NewRNG(22), -1, 1)
	labels := []int{0, 3, 1}
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
			// step runs net on x and returns copies of what it produced:
			// the output, then in training mode the input gradient and
			// each parameter gradient, named alike.
			step := func(net *nn.Net, x *tensor.Tensor) (names []string, got []*tensor.Tensor) {
				var dev *gpusim.Device
				if eng != nil {
					dev = gpusim.New(gpusim.TeslaK40c())
				}
				ctx := nn.NewContext(dev, train)
				ctx.RNG = tensor.NewRNG(5) // the same dropout mask for both nets
				net.ZeroGrads()
				out := net.Forward(ctx, nn.NewValue(x))
				names, got = []string{"output"}, []*tensor.Tensor{out.Data.Clone()}
				if !train {
					return names, got
				}
				net.Loss().Loss(labels[:x.Dim(0)])
				dx := net.Backward(ctx, &nn.Value{Shape: out.Shape})
				names, got = append(names, "input gradient"), append(got, dx.Data.Clone())
				for _, p := range net.Params() {
					names, got = append(names, p.Name+" gradient"), append(got, p.Grad.Clone())
				}
				return names, got
			}
			held := heldNet(eng)
			step(held, a)
			for _, x := range []*tensor.Tensor{b, c} {
				names, got := step(held, x)
				_, want := step(heldNet(eng), x)
				for i, w := range want {
					if !sameBits(got[i], w) {
						t.Errorf("%s train=%v input %v: the held net's %s differs from a fresh one's by %g",
							name, train, x.Shape(), names[i], tensor.RelDiff(w, got[i]))
					}
				}
			}
			held.Release()
		}
	}
}

// sameBits reports whether a and b have one shape and the same bits.
func sameBits(a, b *tensor.Tensor) bool {
	if !a.Shape().Equal(b.Shape()) {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// confOf is the convolution config conv l runs on input shape in.
func confOf(l *nn.Conv, in tensor.Shape) conv.Config {
	return conv.Config{
		Batch: in[0], Channels: in[1], Input: in[2],
		Filters: l.Filters, Kernel: l.Kernel, Stride: l.Stride, Pad: l.Pad,
	}
}

// TestTrainingStepAllocatesNothing holds a whole CIFARNet training
// step at batch 32, TrainStep plus SGD.Step over Net.Params() called
// inside the step, as a training loop does, to zero steady-state
// allocations on cuDNN and on fbfft with a K40c attached, and a
// batch-16 inference forward on the Autotuned engine likewise: every layer writes both passes into buffers it
// holds. The count is read at the host's GOMAXPROCS (alloctest), so on
// more than one proc it covers the fanned-out kernels, pooling's and
// ReLU's both passes among them; testing.AllocsPerRun would set
// GOMAXPROCS to 1 and measure only the serial branches. A step waits
// on dozens of dispatches, and with more procs than cores the runtime
// now and then allocates a waiter (a sudog) for one of those waits, so
// the gate takes the least of stepTries readings: an allocation of the
// step itself lands in every one.
func TestTrainingStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations")
	}
	for _, eng := range []impls.Engine{impls.NewCuDNN(), impls.NewFbfft()} {
		m := models.CIFARNet(eng)
		ctx := nn.NewContext(gpusim.New(gpusim.TeslaK40c()), true)
		x, labels := workload.SyntheticBatch(32, m.InputChans, m.InputSize, m.Classes, 3)
		opt := nn.NewSGD(0.01, 0.9, 5e-4)
		m.Net.TrainStep(ctx, x, labels)
		step := func() {
			m.Net.TrainStep(ctx, x, labels)
			opt.Step(m.Net.Params())
		}
		if got := alloctest.Mallocs(stepTries, step); got != 0 {
			t.Errorf("%s: %d mallocs per steady-state training step at GOMAXPROCS %d, want 0",
				eng.Name(), got, runtime.GOMAXPROCS(0))
		}
		m.Net.Release()
	}
	m := models.CIFARNet(planner.NewAutotuned(planner.Options{}))
	defer m.Net.Release()
	x, _ := workload.SyntheticBatch(16, m.InputChans, m.InputSize, m.Classes, 3)
	ctx := nn.NewContext(gpusim.New(gpusim.TeslaK40c()), false)
	xv := nn.NewValue(x)
	if got := alloctest.Mallocs(stepTries, func() { m.Net.Forward(ctx, xv) }); got != 0 {
		t.Errorf("Autotuned: %d mallocs per steady-state inference forward at GOMAXPROCS %d, want 0",
			got, runtime.GOMAXPROCS(0))
	}
}

// stepTries is how many readings TestTrainingStepAllocatesNothing
// takes the least of.
const stepTries = 10

// TestGradientsExistOnlyAfterBackward checks that parameter gradients
// get storage on the first Backward that accumulates into them: a real
// inference forward of CIFARNet leaves every Grad nil, and one
// TrainStep gives every parameter one.
func TestGradientsExistOnlyAfterBackward(t *testing.T) {
	m := models.CIFARNet(nil)
	x, labels := workload.SyntheticBatch(2, m.InputChans, m.InputSize, m.Classes, 3)
	m.Net.Forward(nn.NewContext(nil, false), nn.NewValue(x))
	for _, p := range m.Net.Params() {
		if p.W == nil || p.Grad != nil {
			t.Fatalf("after an inference forward %s has W %v and Grad %v, want only W", p.Name, p.W != nil, p.Grad != nil)
		}
	}
	m.Net.TrainStep(nn.NewContext(nil, true), x, labels)
	for _, p := range m.Net.Params() {
		if p.Grad == nil {
			t.Fatalf("after a training step %s has no gradient", p.Name)
		}
	}
}

// TestParamsAppendCopies checks that Net.Params and Branch.Params hand
// out no spare capacity of the slice they hold, so a caller's append
// copies instead of writing into what the next call returns.
func TestParamsAppendCopies(t *testing.T) {
	net := heldNet(nil)
	x := tensor.New(2, 3, 8, 8)
	x.FillUniform(tensor.NewRNG(1), -1, 1)
	net.Forward(nn.NewContext(nil, false), nn.NewValue(x))
	br := net.Layers[3].(*nn.Branch)
	for name, params := range map[string]func() []*nn.Param{"Net": net.Params, "Branch": br.Params} {
		ps := params()
		if len(ps) == 0 || cap(ps) != len(ps) {
			t.Errorf("%s.Params: len %d cap %d, want a non-empty slice with no spare capacity", name, len(ps), cap(ps))
		}
	}
}

// TestBatchOneFCAndLRNAllocateNothing holds FC forward and LRN forward
// and backward at batch 1 to zero steady-state allocations, the cases
// a CIFARNet step does not reach: it has no LRN and runs FC at batch
// 32. Counted at the host's GOMAXPROCS like the training step, this
// covers ParallelNT's skinny path, which claims the FC weight rows over
// the pool, and LRN's split of each image's spatial range over it.
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
		if got := alloctest.Mallocs(3, tc.run); got != 0 {
			t.Errorf("%s: %d mallocs per steady-state run at GOMAXPROCS %d, want 0",
				tc.name, got, runtime.GOMAXPROCS(0))
		}
	}
}
