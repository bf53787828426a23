package main

import (
	"fmt"
	"math"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gemm"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/models"
	"gpucnn/internal/nn"
	"gpucnn/internal/planner"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workload"
)

// modelSpec is one model workload: a network on one engine, trained or
// run forward only, at one batch size.
type modelSpec struct {
	engine string // impls.ByName
	build  func(impls.Engine) *models.Model
	batch  int
	train  bool
}

// inputBatches is how many distinct input batches a model workload
// cycles through.
const inputBatches = 4

// warmupOps is how many ops set-up runs before the window: the first
// pays for lazy weight init, plans and planner decisions, the second
// shows the steady state is reached.
const warmupOps = 2

type batch struct {
	x      *tensor.Tensor
	labels []int
}

// convLayer is one convolution of the model at the workload's shapes.
type convLayer struct {
	name string
	cfg  conv.Config
}

type modelSession struct {
	spec   modelSpec
	seed   int64
	eng    impls.Engine
	m      *models.Model
	dev    *gpusim.Device
	ctx    *nn.Context
	sgd    *nn.SGD // nil for inference
	convs  []convLayer
	inputs []batch
	next   int
	losses []float64
}

func newModelSession(spec modelSpec, seed int64) (session, error) {
	eng, err := impls.ByName(spec.engine)
	if err != nil {
		return nil, err
	}
	m := spec.build(eng)
	dev := gpusim.New(gpusim.TeslaK40c())
	ctx := nn.NewContext(dev, spec.train)
	ctx.RNG = tensor.NewRNG(uint64(seed))
	s := &modelSession{spec: spec, seed: seed, eng: eng, m: m, dev: dev, ctx: ctx}
	if spec.train {
		s.sgd = nn.NewSGD(0.01, 0.9, 5e-4)
	}
	for i := 0; i < inputBatches; i++ {
		x, labels := workload.SyntheticBatch(spec.batch, m.InputChans, m.InputSize, m.Classes, uint64(seed)*inputBatches+uint64(i))
		s.inputs = append(s.inputs, batch{x, labels})
	}
	shape := tensor.Shape(m.InputShape(spec.batch))
	for _, l := range m.Net.Layers {
		if c, ok := l.(*nn.Conv); ok {
			s.convs = append(s.convs, convLayer{c.Name(), conv.Config{
				Batch: shape[0], Channels: shape[1], Input: shape[2],
				Filters: c.Filters, Kernel: c.Kernel, Stride: c.Stride, Pad: c.Pad,
			}})
		}
		shape = l.OutShape(shape)
	}
	for i := 0; i < warmupOps; i++ {
		if _, err := s.step(nil, -1); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return s, nil
}

func (s *modelSession) close() { s.m.Net.Release() }

// engineFor names the engine that runs cfg: the planner's pick for the
// Autotuned engine, the engine itself otherwise.
func (s *modelSession) engineFor(cfg conv.Config) (string, error) {
	p, ok := planner.PlannerOf(s.eng)
	if !ok {
		return s.eng.Name(), nil
	}
	d, err := p.Decide(s.dev.Spec, cfg)
	return d.Engine, err
}

// check runs each conv layer's engine plan at the workload's shapes and
// compares its forward output with the direct reference convolution.
func (s *modelSession) check(r *report) {
	for _, cl := range s.convs {
		name, err := s.engineFor(cl.cfg)
		if err != nil {
			r.fail("gate %s: %v", cl.name, err)
			continue
		}
		// Winograd's transforms round differently from a direct sum.
		tol := 1e-3
		if name == impls.NewWinograd().Name() {
			tol = 5e-3
		}
		x, w := workload.SyntheticTensors(cl.cfg, uint64(s.seed))
		want := tensor.New(cl.cfg.OutputShape()...)
		conv.DirectForward(cl.cfg, x, w, want)
		got := tensor.New(cl.cfg.OutputShape()...)
		err = guard(func() error {
			plan, err := s.eng.Plan(gpusim.New(gpusim.TeslaK40c()), cl.cfg)
			if err != nil {
				return err
			}
			defer plan.Release()
			return plan.Forward(x, w, got)
		})
		if err != nil {
			r.fail("gate %s %v on %s: %v", cl.name, cl.cfg, name, err)
			continue
		}
		rel := tensor.RelDiff(want, got)
		if !(rel <= tol) {
			r.fail("gate %s %v on %s: differs from direct convolution by %.2g (limit %g)", cl.name, cl.cfg, name, rel, tol)
			continue
		}
		r.note("gate %s %v on %s: matches direct convolution (rel %.1e)", cl.name, cl.cfg, name, rel)
	}
}

func (s *modelSession) step(tr *tracer, root int) (int, error) {
	b := s.inputs[s.next%len(s.inputs)]
	s.next++
	err := guard(func() error {
		if s.spec.train {
			return s.trainStep(tr, root, b)
		}
		return s.infer(tr, root, b)
	})
	return s.spec.batch, err
}

func (s *modelSession) trainStep(tr *tracer, root int, b batch) error {
	var loss float64
	if tr == nil {
		loss, _ = s.m.Net.TrainStep(s.ctx, b.x, b.labels)
	} else {
		out := s.forward(tr, root, b.x)
		loss, _ = s.m.Net.Loss().Loss(b.labels)
		s.backward(tr, root, out)
	}
	sp := tr.begin("sgd", "nn.sgd", 0, root)
	s.sgd.Step(s.m.Net.Params())
	tr.end(sp)
	s.losses = append(s.losses, loss)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("training loss is %v", loss)
	}
	return nil
}

func (s *modelSession) infer(tr *tracer, root int, b batch) error {
	var out *nn.Value
	if tr == nil {
		out = s.m.Net.Forward(s.ctx, nn.NewValue(b.x))
	} else {
		out = s.forward(tr, root, b.x)
	}
	// Each row of the output is a softmax distribution over the classes.
	classes := out.Shape[1]
	for i := 0; i < out.Shape[0]; i++ {
		var sum float64
		for _, p := range out.Data.Data[i*classes : (i+1)*classes] {
			sum += float64(p)
		}
		if !(math.Abs(sum-1) < 1e-3) {
			return fmt.Errorf("image %d: class probabilities sum to %v", i, sum)
		}
	}
	return nil
}

// forward and backward are Net.Forward and Net.Backward driven layer by
// layer, so each layer call gets its own span.
func (s *modelSession) forward(tr *tracer, root int, x *tensor.Tensor) *nn.Value {
	pass := tr.begin("forward", "", 0, root)
	defer tr.end(pass)
	v := nn.NewValue(x)
	for _, l := range s.m.Net.Layers {
		sp := tr.begin(l.Name(), "nn."+string(l.Kind())+".fwd", 0, pass)
		v = l.Forward(s.ctx, v)
		tr.end(sp)
	}
	return v
}

func (s *modelSession) backward(tr *tracer, root int, out *nn.Value) {
	pass := tr.begin("backward", "", 0, root)
	defer tr.end(pass)
	g := &nn.Value{Shape: out.Shape.Clone()}
	layers := s.m.Net.Layers
	for i := len(layers) - 1; i >= 0; i-- {
		l := layers[i]
		sp := tr.begin(l.Name(), "nn."+string(l.Kind())+".bwd", 0, pass)
		g = l.Backward(s.ctx, g)
		tr.end(sp)
	}
}

func (s *modelSession) measure(window time.Duration, tr *tracer, r *report) {
	sim0, launches0 := s.dev.Elapsed(), s.dev.Launches()
	if p, ok := planner.PlannerOf(s.eng); ok && tr != nil {
		// Set-up planned every layer; the gate's plans hit the cache.
		r.set("planner.setup_scorings", float64(p.Scored()))
		s.probePlanner(r)
	}
	run := runSteps(s, window, tr, r)
	run.record(r, tr, "images")
	if s.spec.train {
		if n := 20; len(s.losses) >= n {
			r.note("train.loss_step20 %.4f (counting the warm-up ops)", s.losses[n-1])
		} else if len(s.losses) > 0 {
			r.note("train.loss_step%d %.4f (fewer than 20 steps ran)", len(s.losses), s.losses[len(s.losses)-1])
		}
	}
	if tr == nil {
		return
	}
	ops := float64(len(run.plain) + len(run.traced))
	r.set("gpusim.sim_ms_per_op", ms(s.dev.Elapsed()-sim0)/ops)
	r.set("gpusim.launches_per_op", float64(s.dev.Launches()-launches0)/ops)
	r.set("model.conv_share_sim", nn.ConvShare(s.ctx.TimeByKind))
	convMs := r.Metrics["nn.Conv.fwd_ms"] + r.Metrics["nn.Conv.bwd_ms"]
	r.set("model.conv_share_host", convMs/mean(run.traced))
	s.probeConvs(r)
	s.probeGEMM(r)
}

// probeReps is how many timed repetitions a probe takes the median of,
// after one untimed run.
const probeReps = 3

// timeMedian runs f once untimed, then probeReps times, and returns the
// median in ms.
func timeMedian(f func() error) (float64, error) {
	if err := guard(f); err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		if err := guard(f); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t)))
	}
	return median(times), nil
}

// probeConvs times each conv layer's engine plan alone at the
// workload's shapes, pass by pass: forward, and for training also
// backward-data and backward-filter.
func (s *modelSession) probeConvs(r *report) {
	dev := gpusim.New(gpusim.TeslaK40c())
	for _, cl := range s.convs {
		plan, err := s.eng.PlanShared(dev, cl.cfg)
		if err != nil {
			r.fail("probe %s: %v", cl.name, err)
			continue
		}
		x, w := workload.SyntheticTensors(cl.cfg, uint64(s.seed))
		y := tensor.New(cl.cfg.OutputShape()...)
		type pass struct {
			name string
			run  func() error
		}
		passes := []pass{{"fwd", func() error { return plan.Forward(x, w, y) }}}
		if s.spec.train {
			// y stands in for the output gradient: the passes' cost does
			// not depend on its values.
			dx, dw := tensor.New(cl.cfg.InputShape()...), tensor.New(cl.cfg.FilterShape()...)
			passes = append(passes,
				pass{"bwd_data", func() error { return plan.BackwardData(y, w, dx) }},
				pass{"bwd_filter", func() error { return plan.BackwardFilter(x, y, dw) }})
		}
		for _, p := range passes {
			t, err := timeMedian(p.run)
			if err != nil {
				r.fail("probe %s %s: %v", cl.name, p.name, err)
				continue
			}
			r.set(fmt.Sprintf("conv.%s.%s_ms", cl.name, p.name), t)
		}
		plan.Release()
	}
}

// probeGEMM times the two GEMM kernels at the largest conv layer's
// shapes: the SGEMM of its unroll lowering for one image, and the
// pointwise complex multiply-accumulate of one image's FFT forward
// reduction.
func (s *modelSession) probeGEMM(r *report) {
	big := s.convs[0].cfg
	for _, cl := range s.convs {
		if cl.cfg.ForwardFLOPs() > big.ForwardFLOPs() {
			big = cl.cfg
		}
	}
	rng := tensor.NewRNG(uint64(s.seed))
	m, n, k := big.Filters, big.Out()*big.Out(), big.Channels*big.Kernel*big.Kernel
	a, b, c := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	a.FillUniform(rng, -1, 1)
	b.FillUniform(rng, -1, 1)
	t, err := timeMedian(func() error {
		gemm.Parallel(1, a.Data, b.Data, 0, c.Data, m, n, k)
		return nil
	})
	if err != nil {
		r.fail("SGEMM probe: %v", err)
		return
	}
	r.set("gemm.sgemm_gflops", gemm.FLOPs(m, n, k)/t/1e6)
	bins := conv.FFTPlanSize(big) * conv.FFTPlanSize(big)
	acc, xg, wg := make([]complex64, bins), make([]complex64, bins), make([]complex64, bins)
	for i := range xg {
		xg[i] = complex(rng.Float32(), rng.Float32())
		wg[i] = complex(rng.Float32(), rng.Float32())
	}
	pairs := big.Filters * big.Channels
	t, err = timeMedian(func() error {
		for p := 0; p < pairs; p++ {
			gemm.CMulAccPointwise(acc, xg, wg, true)
		}
		return nil
	})
	if err != nil {
		r.fail("pointwise probe: %v", err)
		return
	}
	r.set("gemm.cmulacc_gflops", 8*float64(bins)*float64(pairs)/t/1e6)
	r.note("GEMM probes at %v: SGEMM %dx%dx%d; pointwise complex multiply-accumulate over %d bins x %d filter-channel pairs",
		big, m, n, k, bins, pairs)
}

// probePlanner times cold planner decisions for every conv layer on a
// private cache, so the shared cache's state does not matter.
func (s *modelSession) probePlanner(r *report) {
	p := planner.New(planner.Options{Cache: planner.NewCache()})
	decisions := make([]planner.Decision, len(s.convs))
	t := time.Now()
	for i, cl := range s.convs {
		d, err := p.Decide(s.dev.Spec, cl.cfg)
		if err != nil {
			r.fail("planner %s: %v", cl.name, err)
			return
		}
		decisions[i] = d
	}
	r.set("planner.decide_ms", ms(time.Since(t)))
	for i, d := range decisions {
		r.note("planner picks %s for %s %v: %s", d.Engine, s.convs[i].name, d.Cfg, d.Reason)
	}
}
