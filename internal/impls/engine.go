// Package impls contains the convolution engines: the seven
// implementations the paper compares (Caffe, cuDNN(v3), Torch-cunn,
// Theano-CorrMM, Theano-fft, cuda-convnet2 and fbfft) and two
// extensions (cuDNN-Winograd and Theano-legacy). Each of the nine
// built-in engines is a description over one plan implementation: the
// properties the paper tells the implementations apart by — shape
// limits, gradient-buffer and device-workspace policy, host↔device
// transfer policy, the real (CPU-executed, goroutine-parallel)
// convolution from internal/conv it computes with, and a GPU cost
// model giving the kernel sequence it would launch with each kernel's
// resource usage (Table II) and access-pattern behaviour. Running a
// plan therefore yields both a numerically correct result and the
// simulated runtime, memory and nvprof metrics the paper reports.
//
// Every plan holds one workspace.Arena for as long as it lives — the
// host side of cuDNN's caller-provided workspace. Each pass resets it
// and the strategy functions of internal/conv carve all their scratch
// (FFT grids, Winograd transform banks, GEMM packing panels) from it,
// so once a pass has run, repeating it does not touch the Go heap. The
// direct-convolution engines need no scratch and never touch theirs.
package impls

import (
	"fmt"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// Engine is a convolution implementation: one of the nine built-in
// engines (the paper's seven plus two extensions) or one layered on
// top of them, such as the planner's Autotuned.
type Engine interface {
	// Name returns the implementation name as used in the paper.
	Name() string
	// Strategy returns the convolution family the engine follows.
	Strategy() conv.Strategy
	// Supports returns nil if the engine can run the configuration, or
	// an error describing the shape limitation it violates.
	Supports(cfg conv.Config) error
	// Plan allocates device memory for the configuration and returns an
	// executable plan. The caller must Release the plan.
	Plan(dev *gpusim.Device, cfg conv.Config) (Plan, error)
	// PlanShared is Plan for use inside a network whose activation and
	// gradient tensors are owned by the framework and shared between
	// layers: only the engine's weights and private workspace are
	// allocated.
	PlanShared(dev *gpusim.Device, cfg conv.Config) (Plan, error)
}

// Plan is a convolution layer instantiated on a device. The tensor
// arguments of the passes may all be nil, in which case the pass is
// simulated (kernels launched, clock advanced, metrics recorded) but no
// arithmetic is performed — that is how the large benchmark sweeps run.
//
// A plan runs one pass at a time: its passes share the plan's device
// clock and its host arena, so callers must not run two passes of one
// plan concurrently. nn runs a network's layers in sequence and
// multigpu.PlanCache.Exec serialises the plans of each device, so both
// keep to this; separate plans run concurrently without restriction.
type Plan interface {
	Config() conv.Config
	// Forward computes y = x ⋆ w.
	Forward(x, w, y *tensor.Tensor) error
	// BackwardData computes dx from dy and w.
	BackwardData(dy, w, dx *tensor.Tensor) error
	// BackwardFilter computes dw from x and dy.
	BackwardFilter(x, dy, dw *tensor.Tensor) error
	// Iteration simulates one full training iteration: the input-batch
	// transfer (per the engine's transfer policy) plus forward,
	// backward-data and backward-filter passes.
	Iteration() error
	// Inference simulates one forward-only serving pass: the input-batch
	// transfer (per the engine's transfer policy) plus the forward pass.
	// This is the unit of work an inference server dispatches per batch.
	Inference() error
	// Release frees the plan's device memory.
	Release()
}

// engine is every built-in Engine: the description of one
// implementation, run by plan.
type engine struct {
	name     string
	strategy conv.Strategy

	// limits checks the configuration, cfg.Validate included, against
	// the engine's shape limitations; nil accepts any valid shape.
	limits func(name string, cfg conv.Config) error

	// Gradient-buffer policy, see bufSet.allocTrainingSet.
	inPlaceGrads, reuseInputGrad bool

	transfer transferPolicy
	host     hostStrategy

	// model builds the engine's kernel-launch model for one planned
	// configuration.
	model func(cfg conv.Config) launchModel
}

func (e *engine) Name() string            { return e.name }
func (e *engine) Strategy() conv.Strategy { return e.strategy }

func (e *engine) Supports(cfg conv.Config) error {
	if e.limits != nil {
		return e.limits(e.name, cfg)
	}
	return cfg.Validate()
}

func (e *engine) Plan(dev *gpusim.Device, cfg conv.Config) (Plan, error) {
	return e.newPlan(dev, cfg, false)
}

// PlanShared plans with framework-owned activations.
func (e *engine) PlanShared(dev *gpusim.Device, cfg conv.Config) (Plan, error) {
	return e.newPlan(dev, cfg, true)
}

// newPlan reserves the training set under the engine's gradient-buffer
// policy, then the model's device workspace.
func (e *engine) newPlan(dev *gpusim.Device, cfg conv.Config, shared bool) (Plan, error) {
	cfg = cfg.WithDefaults()
	if err := e.Supports(cfg); err != nil {
		return nil, err
	}
	p := &plan{engine: e, model: e.model(cfg), dev: dev, cfg: cfg, bufs: bufSet{dev: dev}}
	err := p.bufs.allocTrainingSet(cfg, e.inPlaceGrads, e.reuseInputGrad, shared)
	if tag, bytes := p.model.workspace(); err == nil && bytes > 0 {
		err = p.bufs.alloc(bytes, tag)
	}
	if err != nil {
		p.bufs.release()
		return nil, err
	}
	return p, nil
}

// pass names one of a plan's three convolution passes.
type pass int

const (
	forward pass = iota
	backwardData
	backwardFilter
)

// phaseNames are the telemetry phase spans of the passes.
var phaseNames = [...]string{"forward", "backward_data", "backward_filter"}

// launchModel is an engine's GPU cost model for one planned
// configuration — the paper's content: the kernels each pass launches
// (Figure 4) with their resource usage (Table II), and the device
// workspace the engine reserves (Figure 5). A model that carries state
// from pass to pass (fbfft's spectra reuse) keeps it itself, one model
// per plan.
type launchModel interface {
	// workspace names the device scratch reserved next to the training
	// set; zero bytes reserves none.
	workspace() (tag string, bytes int64)
	// launch issues the kernels of one pass on the device.
	launch(dev *gpusim.Device, ps pass) error
}

// hostStrategy is the real arithmetic of each pass, indexed by pass,
// taking its tensors in the order of the matching Plan method.
type hostStrategy [3]func(ws *workspace.Arena, cfg conv.Config, a, b, c *tensor.Tensor)

// kernelModel is the launch model of the engines that run each pass as
// a single kernel (the direct engines and Winograd): the three kernels
// share one resource and traffic profile and differ only by name.
type kernelModel struct {
	spec  gpusim.KernelSpec
	names [3]string // per pass
	tag   string    // device workspace, if any
	bytes int64
}

func (m *kernelModel) workspace() (string, int64) { return m.tag, m.bytes }

func (m *kernelModel) launch(dev *gpusim.Device, ps pass) error {
	spec := m.spec
	spec.Name = m.names[ps]
	_, err := dev.Launch(spec)
	return err
}

// plan is every built-in Plan. Each pass opens its phase span, launches
// the model's kernels and then, unless the tensors are nil, runs the
// host strategy on the plan's arena.
type plan struct {
	engine *engine
	model  launchModel
	dev    *gpusim.Device
	cfg    conv.Config
	bufs   bufSet
	ws     workspace.Arena // host scratch of the plan's passes
}

func (p *plan) Config() conv.Config { return p.cfg }

// Release frees the plan's device memory and drops its host arena.
func (p *plan) Release() {
	p.bufs.release()
	p.ws = workspace.Arena{}
}

func (p *plan) Forward(x, w, y *tensor.Tensor) error { return p.run(forward, x, w, y) }

func (p *plan) BackwardData(dy, w, dx *tensor.Tensor) error { return p.run(backwardData, dy, w, dx) }

func (p *plan) BackwardFilter(x, dy, dw *tensor.Tensor) error {
	return p.run(backwardFilter, x, dy, dw)
}

func (p *plan) run(ps pass, a, b, c *tensor.Tensor) error {
	defer beginPhase(p.dev, phaseNames[ps])()
	if err := p.model.launch(p.dev, ps); err != nil {
		return err
	}
	if a != nil {
		p.engine.host[ps](&p.ws, p.cfg, a, b, c)
	}
	return nil
}

func (p *plan) Inference() error {
	p.engine.transfer.doTransfer(p.dev, p.cfg)
	return p.run(forward, nil, nil, nil)
}

func (p *plan) Iteration() error {
	p.engine.transfer.doTransfer(p.dev, p.cfg)
	for ps := forward; ps <= backwardFilter; ps++ {
		if err := p.run(ps, nil, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// bufSet tracks device buffers for bulk release.
type bufSet struct {
	dev  *gpusim.Device
	bufs []*gpusim.Buffer
}

// alloc reserves device memory or returns the allocation error
// (typically gpusim.OOMError when a sweep exceeds the 12 GB card).
func (b *bufSet) alloc(bytes int64, tag string) error {
	buf, err := b.dev.Mem.Alloc(bytes, tag)
	if err != nil {
		return err
	}
	b.bufs = append(b.bufs, buf)
	return nil
}

func (b *bufSet) release() {
	for _, buf := range b.bufs {
		buf.Free()
	}
	b.bufs = nil
}

// allocTrainingSet reserves the resident tensors of a training
// iteration. Engines differ in how many gradient buffers they keep
// live (inPlaceGrads drops one output-sized buffer, the Torch-cunn
// buffer-reuse behaviour; reuseInputGrad drops the input-gradient
// buffer, cuda-convnet2's in-place trick). With shared set, activation
// and activation-gradient buffers are owned by the enclosing framework
// and only the weights are reserved here.
func (b *bufSet) allocTrainingSet(cfg conv.Config, inPlaceGrads, reuseInputGrad, shared bool) error {
	if err := b.alloc(cfg.FilterBytes(), "weights"); err != nil {
		return err
	}
	if err := b.alloc(cfg.FilterBytes(), "weight-grad"); err != nil {
		return err
	}
	if shared {
		return nil
	}
	if err := b.alloc(cfg.InputBytes(), "input"); err != nil {
		return err
	}
	if err := b.alloc(cfg.OutputBytes(), "output"); err != nil {
		return err
	}
	if !inPlaceGrads {
		if err := b.alloc(cfg.OutputBytes(), "output-grad"); err != nil {
			return err
		}
	}
	if !reuseInputGrad {
		if err := b.alloc(cfg.InputBytes(), "input-grad"); err != nil {
			return err
		}
	}
	return nil
}

// phaser is the slice of internal/telemetry's Recorder the engines
// need: opening a named phase span under whatever span is currently
// collecting the device's events. Declared locally so impls carries no
// telemetry dependency.
type phaser interface {
	StartPhase(name string) func()
}

// beginPhase opens a telemetry phase span ("forward", "backward_data",
// "backward_filter", "h2d") on the device's event sink, returning the
// closure that ends it. A no-op when no hierarchical sink is installed.
func beginPhase(dev *gpusim.Device, name string) func() {
	if ph, ok := dev.Sink().(phaser); ok {
		return ph.StartPhase(name)
	}
	return func() {}
}

// transferPolicy describes how an implementation moves the input batch
// to the device each iteration — the behaviour behind Figure 7.
type transferPolicy struct {
	pinned bool    // page-locked staging buffers
	async  bool    // overlapped with compute (Caffe's prefetch thread)
	factor float64 // bytes moved as a multiple of the input batch size

	// spillThreshold/spillFactor model Theano-CorrMM's pathological
	// Conv2 behaviour: when the input batch exceeds the graph
	// optimiser's staging threshold, the tensor makes extra host
	// round-trips, blowing the transfer share past 60% of runtime.
	spillThreshold int64
	spillFactor    float64
}

// doTransfer simulates the iteration's host→device traffic.
func (tp transferPolicy) doTransfer(dev *gpusim.Device, cfg conv.Config) {
	defer beginPhase(dev, "h2d")()
	f := tp.factor
	if f <= 0 {
		f = 1
	}
	if tp.spillThreshold > 0 && cfg.InputBytes() > tp.spillThreshold {
		f += tp.spillFactor
	}
	dev.Copy(gpusim.Transfer{
		Bytes:  int64(float64(cfg.InputBytes()) * f),
		Pinned: tp.pinned,
		Async:  tp.async,
	})
}

// errUnsupported builds the standard shape-limitation error.
func errUnsupported(engine string, cfg conv.Config, reason string) error {
	return fmt.Errorf("%s does not support %v: %s", engine, cfg, reason)
}
