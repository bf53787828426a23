// Package impls contains the seven convolution implementations the
// paper compares: Caffe, cuDNN(v3), Torch-cunn, Theano-CorrMM,
// Theano-fft, cuda-convnet2, and fbfft. Each engine couples a real
// (CPU-executed, goroutine-parallel) convolution from internal/conv
// with a GPU cost model: the kernel sequence it would launch, each
// kernel's resource usage (Table II), access-pattern behaviour, shape
// limitations, device-memory workspace policy, and host↔device
// transfer policy. Running a plan therefore yields both a numerically
// correct result and the simulated runtime, memory and nvprof metrics
// the paper reports.
//
// Every plan that computes on the host (unroll, cuDNN, the FFT engines
// and Winograd) holds one workspace.Arena for as long as it lives — the
// host side of cuDNN's caller-provided workspace. Each pass resets it
// and the strategy functions of internal/conv carve all their scratch
// (FFT grids, Winograd transform banks, GEMM packing panels) from it,
// so once a pass has run, repeating it does not touch the Go heap. The
// direct-convolution engines need no scratch and hold none.
package impls

import (
	"fmt"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/tensor"
)

// Engine is one of the seven convolution implementations.
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
