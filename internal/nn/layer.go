// Package nn is a small CNN framework over the convolution engines: the
// layer types that make up the paper's four profiled models
// (convolution, pooling, ReLU, LRN, dropout, fully-connected, concat /
// inception branches, softmax loss), a sequential network container
// with backpropagation, per-layer-kind simulated-time accounting (the
// instrument behind Figure 2), and an SGD trainer.
//
// Layers run in two modes, controlled by the Context:
//
//   - Real mode: Values carry tensors, layers compute real arithmetic
//     (goroutine-parallel) and simultaneously emit their kernel launches
//     to the simulated device.
//   - Simulate-only mode (Value.Data == nil): only shapes flow through
//     the network and only the device clock advances — this is how the
//     big model profiles run without allocating ImageNet-scale
//     activations or parameters on the host. Parameters get storage and
//     initial values on first real use (Param.Materialise).
package nn

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/telemetry"
	"gpucnn/internal/tensor"
)

// Kind is the layer category used in the paper's Figure 2 runtime
// breakdown.
type Kind string

// Layer kinds, matching Figure 2's categories.
const (
	KindConv    Kind = "Conv"
	KindPool    Kind = "Pooling"
	KindReLU    Kind = "ReLU"
	KindFC      Kind = "FC"
	KindConcat  Kind = "Concat"
	KindLRN     Kind = "LRN"
	KindDropout Kind = "Dropout"
	KindLoss    Kind = "Loss"
)

// Value is an activation flowing between layers: always a shape,
// optionally real data (nil in simulate-only mode).
type Value struct {
	Shape tensor.Shape
	Data  *tensor.Tensor
}

// NewValue wraps a tensor as a Value.
func NewValue(t *tensor.Tensor) *Value {
	return &Value{Shape: t.Shape(), Data: t}
}

// ShapeOnly builds a data-less Value for simulate-only runs.
func ShapeOnly(dims ...int) *Value {
	return &Value{Shape: tensor.Shape(dims).Clone()}
}

// Real reports whether the value carries data.
func (v *Value) Real() bool { return v != nil && v.Data != nil }

// Elems returns the element count of the value's shape.
func (v *Value) Elems() int { return v.Shape.Elems() }

// Param is a learnable tensor with its gradient. A layer declares its
// parameters from their shapes on its first pass of either kind. W
// stays nil until Materialise allocates and fills it, exactly once,
// when a real pass, Save or Load first needs it; Grad stays nil until
// the first real Backward accumulates into it, so a net that only
// runs inference holds no gradients.
type Param struct {
	Name  string
	Shape tensor.Shape
	W     *tensor.Tensor // nil until materialised
	Grad  *tensor.Tensor // nil until a Backward accumulates into it
	init  func(w *tensor.Tensor)
}

// NewParam declares a parameter of the given shape. init fills W when
// it is materialised; nil leaves it zero, as for biases.
func NewParam(name string, init func(w *tensor.Tensor), dims ...int) *Param {
	return &Param{Name: name, Shape: tensor.Shape(dims).Clone(), init: init}
}

// Materialise allocates W and fills it on its first call, and returns
// p.
func (p *Param) Materialise() *Param {
	if p.W == nil {
		p.W = tensor.New(p.Shape...)
		if p.init != nil {
			p.init(p.W)
		}
	}
	return p
}

// grad returns Grad for a Backward to accumulate into, allocating it
// zeroed on first use.
func (p *Param) grad() *tensor.Tensor {
	if p.Grad == nil {
		p.Grad = tensor.New(p.Shape...)
	}
	return p.Grad
}

// Elems returns the parameter element count of the declared shape.
func (p *Param) Elems() int { return p.Shape.Elems() }

// heNormal is He-style fan-in scaling, which keeps deep stacks
// trainable: normal weights of sigma √(2/fanIn) from a fixed seed.
func heNormal(seed uint64, fanIn int) func(*tensor.Tensor) {
	sigma := float32(math.Sqrt(2 / float64(fanIn)))
	return func(w *tensor.Tensor) { w.FillNormal(tensor.NewRNG(seed), sigma) }
}

// Context carries the per-run state: the simulated device (optional),
// training flag, RNG for dropout, and the per-kind time ledger.
type Context struct {
	Dev   *gpusim.Device
	Train bool
	RNG   *tensor.RNG

	TimeByKind map[Kind]time.Duration

	// ActivationBytes estimates the device memory the network's
	// activations (and their gradients, in training mode) would occupy —
	// accumulated by Net.Forward.
	ActivationBytes int64

	// Telemetry (all optional): the current parent span, the metrics
	// registry fed by Net.Forward/Backward, and the device-event
	// recorder that nests kernel launches under the active span. Wire
	// them up with AttachTelemetry.
	Span    *telemetry.Span
	Metrics *telemetry.Registry
	Rec     *telemetry.Recorder
}

// NewContext builds a context. dev may be nil to run pure arithmetic
// with no simulation.
func NewContext(dev *gpusim.Device, train bool) *Context {
	return &Context{Dev: dev, Train: train, RNG: tensor.NewRNG(1), TimeByKind: map[Kind]time.Duration{}}
}

// AttachTelemetry roots the context's span tree at parent and routes
// per-layer latency histograms into reg (either may be nil). With a
// device attached, kernel and transfer events are recorded as leaves of
// whichever span is active when they launch, and the span tracer's
// simulated clock follows the device, so layer spans and kernel events
// share one timeline.
func (c *Context) AttachTelemetry(parent *telemetry.Span, reg *telemetry.Registry) {
	c.Span = parent
	c.Metrics = reg
	if c.Dev == nil || parent == nil {
		return
	}
	if tr := parent.Tracer(); tr != nil {
		tr.SetSimClock(c.Dev.Elapsed)
	}
	c.Rec = telemetry.NewRecorder()
	if reg != nil {
		c.Rec.CountInto(reg, nil)
	}
	c.Rec.Attach(parent)
	c.Dev.SetSink(c.Rec)
}

// StartSpan opens a child of the context's current span, makes it the
// attach point for device events, and returns the closure restoring the
// parent. With no telemetry attached both returns are safe no-ops.
func (c *Context) StartSpan(name string) (*telemetry.Span, func()) {
	if c.Span == nil {
		return nil, func() {}
	}
	parent := c.Span
	sp := parent.Child(name)
	c.Span = sp
	c.Rec.Attach(sp)
	return sp, func() {
		sp.End()
		c.Span = parent
		c.Rec.Attach(parent)
	}
}

// simNow samples the simulated device clock (0 without a device).
func (c *Context) simNow() time.Duration {
	if c.Dev == nil {
		return 0
	}
	return c.Dev.Elapsed()
}

// timed runs f and attributes the simulated-clock delta to kind.
func (c *Context) timed(kind Kind, f func()) {
	if c.Dev == nil {
		f()
		return
	}
	start := c.Dev.Elapsed()
	f()
	c.TimeByKind[kind] += c.Dev.Elapsed() - start
}

// launch emits a kernel if a device is attached.
func (c *Context) launch(spec gpusim.KernelSpec) {
	if c.Dev == nil {
		return
	}
	c.Dev.MustLaunch(spec)
}

// TotalTime sums the ledger.
func (c *Context) TotalTime() time.Duration {
	var t time.Duration
	for _, d := range c.TimeByKind {
		t += d
	}
	return t
}

// Layer is one network stage.
type Layer interface {
	Name() string
	Kind() Kind
	// OutShape computes the output shape for an input shape, validating
	// compatibility (panics on impossible shapes, like the engines do).
	OutShape(in tensor.Shape) tensor.Shape
	// Forward consumes x and produces the layer output. Layers cache
	// what they need for Backward.
	//
	// Both passes return a Value the layer holds, over data it holds:
	// the layer overwrites both on its next call of the same pass
	// (reallocating only when the shape changes), so a returned Value
	// is valid until then; copy it to keep it longer.
	Forward(ctx *Context, x *Value) *Value
	// Backward consumes the output gradient and returns the input
	// gradient, accumulating parameter gradients into Param.Grad.
	Backward(ctx *Context, dy *Value) *Value
	// Params returns the layer's learnable parameters (may be empty)
	// in a slice the layer may hold: it is valid until the next call.
	Params() []*Param
}

// elementwiseSpec models a streaming elementwise kernel (ReLU, dropout,
// bias add): purely memory-bound, perfectly coalesced.
func elementwiseSpec(name string, elems int, bytesPerElem float64) gpusim.KernelSpec {
	bytes := float64(elems) * bytesPerElem
	return gpusim.KernelSpec{
		Name:             name,
		Grid:             gpusim.Dim3{X: (elems + 255) / 256},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    16,
		FLOPs:            float64(elems),
		GlobalLoadBytes:  bytes * 0.6,
		GlobalStoreBytes: bytes * 0.4,
		LoadTransPerReq:  1,
		StoreTransPerReq: 1,
		ActiveThreadFrac: 0.99,
		ILP:              2,
		EfficiencyScale:  0.9,
	}
}

// fcGemmSpec models the cuBLAS SGEMM behind a fully-connected layer:
// out×in weight panel times an in×batch activation panel. The batch is
// the GEMM's narrow dimension, so FC layers run far below peak — the
// reason convolution, not the parameter-heavy FC stack, dominates
// Figure 2's runtime breakdown.
func fcGemmSpec(m, n, k int) gpusim.KernelSpec {
	nUtil := float64(n) / 512
	if nUtil > 1 {
		nUtil = 1
	}
	eff := 0.85 * (0.25 + 0.75*nUtil)
	weightBytes := 4 * float64(m) * float64(k)
	ioBytes := 4 * float64(n) * float64(m+k)
	return gpusim.KernelSpec{
		Name:             "cublas_sgemm",
		Grid:             gpusim.Dim3{X: ((m+63)/64)*((n+63)/64) + 1},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    86,
		SharedPerBlock:   8704,
		FLOPs:            2 * float64(m) * float64(n) * float64(k),
		GlobalLoadBytes:  weightBytes + ioBytes*0.6,
		GlobalStoreBytes: ioBytes * 0.4,
		LoadTransPerReq:  1.5,
		StoreTransPerReq: 1.2,
		L2HitFrac:        0.5,
		UsesShared:       true,
		SharedBroadcast:  1.1,
		ActiveThreadFrac: 0.99,
		ILP:              3,
		EfficiencyScale:  eff,
	}
}

// held is a layer's output buffer for one pass: the Value the pass
// returns and the tensor behind it. Every layer keeps one per pass, so
// at a steady shape a pass allocates nothing. The tensor keeps the
// previous call's data, so a pass that accumulates into its output
// clears it first.
type held struct {
	v Value
	t *tensor.Tensor
}

// at re-points the held Value at shape s, cloning s only when it
// changes, and returns it: over the held tensor when data is set
// (reallocated only when the shape changes), shape-only otherwise.
func (h *held) at(s tensor.Shape, data bool) *Value {
	if !h.v.Shape.Equal(s) {
		h.v.Shape = s.Clone()
	}
	h.v.Data = nil
	if data {
		if h.t == nil || !h.t.Shape().Equal(s) {
			h.t = tensor.New(h.v.Shape...)
		}
		h.v.Data = h.t
	}
	return &h.v
}

// holdSlice is held for flat scratch: it returns (*buf)[:n], growing
// *buf first when it is too short.
func holdSlice[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// spread cuts n units of work of size elements each into items of per
// consecutive units for par: about four items per core, so a slow core
// does not hold a fixed share, and none under minSpread elements, so a
// small pass runs inline.
func spread(n, size int) (per, items int) {
	items = max(min(4*runtime.GOMAXPROCS(0), n*size/minSpread), 1)
	per = max((n+items-1)/items, 1)
	return per, (n + per - 1) / per
}

// minSpread is the fewest elements spread puts in one item: 64 KB of
// float32, enough to amortise a dispatch.
const minSpread = 1 << 14

// checkRank4 returns v's NCHW dimensions, panicking with the layer's
// kind and name when v is not rank 4. The message is built only on
// failure, so the check allocates nothing.
func checkRank4(v *Value, kind, name string) (n, c, h, w int) {
	if len(v.Shape) != 4 {
		panic(fmt.Sprintf("nn: %s %s requires a rank-4 NCHW input, got %v", kind, name, v.Shape))
	}
	return v.Shape[0], v.Shape[1], v.Shape[2], v.Shape[3]
}
