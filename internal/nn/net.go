package nn

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gpucnn/internal/telemetry"
	"gpucnn/internal/tensor"
)

// Net is a sequential network (inception modules nest inside Branch
// layers, so even GoogLeNet is a flat sequence at this level).
type Net struct {
	Name   string
	Layers []Layer
}

// NewNet builds a network.
func NewNet(name string, layers ...Layer) *Net {
	return &Net{Name: name, Layers: layers}
}

// Add appends a layer.
func (n *Net) Add(l Layer) *Net {
	n.Layers = append(n.Layers, l)
	return n
}

// OutShape propagates a shape through all layers.
func (n *Net) OutShape(in tensor.Shape) tensor.Shape {
	s := in.Clone()
	for _, l := range n.Layers {
		s = l.OutShape(s)
	}
	return s
}

// Forward runs all layers, accounting each layer's output activation
// (plus its gradient twin during training) toward the context's
// activation-byte estimate — the quantity that decides whether a model
// and batch size fit the device. With telemetry attached each layer
// runs inside its own span and lands in a per-layer latency histogram.
func (n *Net) Forward(ctx *Context, x *Value) *Value {
	_, endPass := ctx.StartSpan("forward")
	defer endPass()
	v := x
	for _, l := range n.Layers {
		end := n.observeLayer(ctx, l, "forward")
		v = l.Forward(ctx, v)
		end()
		bytes := int64(v.Elems()) * 4
		if ctx.Train {
			bytes *= 2 // the backward pass holds the matching gradient
		}
		ctx.ActivationBytes += bytes
	}
	return v
}

// Backward runs all layers in reverse, starting from the terminal
// gradient seed (for a SoftmaxLoss tail, pass the forward output shape).
func (n *Net) Backward(ctx *Context, dy *Value) *Value {
	_, endPass := ctx.StartSpan("backward")
	defer endPass()
	g := dy
	for i := len(n.Layers) - 1; i >= 0; i-- {
		l := n.Layers[i]
		end := n.observeLayer(ctx, l, "backward")
		g = l.Backward(ctx, g)
		end()
	}
	return g
}

// observeLayer opens the layer's span and returns the closure that ends
// it and records the layer's latency into the pass's histogram —
// simulated seconds (clock="sim") when a device drives the clock, host
// wall seconds (clock="host") otherwise — plus its attributed device
// work into per-layer counters.
func (n *Net) observeLayer(ctx *Context, l Layer, pass string) func() {
	if ctx.Span == nil && ctx.Metrics == nil {
		return func() {}
	}
	sp, endSpan := ctx.StartSpan(l.Name())
	sp.SetAttr("kind", string(l.Kind())).SetAttr("pass", pass)
	simStart := ctx.simNow()
	wallStart := time.Now()
	return func() {
		endSpan()
		if ctx.Metrics == nil {
			return
		}
		dur, clock := ctx.simNow()-simStart, "sim"
		if ctx.Dev == nil {
			dur, clock = time.Since(wallStart), "host"
		}
		labels := telemetry.Labels{
			"net": n.Name, "layer": l.Name(), "kind": string(l.Kind()),
		}
		ctx.Metrics.Help("nn_layer_"+pass+"_seconds",
			"Per-layer "+pass+" latency: simulated device seconds under clock=\"sim\", host wall seconds under clock=\"host\".")
		ctx.Metrics.Histogram("nn_layer_"+pass+"_seconds", labels.With("clock", clock), nil).Observe(dur.Seconds())
		if sp != nil {
			tot := sp.Totals()
			ctx.Metrics.Counter("nn_layer_flops_total", labels).Add(tot.FLOPs)
			ctx.Metrics.Counter("nn_layer_dram_bytes_total", labels).Add(tot.DRAMBytes)
			ctx.Metrics.Counter("nn_layer_kernels_total", labels).Add(float64(tot.Kernels))
		}
	}
}

// Params collects every learnable parameter.
func (n *Net) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of learnable scalars. Layers
// initialise parameters lazily, so the network must have seen one
// Forward (real or simulate-only) first.
func (n *Net) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Elems()
	}
	return total
}

// ZeroGrads clears all parameter gradients.
func (n *Net) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// Loss returns the terminal SoftmaxLoss layer, if present.
func (n *Net) Loss() *SoftmaxLoss {
	if len(n.Layers) == 0 {
		return nil
	}
	sl, _ := n.Layers[len(n.Layers)-1].(*SoftmaxLoss)
	return sl
}

// TrainStep runs one full forward/backward on real data and returns the
// loss and accuracy. Parameter gradients are accumulated (call
// ZeroGrads first or use the SGD trainer).
func (n *Net) TrainStep(ctx *Context, x *tensor.Tensor, labels []int) (loss, acc float64) {
	ctx.Train = true
	out := n.Forward(ctx, NewValue(x))
	sl := n.Loss()
	if sl == nil {
		panic("nn: TrainStep requires a SoftmaxLoss terminal layer")
	}
	loss, acc = sl.Loss(labels)
	n.Backward(ctx, &Value{Shape: out.Shape.Clone()})
	return loss, acc
}

// SimulateIteration runs one shape-only forward+backward, advancing the
// simulated device clock; per-kind times land in ctx.TimeByKind. This
// is the measurement loop behind Figure 2.
func (n *Net) SimulateIteration(ctx *Context, inputShape tensor.Shape) {
	ctx.Train = true
	out := n.Forward(ctx, &Value{Shape: inputShape.Clone()})
	n.Backward(ctx, &Value{Shape: out.Shape.Clone()})
}

// Release frees any device plans held by convolution layers.
func (n *Net) Release() {
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch t := l.(type) {
			case *Conv:
				t.Release()
			case *Branch:
				for _, p := range t.Paths {
					walk(p)
				}
			}
		}
	}
	walk(n.Layers)
}

// BreakdownReport renders the per-kind time ledger as percentage rows,
// largest first — one bar of the paper's Figure 2.
func BreakdownReport(times map[Kind]time.Duration) string {
	var total time.Duration
	for _, d := range times {
		total += d
	}
	type row struct {
		kind Kind
		d    time.Duration
	}
	rows := make([]row, 0, len(times))
	for k, d := range times {
		rows = append(rows, row{k, d})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	var b strings.Builder
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = float64(r.d) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-10s %12s %5.1f%%\n", r.kind, r.d.Round(time.Microsecond), pct)
	}
	return b.String()
}

// ConvShare returns the convolution fraction of the time ledger.
func ConvShare(times map[Kind]time.Duration) float64 {
	var total, convT time.Duration
	for k, d := range times {
		total += d
		if k == KindConv {
			convT = d
		}
	}
	if total == 0 {
		return 0
	}
	return float64(convT) / float64(total)
}
