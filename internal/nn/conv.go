package nn

import (
	"fmt"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// Conv is a convolutional layer backed by one of the seven engines.
// Weights are FCHW, plus a per-filter bias.
type Conv struct {
	name    string
	engine  impls.Engine
	Filters int
	Kernel  int
	Stride  int
	Pad     int

	weight *Param
	bias   *Param
	params []*Param // weight and bias, once declared

	// Cached per-shape engine plan and the inputs of the last forward.
	plan    impls.Plan
	planCfg conv.Config
	planDev *gpusim.Device
	lastX   *Value
	fwd     held            // forward output
	bwd     held            // input gradient
	dw      held            // filter gradient of the last Backward, added into weight.Grad
	ws      workspace.Arena // scratch of the plan-less (no device) passes
}

// NewConv builds a convolutional layer using the given engine (nil
// selects cuDNN, the paper's best all-round choice).
func NewConv(name string, engine impls.Engine, filters, kernel, stride, pad int) *Conv {
	if engine == nil {
		engine = impls.NewCuDNN()
	}
	return &Conv{name: name, engine: engine, Filters: filters, Kernel: kernel, Stride: stride, Pad: pad}
}

// Name returns the layer name.
func (l *Conv) Name() string { return l.name }

// Kind returns KindConv.
func (l *Conv) Kind() Kind { return KindConv }

// Engine returns the backing convolution engine.
func (l *Conv) Engine() impls.Engine { return l.engine }

func (l *Conv) cfgFor(in tensor.Shape) conv.Config {
	if len(in) != 4 {
		panic(fmt.Sprintf("nn: conv %s requires NCHW input, got %v", l.name, in))
	}
	if in[2] != in[3] {
		panic(fmt.Sprintf("nn: conv %s requires square input, got %v", l.name, in))
	}
	cfg := conv.Config{
		Batch: in[0], Channels: in[1], Input: in[2],
		Filters: l.Filters, Kernel: l.Kernel, Stride: l.Stride, Pad: l.Pad,
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("nn: conv %s: %v", l.name, err))
	}
	return cfg
}

// OutShape computes the output NCHW shape.
func (l *Conv) OutShape(in tensor.Shape) tensor.Shape {
	cfg := l.cfgFor(in)
	return cfg.OutputShape()
}

func (l *Conv) ensureParams(channels int) {
	if l.weight != nil {
		return
	}
	l.weight = NewParam(l.name+".weight", heNormal(uint64(len(l.name))*2654435761+7, channels*l.Kernel*l.Kernel),
		l.Filters, channels, l.Kernel, l.Kernel)
	l.bias = NewParam(l.name+".bias", nil, l.Filters)
	l.params = []*Param{l.weight, l.bias}
}

func (l *Conv) ensurePlan(ctx *Context, cfg conv.Config) impls.Plan {
	if ctx.Dev == nil {
		return nil
	}
	if l.plan != nil && l.planCfg == cfg && l.planDev == ctx.Dev {
		return l.plan
	}
	if l.plan != nil {
		l.plan.Release()
	}
	p, err := l.engine.PlanShared(ctx.Dev, cfg)
	if err != nil {
		panic(fmt.Sprintf("nn: conv %s: %v", l.name, err))
	}
	l.plan, l.planCfg, l.planDev = p, cfg, ctx.Dev
	return p
}

// Release frees the layer's device plan and drops its host arena.
func (l *Conv) Release() {
	if l.plan != nil {
		l.plan.Release()
		l.plan = nil
	}
	l.ws = workspace.Arena{}
}

// Forward runs the engine (real or simulate-only) plus the bias add.
func (l *Conv) Forward(ctx *Context, x *Value) *Value {
	cfg := l.cfgFor(x.Shape)
	l.ensureParams(cfg.Channels)
	l.lastX = x
	out := l.fwd.at(cfg.OutputShape(), x.Real())
	ctx.timed(KindConv, func() {
		plan := l.ensurePlan(ctx, cfg)
		if x.Real() {
			w := l.weight.Materialise().W
			if plan != nil {
				if err := plan.Forward(x.Data, w, out.Data); err != nil {
					panic(err)
				}
			} else {
				conv.UnrollForward(&l.ws, cfg, x.Data, w, out.Data)
			}
			addBias(out.Data, l.bias.Materialise().W.Data)
		} else if plan != nil {
			if err := plan.Forward(nil, nil, nil); err != nil {
				panic(err)
			}
		}
		ctx.launch(elementwiseSpec("add_bias", out.Elems(), 8))
	})
	return out
}

// addBias adds each filter's bias to its output planes.
func addBias(y *tensor.Tensor, bias []float32) {
	j := biasPool.Get()
	j.y, j.bias, j.hw = y.Data, bias, y.Dim(2)*y.Dim(3)
	j.per, j.items = spread(y.Dim(0)*y.Dim(1), j.hw)
	par.ForEachRunner(j.items, j)
	j.y, j.bias = nil, nil
	biasPool.Put(j)
}

// biasJob adds the bias over runs of per (image, filter) planes of hw
// elements. Pooled so dispatch allocates nothing.
type biasJob struct {
	y, bias        []float32
	hw, per, items int
}

var biasPool = par.NewJobPool[biasJob]()

// Run adds the bias to item i's planes.
//
//hot:noalloc
func (j *biasJob) Run(i int) {
	planes := len(j.y) / j.hw
	for p := i * j.per; p < min((i+1)*j.per, planes); p++ {
		b := j.bias[p%len(j.bias)]
		seg := j.y[p*j.hw : (p+1)*j.hw]
		for k := range seg {
			seg[k] += b
		}
	}
}

// Backward computes dx and accumulates weight/bias gradients. The
// engines overwrite dx and the held dw, so neither needs clearing.
func (l *Conv) Backward(ctx *Context, dy *Value) *Value {
	cfg := l.cfgFor(l.lastX.Shape)
	data := dy.Real() && l.lastX.Real()
	dx := l.bwd.at(l.lastX.Shape, data)
	ctx.timed(KindConv, func() {
		plan := l.ensurePlan(ctx, cfg)
		if data {
			// Bias gradient: per-filter sum of dy.
			n, f := dy.Shape[0], dy.Shape[1]
			hw := dy.Shape[2] * dy.Shape[3]
			db := l.bias.grad().Data
			for j := 0; j < n*f; j++ {
				var s float32
				seg := dy.Data.Data[j*hw : (j+1)*hw]
				for _, v := range seg {
					s += v
				}
				db[j%f] += s
			}
			dw := l.dw.at(l.weight.Shape, true).Data
			if plan != nil {
				if err := plan.BackwardData(dy.Data, l.weight.W, dx.Data); err != nil {
					panic(err)
				}
				if err := plan.BackwardFilter(l.lastX.Data, dy.Data, dw); err != nil {
					panic(err)
				}
			} else {
				conv.UnrollBackwardData(&l.ws, cfg, dy.Data, l.weight.W, dx.Data)
				conv.UnrollBackwardFilter(&l.ws, cfg, l.lastX.Data, dy.Data, dw)
			}
			l.weight.grad().AddScaled(dw, 1)
		} else if plan != nil {
			if err := plan.BackwardData(nil, nil, nil); err != nil {
				panic(err)
			}
			if err := plan.BackwardFilter(nil, nil, nil); err != nil {
				panic(err)
			}
		}
		ctx.launch(elementwiseSpec("bias_grad", dy.Elems(), 4))
	})
	return dx
}

// Params returns weight and bias, or nil before the first pass.
func (l *Conv) Params() []*Param { return l.params }
