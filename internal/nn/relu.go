package nn

import (
	"math"

	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
)

// ReLU is the rectified-linear activation.
//
// Both passes are branch-free selects over contiguous runs, spread
// over every core by pooled Runners: Forward keeps x where x > 0 and
// writes +0 elsewhere (NaN and −0 included), and Backward writes dy
// where x > 0 and +0 elsewhere.
type ReLU struct {
	name  string
	lastX *Value
	fwd   held // forward output
	bwd   held // input gradient
}

// NewReLU builds a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name returns the layer name.
func (l *ReLU) Name() string { return l.name }

// Kind returns KindReLU.
func (l *ReLU) Kind() Kind { return KindReLU }

// OutShape is the identity.
func (l *ReLU) OutShape(in tensor.Shape) tensor.Shape { return in.Clone() }

// Forward computes max(0, x).
func (l *ReLU) Forward(ctx *Context, x *Value) *Value {
	l.lastX = x
	out := l.fwd.at(x.Shape, x.Real())
	ctx.timed(KindReLU, func() {
		if x.Real() {
			j := reluPool.Get()
			j.x, j.dst = x.Data.Data, out.Data.Data
			j.per, j.items = spread(len(j.dst), 1)
			par.ForEachRunner(j.items, j)
			j.x, j.dst = nil, nil
			reluPool.Put(j)
		}
		ctx.launch(elementwiseSpec("relu_fwd", x.Elems(), 8))
	})
	return out
}

// Backward passes the gradient where the input was positive.
func (l *ReLU) Backward(ctx *Context, dy *Value) *Value {
	data := dy.Real() && l.lastX.Real()
	out := l.bwd.at(dy.Shape, data)
	ctx.timed(KindReLU, func() {
		if data {
			j := reluPool.Get()
			j.x, j.dy, j.dst = l.lastX.Data.Data, dy.Data.Data, out.Data.Data
			j.per, j.items = spread(len(j.dst), 1)
			par.ForEachRunner(j.items, j)
			j.x, j.dy, j.dst = nil, nil, nil
			reluPool.Put(j)
		}
		ctx.launch(elementwiseSpec("relu_bwd", dy.Elems(), 12))
	})
	return out
}

// Params returns nil; ReLU has no parameters.
func (l *ReLU) Params() []*Param { return nil }

// reluJob is one ReLU pass over per-element runs; forward when dy is
// nil. Pooled so dispatch allocates nothing.
type reluJob struct {
	x, dy, dst []float32
	per, items int
}

var reluPool = par.NewJobPool[reluJob]()

// Run writes item i's run of dst: x (forward) or dy (backward) masked
// by x > 0.
//
//hot:noalloc
func (j *reluJob) Run(i int) {
	lo := i * j.per
	dst := j.dst[lo:min(lo+j.per, len(j.dst))]
	x := j.x[lo : lo+len(dst)]
	if j.dy == nil {
		for k, v := range x {
			b := math.Float32bits(v)
			dst[k] = math.Float32frombits(b & positive(b))
		}
		return
	}
	dy := j.dy[lo : lo+len(dst)]
	for k, v := range x {
		dst[k] = math.Float32frombits(math.Float32bits(dy[k]) & positive(math.Float32bits(v)))
	}
}

// positive returns all ones when the float32 with bits b is > 0 (a
// positive subnormal, normal or +Inf: b in [1, 0x7f800000]) and 0
// otherwise (±0, negative, NaN), without a branch.
//
//hot:noalloc
func positive(b uint32) uint32 {
	return uint32((int64(b-1) - 0x7f800000) >> 63)
}
