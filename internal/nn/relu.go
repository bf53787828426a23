package nn

import (
	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
)

// ReLU is the rectified-linear activation.
type ReLU struct {
	name  string
	lastX *Value
	out   *tensor.Tensor // held forward output
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
	out := &Value{Shape: x.Shape.Clone()}
	ctx.timed(KindReLU, func() {
		if x.Real() {
			out.Data = hold(&l.out, out.Shape)
			par.Chunks(x.Data.Len(), 0, func(lo, hi int) {
				src, dst := x.Data.Data, out.Data.Data
				for i := lo; i < hi; i++ {
					v := src[i]
					if !(v > 0) {
						v = 0 // the held output keeps the last pass's values
					}
					dst[i] = v
				}
			})
		}
		ctx.launch(elementwiseSpec("relu_fwd", x.Elems(), 8))
	})
	return out
}

// Backward passes gradient where the input was positive.
func (l *ReLU) Backward(ctx *Context, dy *Value) *Value {
	out := &Value{Shape: dy.Shape.Clone()}
	ctx.timed(KindReLU, func() {
		if dy.Real() && l.lastX.Real() {
			out.Data = tensor.New(out.Shape...)
			par.Chunks(dy.Data.Len(), 0, func(lo, hi int) {
				x, g, dst := l.lastX.Data.Data, dy.Data.Data, out.Data.Data
				for i := lo; i < hi; i++ {
					if x[i] > 0 {
						dst[i] = g[i]
					}
				}
			})
		}
		ctx.launch(elementwiseSpec("relu_bwd", dy.Elems(), 12))
	})
	return out
}

// Params returns nil; ReLU has no parameters.
func (l *ReLU) Params() []*Param { return nil }
