package nn

import "gpucnn/internal/tensor"

// Dropout zeroes activations with probability P during training
// (inverted dropout: survivors are scaled by 1/(1-P) so evaluation
// needs no rescaling).
type Dropout struct {
	name string
	P    float32

	fwd    held      // forward output
	bwd    held      // input gradient
	mask   []float32 // held mask of the last training Forward
	masked bool      // whether the last Forward applied mask
}

// NewDropout builds a dropout layer with drop probability p.
func NewDropout(name string, p float32) *Dropout { return &Dropout{name: name, P: p} }

// Name returns the layer name.
func (l *Dropout) Name() string { return l.name }

// Kind returns KindDropout.
func (l *Dropout) Kind() Kind { return KindDropout }

// OutShape is the identity.
func (l *Dropout) OutShape(in tensor.Shape) tensor.Shape { return in.Clone() }

// Forward samples a fresh mask each training pass.
func (l *Dropout) Forward(ctx *Context, x *Value) *Value {
	out := l.fwd.at(x.Shape, x.Real())
	ctx.timed(KindDropout, func() {
		if x.Real() {
			l.masked = ctx.Train && l.P > 0
			if !l.masked {
				copy(out.Data.Data, x.Data.Data)
			} else {
				keep := 1 - l.P
				scale := 1 / keep
				mask := holdSlice(&l.mask, x.Elems())
				for i := range mask {
					mask[i] = 0
					if ctx.RNG.Float32() < keep {
						mask[i] = scale
					}
				}
				for i, v := range x.Data.Data {
					out.Data.Data[i] = v * l.mask[i]
				}
			}
		}
		ctx.launch(elementwiseSpec("dropout_fwd", x.Elems(), 9))
	})
	return out
}

// Backward applies the same mask to the gradient.
func (l *Dropout) Backward(ctx *Context, dy *Value) *Value {
	out := l.bwd.at(dy.Shape, dy.Real())
	ctx.timed(KindDropout, func() {
		if dy.Real() {
			if !l.masked {
				copy(out.Data.Data, dy.Data.Data)
			} else {
				for i, v := range dy.Data.Data {
					out.Data.Data[i] = v * l.mask[i]
				}
			}
		}
		ctx.launch(elementwiseSpec("dropout_bwd", dy.Elems(), 9))
	})
	return out
}

// Params returns nil; dropout has no parameters.
func (l *Dropout) Params() []*Param { return nil }
