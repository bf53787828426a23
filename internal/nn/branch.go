package nn

import (
	"fmt"

	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
)

// Branch runs several layer stacks on the same input and concatenates
// their outputs along the channel axis — GoogLeNet's inception module.
// The concatenation cost is attributed to the Concat category, matching
// the "Concat layer" slice in the paper's Figure 2 GoogLeNet breakdown.
type Branch struct {
	name    string
	Paths   [][]Layer
	lastX   *Value
	out     *tensor.Tensor // held concatenated forward output
	splitsC []int          // per-path channel widths of the last forward
}

// NewBranch builds a branch layer over the given paths.
func NewBranch(name string, paths ...[]Layer) *Branch {
	return &Branch{name: name, Paths: paths}
}

// Name returns the layer name.
func (l *Branch) Name() string { return l.name }

// Kind returns KindConcat (the module's own cost is the concatenation;
// inner layers bill their own kinds).
func (l *Branch) Kind() Kind { return KindConcat }

// OutShape concatenates path outputs along channels.
func (l *Branch) OutShape(in tensor.Shape) tensor.Shape {
	var outC int
	var spatial tensor.Shape
	for pi, path := range l.Paths {
		s := in.Clone()
		for _, layer := range path {
			s = layer.OutShape(s)
		}
		if len(s) != 4 {
			panic(fmt.Sprintf("nn: branch %s path %d must output NCHW, got %v", l.name, pi, s))
		}
		if spatial == nil {
			spatial = s
		} else if s[2] != spatial[2] || s[3] != spatial[3] {
			panic(fmt.Sprintf("nn: branch %s path %d spatial %v mismatches %v", l.name, pi, s, spatial))
		}
		outC += s[1]
	}
	return tensor.Shape{spatial[0], outC, spatial[2], spatial[3]}
}

// Forward runs every path and concatenates.
func (l *Branch) Forward(ctx *Context, x *Value) *Value {
	l.lastX = x
	outs := make([]*Value, len(l.Paths))
	l.splitsC = holdSlice(&l.splitsC, len(l.Paths))
	for pi, path := range l.Paths {
		v := x
		for _, layer := range path {
			v = layer.Forward(ctx, v)
		}
		outs[pi] = v
		l.splitsC[pi] = v.Shape[1]
	}
	shape := l.OutShape(x.Shape)
	out := &Value{Shape: shape}
	ctx.timed(KindConcat, func() {
		if x.Real() {
			out.Data = hold(&l.out, shape)
			n, hw := shape[0], shape[2]*shape[3]
			totalC := shape[1]
			par.ForEach(n, func(bi int) {
				cOff := 0
				for pi, v := range outs {
					cw := l.splitsC[pi]
					src := v.Data.Data[bi*cw*hw : (bi+1)*cw*hw]
					dst := out.Data.Data[(bi*totalC+cOff)*hw:]
					copy(dst[:cw*hw], src)
					cOff += cw
				}
			})
		}
		ctx.launch(elementwiseSpec("concat", shape.Elems(), 8))
	})
	return out
}

// Backward splits the gradient and sums the paths' input gradients.
func (l *Branch) Backward(ctx *Context, dy *Value) *Value {
	n := dy.Shape[0]
	hw := dy.Shape[2] * dy.Shape[3]
	totalC := dy.Shape[1]

	// Split dy per path.
	parts := make([]*Value, len(l.Paths))
	ctx.timed(KindConcat, func() {
		cOff := 0
		for pi, cw := range l.splitsC {
			part := &Value{Shape: tensor.Shape{n, cw, dy.Shape[2], dy.Shape[3]}}
			if dy.Real() {
				part.Data = tensor.New(part.Shape...)
				for bi := 0; bi < n; bi++ {
					src := dy.Data.Data[(bi*totalC+cOff)*hw:]
					copy(part.Data.Data[bi*cw*hw:(bi+1)*cw*hw], src[:cw*hw])
				}
			}
			parts[pi] = part
			cOff += cw
		}
		ctx.launch(elementwiseSpec("concat_bwd", dy.Elems(), 8))
	})

	out := &Value{Shape: l.lastX.Shape.Clone()}
	if dy.Real() {
		out.Data = tensor.New(out.Shape...)
	}
	for pi, path := range l.Paths {
		g := parts[pi]
		for i := len(path) - 1; i >= 0; i-- {
			g = path[i].Backward(ctx, g)
		}
		if g.Real() {
			out.Data.AddScaled(g.Data, 1)
		}
	}
	return out
}

// Params collects parameters from every path.
func (l *Branch) Params() []*Param {
	var ps []*Param
	for _, path := range l.Paths {
		for _, layer := range path {
			ps = append(ps, layer.Params()...)
		}
	}
	return ps
}
