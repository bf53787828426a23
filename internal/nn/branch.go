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
	name  string
	Paths [][]Layer
	lastX *Value
	fwd   held   // concatenated forward output
	bwd   held   // input gradient: the paths' input gradients summed
	grads []held // per-path slices of the last Backward's dy

	params []*Param // what Params last returned

	// parts holds each path's output after a Forward and its slice of
	// dy (in grads) after a Backward: the path's channel width either
	// way.
	parts []*Value
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
	l.parts = holdSlice(&l.parts, len(l.Paths))
	for pi, path := range l.Paths {
		v := x
		for _, layer := range path {
			v = layer.Forward(ctx, v)
		}
		l.parts[pi] = v
	}
	first, c := l.parts[0].Shape, 0
	for pi, v := range l.parts {
		if len(v.Shape) != 4 || v.Shape[0] != first[0] || v.Shape[2] != first[2] || v.Shape[3] != first[3] {
			panic(fmt.Sprintf("nn: branch %s path %d output %v does not concatenate with %v", l.name, pi, v.Shape, first))
		}
		c += v.Shape[1]
	}
	out := l.fwd.at(tensor.Shape{first[0], c, first[2], first[3]}, x.Real())
	ctx.timed(KindConcat, func() {
		if x.Real() {
			l.concat(out.Data, false)
		}
		ctx.launch(elementwiseSpec("concat", out.Elems(), 8))
	})
	return out
}

// Backward splits the gradient and sums the paths' input gradients
// into the held dx, cleared first: 0 + g keeps the bits a fresh buffer
// gave, which copying the first path in would not for −0.
func (l *Branch) Backward(ctx *Context, dy *Value) *Value {
	n, h, w := dy.Shape[0], dy.Shape[2], dy.Shape[3]
	l.grads = holdSlice(&l.grads, len(l.Paths))
	ctx.timed(KindConcat, func() {
		for pi, p := range l.parts {
			l.parts[pi] = l.grads[pi].at(tensor.Shape{n, p.Shape[1], h, w}, dy.Real())
		}
		if dy.Real() {
			l.concat(dy.Data, true)
		}
		ctx.launch(elementwiseSpec("concat_bwd", dy.Elems(), 8))
	})
	dx := l.bwd.at(l.lastX.Shape, dy.Real())
	if dy.Real() {
		dx.Data.Zero()
	}
	for pi, path := range l.Paths {
		g := l.parts[pi]
		for i := len(path) - 1; i >= 0; i-- {
			g = path[i].Backward(ctx, g)
		}
		if g.Real() {
			dx.Data.AddScaled(g.Data, 1)
		}
	}
	return dx
}

// concat copies each image's channel slabs, path by path, between the
// concatenated tensor whole and the tensors of l.parts: into whole, or
// out of it when split.
func (l *Branch) concat(whole *tensor.Tensor, split bool) {
	j := concatPool.Get()
	j.whole, j.parts, j.split = whole.Data, l.parts, split
	j.n, j.hw = whole.Dim(0), whole.Dim(2)*whole.Dim(3)
	j.per, j.items = spread(j.n, len(j.whole)/j.n)
	par.ForEachRunner(j.items, j)
	j.whole, j.parts = nil, nil
	concatPool.Put(j)
}

// concatJob is one concatenation over runs of per images. Pooled so
// dispatch allocates nothing.
type concatJob struct {
	whole             []float32
	parts             []*Value
	split             bool
	n, hw, per, items int
}

var concatPool = par.NewJobPool[concatJob]()

// Run copies item i's images.
//
//hot:noalloc
func (j *concatJob) Run(i int) {
	for bi := i * j.per; bi < min((i+1)*j.per, j.n); bi++ {
		off := bi * (len(j.whole) / j.n)
		for _, p := range j.parts {
			size := p.Shape[1] * j.hw
			seg, part := j.whole[off:off+size], p.Data.Data[bi*size:(bi+1)*size]
			if j.split {
				copy(part, seg)
			} else {
				copy(seg, part)
			}
			off += size
		}
	}
}

// Params collects parameters from every path into a slice the branch
// holds; it is valid until the next call, and appending to it copies.
func (l *Branch) Params() []*Param {
	l.params = l.params[:0]
	for _, path := range l.Paths {
		for _, layer := range path {
			l.params = append(l.params, layer.Params()...)
		}
	}
	return l.params[:len(l.params):len(l.params)]
}
