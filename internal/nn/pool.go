package nn

import (
	"fmt"
	"math"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
)

// PoolMode selects max or average pooling.
type PoolMode int

// Pooling modes.
const (
	MaxPool PoolMode = iota
	AvgPool
)

// Pool is a spatial pooling layer.
//
// Both passes run per (image, channel) plane on pooled Runners, with
// the planes spread over every core. Forward pools a plane's interior,
// the outputs whose windows lie wholly inside it, one window tap at a
// time: each tap is a strided pass over every interior row with no
// bounds tests and no data-dependent branch. A border row (padding, or
// Caffe's ceil-mode last partial window) does the same over the window
// rows inside the plane, and only the border columns walk a window
// clipped on both axes. Max pooling keeps a window's first element and
// its plane offset and replaces both by each later element, in
// row-major order, that is strictly greater, as conditional moves, so
// the held argmax is the first strict maximum; Backward clears the
// held gradient and adds each output's gradient there. Average
// Backward spreads each gradient over its clipped window, dividing by
// the valid count once per output.
type Pool struct {
	name   string
	Mode   PoolMode
	Window int
	Stride int
	Pad    int

	lastX  *Value
	fwd    held    // forward output
	argmax []int32 // held plane offset of each output's max (max mode); -1 for an empty window
	bwd    held    // input gradient
}

// NewMaxPool builds a max-pooling layer.
func NewMaxPool(name string, window, stride, pad int) *Pool {
	return &Pool{name: name, Mode: MaxPool, Window: window, Stride: stride, Pad: pad}
}

// NewAvgPool builds an average-pooling layer.
func NewAvgPool(name string, window, stride, pad int) *Pool {
	return &Pool{name: name, Mode: AvgPool, Window: window, Stride: stride, Pad: pad}
}

// Name returns the layer name.
func (l *Pool) Name() string { return l.name }

// Kind returns KindPool.
func (l *Pool) Kind() Kind { return KindPool }

func (l *Pool) outHW(h int) int {
	o := (h+2*l.Pad-l.Window)/l.Stride + 1
	// Caffe-style ceil pooling keeps the last partial window.
	if (o-1)*l.Stride+l.Window < h+2*l.Pad {
		o++
	}
	return o
}

// OutShape computes the pooled NCHW shape.
func (l *Pool) OutShape(in tensor.Shape) tensor.Shape {
	if len(in) != 4 {
		panic(fmt.Sprintf("nn: pool %s requires NCHW input, got %v", l.name, in))
	}
	return tensor.Shape{in[0], in[1], l.outHW(in[2]), l.outHW(in[3])}
}

func (l *Pool) spec(name string, elemsIn, elemsOut int) gpusim.KernelSpec {
	bytes := float64(elemsIn+elemsOut) * 4
	return gpusim.KernelSpec{
		Name:             name,
		Grid:             gpusim.Dim3{X: (elemsOut + 255) / 256},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    24,
		FLOPs:            float64(elemsOut) * float64(l.Window*l.Window),
		GlobalLoadBytes:  bytes * 0.7,
		GlobalStoreBytes: bytes * 0.3,
		LoadTransPerReq:  1.4,
		StoreTransPerReq: 1.1,
		L2HitFrac:        0.5,
		ActiveThreadFrac: 0.98,
		ILP:              2,
		EfficiencyScale:  0.85,
	}
}

// Forward pools each window.
func (l *Pool) Forward(ctx *Context, x *Value) *Value {
	n, c, h, w := checkRank4(x, "pool", l.name)
	l.lastX = x
	out := l.fwd.at(tensor.Shape{n, c, l.outHW(h), l.outHW(w)}, x.Real())
	ctx.timed(KindPool, func() {
		if x.Real() {
			j := poolFwdPool.Get()
			j.poolGeom = l.geom(n*c, h, w)
			j.x, j.y = x.Data.Data, out.Data.Data
			if !j.avg {
				j.arg = holdSlice(&l.argmax, out.Elems())
			}
			par.ForEachRunner(j.items, j)
			j.x, j.y, j.arg = nil, nil, nil
			poolFwdPool.Put(j)
		}
		ctx.launch(l.spec("pool_fwd", x.Elems(), out.Elems()))
	})
	return out
}

// Backward sends each output's gradient to its window's max position,
// as the last Forward held it (or spreads it evenly over the window for
// average pooling).
func (l *Pool) Backward(ctx *Context, dy *Value) *Value {
	n, c, h, w := checkRank4(l.lastX, "pool", l.name)
	data := dy.Real() && l.lastX.Real()
	out := l.bwd.at(l.lastX.Shape, data)
	ctx.timed(KindPool, func() {
		if data {
			j := poolBwdPool.Get()
			j.poolGeom = l.geom(n*c, h, w)
			j.arg, j.dy, j.dx = l.argmax, dy.Data.Data, out.Data.Data
			par.ForEachRunner(j.items, j)
			j.arg, j.dy, j.dx = nil, nil, nil
			poolBwdPool.Put(j)
		}
		ctx.launch(l.spec("pool_bwd", l.lastX.Elems(), dy.Elems()))
	})
	return out
}

// Params returns nil; pooling has no parameters.
func (l *Pool) Params() []*Param { return nil }

// geom lays out one pass over the given number of h×w planes.
func (l *Pool) geom(planes, h, w int) poolGeom {
	g := poolGeom{
		avg: l.Mode == AvgPool,
		k:   l.Window, s: l.Stride, p: l.Pad,
		h: h, w: w, oh: l.outHW(h), ow: l.outHW(w),
		planes: planes,
	}
	g.iy0, g.iy1 = g.interior(h, g.oh)
	g.ix0, g.ix1 = g.interior(w, g.ow)
	g.per, g.items = spread(planes, h*w)
	return g
}

// poolGeom is the plane layout both pooling passes share. An item is a
// run of per consecutive planes.
type poolGeom struct {
	avg          bool
	k, s, p      int // window, stride, padding
	h, w, oh, ow int // plane and output sizes
	iy0, iy1     int // interior output rows [iy0, iy1)
	ix0, ix1     int // interior output columns [ix0, ix1)
	planes       int
	per, items   int
}

// interior returns the outputs [lo, hi) along an axis of n inputs and
// o outputs whose windows lie wholly inside the axis: o·s − p ≥ 0 and
// o·s − p + k ≤ n.
func (g *poolGeom) interior(n, o int) (lo, hi int) {
	if n+g.p < g.k {
		return 0, 0
	}
	hi = min((n+g.p-g.k)/g.s+1, o)
	return min((g.p+g.s-1)/g.s, hi), hi
}

// planeRange returns item i's planes [p0, p1).
func (g *poolGeom) planeRange(i int) (p0, p1 int) {
	p0 = i * g.per
	return p0, min(p0+g.per, g.planes)
}

// span clips the window of output o along an axis of n inputs to the
// axis: its inputs are [lo, hi), empty when it lies wholly in the
// padding.
func (g *poolGeom) span(o, n int) (lo, hi int) {
	lo = o*g.s - g.p
	return max(lo, 0), max(min(lo+g.k, n), max(lo, 0))
}

// interiorRow returns the index of output row oy's first interior
// output and the plane offset of that output's window tap (0, 0).
func (g *poolGeom) interiorRow(oy int) (o, at int) {
	return oy*g.ow + g.ix0, (oy*g.s-g.p)*g.w + g.ix0*g.s - g.p
}

// next returns the window tap after (ky, kx) in row-major order.
func (g *poolGeom) next(ky, kx int) (int, int) {
	if kx++; kx == g.k {
		return ky + 1, 0
	}
	return ky, kx
}

// poolFwdJob is one pooling forward; pooled so dispatch allocates
// nothing.
type poolFwdJob struct {
	poolGeom
	x, y []float32
	arg  []int32 // max mode only
}

var poolFwdPool = par.NewJobPool[poolFwdJob]()

// Run pools item i's planes. The interior block, whose windows lie
// wholly inside the plane, goes one window tap at a time over all its
// rows; each border row does the same over the window rows inside the
// plane; then each border column output walks its window clipped on
// both axes.
//
//hot:noalloc
func (j *poolFwdJob) Run(i int) {
	p0, p1 := j.planeRange(i)
	hw, ohw := j.h*j.w, j.oh*j.ow
	var arg []int32
	for pl := p0; pl < p1; pl++ {
		x, y := j.x[pl*hw:(pl+1)*hw], j.y[pl*ohw:(pl+1)*ohw]
		if !j.avg {
			arg = j.arg[pl*ohw : (pl+1)*ohw]
		}
		j.block(x, y, arg, j.iy0, j.iy1, 0, j.k)
		for oy := 0; oy < j.oh; oy++ {
			r0, r1 := j.span(oy, j.h)
			if oy < j.iy0 || oy >= j.iy1 {
				top := oy*j.s - j.p
				j.block(x, y, arg, oy, oy+1, r0-top, r1-top)
			}
			for ox := 0; ox < j.ow; ox++ {
				if ox == j.ix0 {
					if ox = j.ix1; ox == j.ow {
						break
					}
				}
				c0, c1 := j.span(ox, j.w)
				o := oy*j.ow + ox
				if j.avg {
					y[o] = windowAvg(x, j.w, r0, r1, c0, c1)
				} else {
					y[o], arg[o] = windowMax(x, j.w, r0, r1, c0, c1)
				}
			}
		}
	}
}

// block pools the interior columns of output rows [oy0, oy1), whose
// windows all cover window rows [ky0, ky1): the whole window in the
// interior block, the rows inside the plane on a border row. Each tap
// is a strided pass over every row of the block, taps in row-major
// order: summed for average, folded two at a time into the running
// maxima and their plane offsets for max (the last tap twice when
// their count is odd, which changes nothing). Windows with no rows
// pool to 0 with argmax −1.
//
//hot:noalloc
func (j *poolFwdJob) block(x, y []float32, arg []int32, oy0, oy1, ky0, ky1 int) {
	s, n := j.s, j.ix1-j.ix0 // locals: the stores into y could alias j
	if n <= 0 || oy0 >= oy1 {
		return
	}
	switch {
	case ky0 >= ky1:
		for oy := oy0; oy < oy1; oy++ {
			o, _ := j.interiorRow(oy)
			clear(y[o : o+n])
			if !j.avg {
				for i := range arg[o : o+n] {
					arg[o+i] = -1
				}
			}
		}
	case j.avg:
		for oy := oy0; oy < oy1; oy++ {
			o, _ := j.interiorRow(oy)
			clear(y[o : o+n])
		}
		for ky := ky0; ky < ky1; ky++ {
			for kx := 0; kx < j.k; kx++ {
				for oy := oy0; oy < oy1; oy++ {
					o, at := j.interiorRow(oy)
					at += ky*j.w + kx
					d := y[o : o+n]
					for i := range d {
						d[i] += x[at+i*s]
					}
				}
			}
		}
		count := float32((ky1 - ky0) * j.k)
		for oy := oy0; oy < oy1; oy++ {
			o, _ := j.interiorRow(oy)
			d := y[o : o+n]
			for i := range d {
				d[i] /= count
			}
		}
	default:
		for oy := oy0; oy < oy1; oy++ {
			o, at := j.interiorRow(oy)
			at += ky0 * j.w
			d, a := y[o:o+n], arg[o:o+n]
			for i := range d {
				d[i], a[i] = x[at+i*s], int32(at+i*s)
			}
		}
		kya, kxa := j.next(ky0, 0)
		for kya < ky1 {
			kyb, kxb := j.next(kya, kxa)
			if kyb == ky1 {
				kyb, kxb = kya, kxa
			}
			for oy := oy0; oy < oy1; oy++ {
				o, at := j.interiorRow(oy)
				maxStrided(y[o:o+n], arg[o:o+n], x, at+kya*j.w+kxa, at+kyb*j.w+kxb, s)
			}
			kya, kxa = j.next(kyb, kxb)
		}
	}
}

// windowAvg averages the plane's rows [r0, r1) × columns [c0, c1) in
// row-major order; an empty window averages to 0.
//
//hot:noalloc
func windowAvg(x []float32, w, r0, r1, c0, c1 int) float32 {
	var acc float32
	for r := r0; r < r1; r++ {
		for _, v := range x[r*w+c0 : r*w+c1] {
			acc += v
		}
	}
	if n := (r1 - r0) * (c1 - c0); n > 0 {
		acc /= float32(n)
	}
	return acc
}

// windowMax returns the maximum of the plane's rows [r0, r1) × columns
// [c0, c1) and its plane offset: the first element, replaced by each
// later one in row-major order that is strictly greater. An empty
// window gives 0 at offset −1.
//
//hot:noalloc
func windowMax(x []float32, w, r0, r1, c0, c1 int) (float32, int32) {
	if r0 == r1 || c0 == c1 {
		return 0, -1
	}
	m, at := x[r0*w+c0], int32(r0*w+c0)
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			v := x[r*w+c]
			mb, vb := math.Float32bits(m), math.Float32bits(v)
			k := int32(r*w + c)
			if v > m {
				mb, at = vb, k
			}
			m = math.Float32frombits(mb)
		}
	}
	return m, at
}

// poolBwdJob is one pooling backward; pooled like poolFwdJob.
type poolBwdJob struct {
	poolGeom
	arg    []int32 // max mode only
	dy, dx []float32
}

var poolBwdPool = par.NewJobPool[poolBwdJob]()

// Run clears item i's planes of dx, then adds each output's gradient
// into them, outputs in row-major order: at its argmax (max), or
// spread over its clipped window (average).
//
//hot:noalloc
func (j *poolBwdJob) Run(i int) {
	p0, p1 := j.planeRange(i)
	hw, ohw := j.h*j.w, j.oh*j.ow
	for pl := p0; pl < p1; pl++ {
		dx, dy := j.dx[pl*hw:(pl+1)*hw], j.dy[pl*ohw:(pl+1)*ohw]
		clear(dx)
		if !j.avg {
			for o, a := range j.arg[pl*ohw : (pl+1)*ohw] {
				if a >= 0 {
					dx[a] += dy[o]
				}
			}
			continue
		}
		for oy := 0; oy < j.oh; oy++ {
			r0, r1 := j.span(oy, j.h)
			for ox, g := range dy[oy*j.ow : (oy+1)*j.ow] {
				c0, c1 := j.span(ox, j.w)
				if r0 == r1 || c0 == c1 {
					continue
				}
				share := g / float32((r1-r0)*(c1-c0))
				for r := r0; r < r1; r++ {
					row := dx[r*j.w+c0 : r*j.w+c1]
					for c := range row {
						row[c] += share
					}
				}
			}
		}
	}
}

// maxStrided folds the taps at plane offsets a then b into the running
// maxima d and their plane offsets arg: where a tap's x[a + o·s] (or
// x[b + o·s]) > d[o], both move to it, as conditional moves rather
// than a branch. A NaN never replaces, so a NaN first element stays.
//
//hot:noalloc
func maxStrided(d []float32, arg []int32, x []float32, a, b, s int) {
	arg = arg[:len(d)]
	for o, m := range d {
		ia, ib := a+o*s, b+o*s
		va, vb := x[ia], x[ib]
		best, ka, kb := arg[o], int32(ia), int32(ib)
		mb, vab, vbb := math.Float32bits(m), math.Float32bits(va), math.Float32bits(vb)
		if va > m {
			mb, best = vab, ka
		}
		m = math.Float32frombits(mb)
		if vb > m {
			mb, best = vbb, kb
		}
		d[o], arg[o] = math.Float32frombits(mb), best
	}
}
