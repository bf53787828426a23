package nn

import (
	"math"
	"runtime"

	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
)

// LRN is cross-channel local response normalisation (the AlexNet /
// GoogLeNet variant): y_i = x_i / (k + α/n · Σ_{j∈window(i)} x_j²)^β.
//
// Both passes loop channel-outer over contiguous planes, with each
// image's spatial range split into one piece per core, so batch 1 runs
// on every core and every inner loop has unit stride. The channel
// window is re-summed per channel in float32 (at most N terms), and
// s^-β is taken by lrnPow.
type LRN struct {
	name  string
	N     int     // window size across channels
	Alpha float64 //
	Beta  float64
	K     float64

	lastX *Value
	fwd   held      // forward output
	scale []float32 // held (k + α/n Σ x²) per element of the last Forward
	bwd   held      // input gradient
	g     []float32 // backward scratch: dy·x·s^(-β-1) per element
}

// NewLRN builds an LRN layer with AlexNet's default parameters when
// alpha/beta/k are zero.
func NewLRN(name string, n int, alpha, beta, k float64) *LRN {
	if alpha == 0 {
		alpha = 1e-4
	}
	if beta == 0 {
		beta = 0.75
	}
	if k == 0 {
		k = 2
	}
	return &LRN{name: name, N: n, Alpha: alpha, Beta: beta, K: k}
}

// Name returns the layer name.
func (l *LRN) Name() string { return l.name }

// Kind returns KindLRN.
func (l *LRN) Kind() Kind { return KindLRN }

// OutShape is the identity.
func (l *LRN) OutShape(in tensor.Shape) tensor.Shape { return in.Clone() }

// Forward normalises each element by its cross-channel energy window.
func (l *LRN) Forward(ctx *Context, x *Value) *Value {
	n, c, h, w := checkRank4(x, "lrn", l.name)
	l.lastX = x
	out := l.fwd.at(x.Shape, x.Real())
	ctx.timed(KindLRN, func() {
		if x.Real() {
			j := lrnFwdPool.Get()
			j.lrnSplit = l.split(n, c, h*w)
			j.x, j.y = x.Data.Data, out.Data.Data
			j.scale = holdSlice(&l.scale, x.Elems())
			par.ForEachRunner(j.items(), j)
			j.x, j.y, j.scale = nil, nil, nil
			lrnFwdPool.Put(j)
		}
		// Each output reads an N-deep channel window.
		ctx.launch(elementwiseSpec("lrn_fwd", x.Elems(), float64(4*(l.N+2))))
	})
	return out
}

// Backward applies the LRN gradient:
// dx_i = dy_i·s_i^{-β} − (2αβ/n)·x_i·Σ_{j∋i} dy_j·x_j·s_j^{-β-1}.
// It reads the scale the last Forward held.
func (l *LRN) Backward(ctx *Context, dy *Value) *Value {
	n, c, h, w := checkRank4(l.lastX, "lrn", l.name)
	data := dy.Real() && l.lastX.Real()
	out := l.bwd.at(dy.Shape, data)
	ctx.timed(KindLRN, func() {
		if data {
			j := lrnBwdPool.Get()
			j.lrnSplit = l.split(n, c, h*w)
			j.x, j.dy, j.dx = l.lastX.Data.Data, dy.Data.Data, out.Data.Data
			j.scale, j.g = l.scale, holdSlice(&l.g, dy.Elems())
			j.ratio = float32(2 * l.Alpha * l.Beta / float64(l.N))
			par.ForEachRunner(j.items(), j)
			j.x, j.dy, j.dx, j.scale, j.g = nil, nil, nil, nil, nil
			lrnBwdPool.Put(j)
		}
		ctx.launch(elementwiseSpec("lrn_bwd", dy.Elems(), float64(4*(l.N+4))))
	})
	return out
}

// Params returns nil; LRN has no parameters.
func (l *LRN) Params() []*Param { return nil }

// split lays out one pass over an n×c×hw batch: each image's spatial
// range is cut into one piece per core, and an item is one piece of one
// image across all its channels.
func (l *LRN) split(n, c, hw int) lrnSplit {
	pieces := max(min(runtime.GOMAXPROCS(0), hw), 1)
	per := max((hw+pieces-1)/pieces, 1)
	return lrnSplit{
		n: n, c: c, hw: hw, per: per, pieces: (hw + per - 1) / per,
		half:   l.N / 2,
		k:      float32(l.K),
		alphaN: float32(l.Alpha / float64(l.N)),
		pow:    newLRNPow(l.Beta),
	}
}

// lrnSplit is the item layout and the constants both LRN passes share.
type lrnSplit struct {
	n, c, hw    int
	per, pieces int // spatial piece width, pieces per image
	half        int // window half-width
	k, alphaN   float32
	pow         lrnPow
}

func (s *lrnSplit) items() int { return s.n * s.pieces }

// item returns the offset of item i's image and its spatial range.
func (s *lrnSplit) item(i int) (base, p0, p1 int) {
	p0 = i % s.pieces * s.per
	return i / s.pieces * s.c * s.hw, p0, min(p0+s.per, s.hw)
}

// window returns the channel range [lo, hi] the window at ci covers.
func (s *lrnSplit) window(ci int) (lo, hi int) {
	return max(ci-s.half, 0), min(ci+s.half, s.c-1)
}

// lrnFwdJob is one LRN forward; pooled so dispatch allocates nothing.
type lrnFwdJob struct {
	lrnSplit
	x, y, scale []float32
}

var lrnFwdPool = par.NewJobPool[lrnFwdJob]()

// Run normalises item i: per channel, the window's squares summed into
// scale, then scale and the output in one pass.
//
//hot:noalloc
func (j *lrnFwdJob) Run(i int) {
	base, p0, p1 := j.item(i)
	for ci := 0; ci < j.c; ci++ {
		off := base + ci*j.hw
		s := j.scale[off+p0 : off+p1]
		lo, hi := j.window(ci)
		for p, v := range j.x[base+lo*j.hw+p0 : base+lo*j.hw+p1] {
			s[p] = v * v
		}
		for ch := lo + 1; ch <= hi; ch++ {
			xs := j.x[base+ch*j.hw+p0 : base+ch*j.hw+p1]
			for p, v := range xs[:len(s)] {
				s[p] += v * v
			}
		}
		xs, ys := j.x[off+p0:off+p1], j.y[off+p0:off+p1]
		xs, ys = xs[:len(s)], ys[:len(s)]
		for p, e := range s {
			sv := j.k + j.alphaN*e
			s[p] = sv
			ys[p] = xs[p] * j.pow.of(sv)
		}
	}
}

// lrnBwdJob is one LRN backward; pooled like lrnFwdJob.
type lrnBwdJob struct {
	lrnSplit
	ratio               float32 // 2αβ/n
	x, dy, dx, scale, g []float32
}

var lrnBwdPool = par.NewJobPool[lrnBwdJob]()

// Run differentiates item i in two channel-outer passes: the first
// writes dy·s^-β into dx and dy·x·s^(-β-1) into g, the second subtracts
// (2αβ/n)·x·g from dx for each plane of g in the channel's window.
//
//hot:noalloc
func (j *lrnBwdJob) Run(i int) {
	base, p0, p1 := j.item(i)
	for ci := 0; ci < j.c; ci++ {
		off := base + ci*j.hw
		s, xs, dys := j.scale[off+p0:off+p1], j.x[off+p0:off+p1], j.dy[off+p0:off+p1]
		dxs, gs := j.dx[off+p0:off+p1], j.g[off+p0:off+p1]
		xs, dys, dxs, gs = xs[:len(s)], dys[:len(s)], dxs[:len(s)], gs[:len(s)]
		for p, sv := range s {
			d := dys[p] * j.pow.of(sv)
			dxs[p] = d
			gs[p] = d * xs[p] / sv
		}
	}
	for ci := 0; ci < j.c; ci++ {
		off := base + ci*j.hw
		xs, dxs := j.x[off+p0:off+p1], j.dx[off+p0:off+p1]
		xs = xs[:len(dxs)]
		lo, hi := j.window(ci)
		for ch := lo; ch <= hi; ch++ {
			gs := j.g[base+ch*j.hw+p0 : base+ch*j.hw+p1]
			for p, gv := range gs[:len(dxs)] {
				dxs[p] -= j.ratio * xs[p] * gv
			}
		}
	}
}

// lrnPow raises an LRN scale s (positive: s ≥ k > 0) to −β.
// β = 0.75, every model's value, is 1/(√s·√√s) in float32; other β
// go through math.Pow.
type lrnPow struct {
	beta          float64
	threeQuarters bool
}

func newLRNPow(beta float64) lrnPow {
	return lrnPow{beta: beta, threeQuarters: beta == 0.75}
}

//hot:noalloc
func (p lrnPow) of(s float32) float32 {
	if p.threeQuarters {
		r := float32(math.Sqrt(float64(s)))
		return 1 / (r * float32(math.Sqrt(float64(r))))
	}
	return float32(math.Pow(float64(s), -p.beta))
}
