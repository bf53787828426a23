package nn

import (
	"math"

	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
)

// LRN is cross-channel local response normalisation (the AlexNet /
// GoogLeNet variant): y_i = x_i / (k + α/n · Σ_{j∈window(i)} x_j²)^β.
type LRN struct {
	name  string
	N     int     // window size across channels
	Alpha float64 //
	Beta  float64
	K     float64

	lastX *Value
	out   *tensor.Tensor // held forward output
	scale []float32      // held (k + α/n Σ x²) per element of the last Forward
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
	n, c, h, w := checkRank4(x, "lrn "+l.name)
	l.lastX = x
	out := &Value{Shape: x.Shape.Clone()}
	ctx.timed(KindLRN, func() {
		if x.Real() {
			out.Data = hold(&l.out, out.Shape)
			scale := holdSlice(&l.scale, x.Elems())
			hw := h * w
			half := l.N / 2
			par.ForEach(n, func(bi int) {
				base := bi * c * hw
				for pos := 0; pos < hw; pos++ {
					for ci := 0; ci < c; ci++ {
						var energy float64
						lo, hi := ci-half, ci+half
						if lo < 0 {
							lo = 0
						}
						if hi >= c {
							hi = c - 1
						}
						for j := lo; j <= hi; j++ {
							v := float64(x.Data.Data[base+j*hw+pos])
							energy += v * v
						}
						s := l.K + l.Alpha/float64(l.N)*energy
						idx := base + ci*hw + pos
						scale[idx] = float32(s)
						out.Data.Data[idx] = x.Data.Data[idx] / float32(math.Pow(s, l.Beta))
					}
				}
			})
		}
		// Each output reads an N-deep channel window.
		ctx.launch(elementwiseSpec("lrn_fwd", x.Elems(), float64(4*(l.N+2))))
	})
	return out
}

// Backward applies the LRN gradient:
// dx_i = dy_i·s_i^{-β} − (2αβ/n)·x_i·Σ_{j∋i} dy_j·x_j·s_j^{-β-1}.
func (l *LRN) Backward(ctx *Context, dy *Value) *Value {
	n, c, h, w := checkRank4(l.lastX, "lrn "+l.name)
	out := &Value{Shape: dy.Shape.Clone()}
	ctx.timed(KindLRN, func() {
		if dy.Real() && l.lastX.Real() {
			out.Data = tensor.New(out.Shape...)
			hw := h * w
			half := l.N / 2
			ratio := 2 * l.Alpha * l.Beta / float64(l.N)
			x := l.lastX.Data.Data
			par.ForEach(n, func(bi int) {
				base := bi * c * hw
				for pos := 0; pos < hw; pos++ {
					// Precompute g_j = dy_j · x_j · s_j^{-β-1} per channel.
					g := make([]float64, c)
					for j := 0; j < c; j++ {
						idx := base + j*hw + pos
						s := float64(l.scale[idx])
						g[j] = float64(dy.Data.Data[idx]) * float64(x[idx]) * math.Pow(s, -l.Beta-1)
					}
					for ci := 0; ci < c; ci++ {
						idx := base + ci*hw + pos
						s := float64(l.scale[idx])
						acc := float64(dy.Data.Data[idx]) * math.Pow(s, -l.Beta)
						lo, hi := ci-half, ci+half
						if lo < 0 {
							lo = 0
						}
						if hi >= c {
							hi = c - 1
						}
						var sum float64
						for j := lo; j <= hi; j++ {
							sum += g[j]
						}
						acc -= ratio * float64(x[idx]) * sum
						out.Data.Data[idx] = float32(acc)
					}
				}
			})
		}
		ctx.launch(elementwiseSpec("lrn_bwd", dy.Elems(), float64(4*(l.N+4))))
	})
	return out
}

// Params returns nil; LRN has no parameters.
func (l *LRN) Params() []*Param { return nil }
