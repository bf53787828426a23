package im2col

import (
	"fmt"

	"gpucnn/internal/par"
)

// PanelPacker generates packed GEMM micro-panels of the lowered column
// matrix straight from the image, so the unrolling convolution engines
// never materialise col at all — the fusion cuConv (PAPERS.md) applies
// on the GPU, here applied to the packed kernel's B-side data staging.
// It implements gemm.BPacker structurally (PackPanelB) in two
// orientations:
//
//   - Reset: op(B) = col, the (C·KH·KW)×(OutH·OutW) lowered matrix.
//     This is the forward GEMM y = W·col.
//   - ResetTransposed: op(B) = colᵀ, (OutH·OutW)×(C·KH·KW). This turns
//     the backward-filter NT GEMM dw = dy·colᵀ into a plain NN GEMM
//     with a virtual right operand.
//
// A PanelPacker is stateless between panels, so one instance may serve
// concurrent PackPanelB calls on disjoint panels (the parallel packed
// kernel does exactly that). Instances are pooled via GetPacker /
// PutPacker for allocation-free steady state.
type PanelPacker struct {
	g     Geom
	img   []float32
	trans bool
	ow    int // OutW, cached for the column→(oy,ox) unflattening
	khkw  int // KH·KW, cached for the row→(c,kh,kw) unflattening
}

var packerPool = par.NewJobPool[PanelPacker]()

// GetPacker returns a pooled PanelPacker; Reset/ResetTransposed must be
// called before use.
func GetPacker() *PanelPacker { return packerPool.Get() }

// PutPacker releases the image reference and returns the packer to the
// pool.
func PutPacker(p *PanelPacker) {
	p.img = nil
	packerPool.Put(p)
}

// Reset points the packer at one image (C×H×W row-major) in the
// forward orientation: op(B) = col.
func (p *PanelPacker) Reset(g Geom, img []float32) {
	if len(img) < g.C*g.H*g.W {
		panic(fmt.Sprintf("im2col: image too small for %+v", g))
	}
	p.g, p.img, p.trans = g, img, false
	p.ow, p.khkw = g.OutW(), g.KH*g.KW
}

// ResetTransposed points the packer at one image in the transposed
// orientation: op(B) = colᵀ.
func (p *PanelPacker) ResetTransposed(g Geom, img []float32) {
	p.Reset(g, img)
	p.trans = true
}

// PackPanelB writes the kc×nv block of op(B) at (p0, j0) into dst as a
// p-major panel with row stride ldp: dst[p*ldp+c] = op(B)[p0+p][j0+c].
// Out-of-image taps (padding) are written as zeros; only the nv valid
// columns of each row are touched. This is the gemm.BPacker contract.
//
//hot:noalloc
func (p *PanelPacker) PackPanelB(dst []float32, ldp, p0, kc, j0, nv int) {
	if p.trans {
		p.packTransposed(dst, ldp, p0, kc, j0, nv)
		return
	}
	p.packForward(dst, ldp, p0, kc, j0, nv)
}

// packForward: panel rows are lowered-matrix rows (one (c, kh, kw) tap
// each), panel columns are consecutive output positions. The output
// position advances incrementally — one add and a wrap test per element
// instead of a div/mod — and the input row index only recomputes on an
// output-row wrap.
//
//hot:noalloc
func (p *PanelPacker) packForward(dst []float32, ldp, p0, kc, j0, nv int) {
	g := p.g
	for pi := 0; pi < kc; pi++ {
		r := p0 + pi
		ch := r / p.khkw
		rem := r % p.khkw
		kh := rem / g.KW
		kw := rem % g.KW
		base := ch * g.H * g.W
		d := dst[pi*ldp : pi*ldp+nv]
		oy := j0 / p.ow
		ox := j0 % p.ow
		iy := oy*g.StrideH + kh - g.PadH
		for c := range d {
			var v float32
			if iy >= 0 && iy < g.H {
				ix := ox*g.StrideW + kw - g.PadW
				if ix >= 0 && ix < g.W {
					v = p.img[base+iy*g.W+ix]
				}
			}
			d[c] = v
			ox++
			if ox == p.ow {
				ox = 0
				oy++
				iy = oy*g.StrideH + kh - g.PadH
			}
		}
	}
}

// packTransposed: panel rows are output positions, panel columns are
// lowered-matrix rows. Each (c, kh, kw) tap is decomposed once and its
// column of the panel filled with an ldp-strided walk over the kc
// output positions.
//
//hot:noalloc
func (p *PanelPacker) packTransposed(dst []float32, ldp, p0, kc, j0, nv int) {
	g := p.g
	for c := 0; c < nv; c++ {
		r := j0 + c
		ch := r / p.khkw
		rem := r % p.khkw
		kh := rem / g.KW
		kw := rem % g.KW
		base := ch * g.H * g.W
		oy := p0 / p.ow
		ox := p0 % p.ow
		iy := oy*g.StrideH + kh - g.PadH
		di := c
		for pi := 0; pi < kc; pi++ {
			var v float32
			if iy >= 0 && iy < g.H {
				ix := ox*g.StrideW + kw - g.PadW
				if ix >= 0 && ix < g.W {
					v = p.img[base+iy*g.W+ix]
				}
			}
			dst[di] = v
			di += ldp
			ox++
			if ox == p.ow {
				ox = 0
				oy++
				iy = oy*g.StrideH + kh - g.PadH
			}
		}
	}
}
