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
// Both orientations lower by runs: for each (tap, output row) a panel
// touches, the in-image input columns form one interval, known from
// the tap's kernel column alone (Reset tabulates it per kernel row and
// column, for any stride). A packer clears its panel with one clear
// and copies those runs in, so no element is bounds-tested. Clearing
// the whole L1-resident panel costs less than clearing each run's
// padding head and tail, whose lengths vary from tap to tap.
//
// A PanelPacker is stateless between panels, so one instance may serve
// concurrent PackPanelB calls on disjoint panels (the parallel packed
// kernel does exactly that). Instances are pooled via GetPacker /
// PutPacker for allocation-free steady state.
type PanelPacker struct {
	g      Geom
	img    []float32
	trans  bool
	ow     int    // OutW, cached for the column→(oy,ox) unflattening
	ys, xs []span // valid output rows per kernel row, columns per kernel column
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
	p.ow = g.OutW()
	p.ys = p.ys[:0]
	for kh := 0; kh < g.KH; kh++ {
		p.ys = append(p.ys, validSpan(kh, g.PadH, g.StrideH, g.H, g.OutH()))
	}
	p.xs = p.xs[:0]
	for kw := 0; kw < g.KW; kw++ {
		p.xs = append(p.xs, validSpan(kw, g.PadW, g.StrideW, g.W, p.ow))
	}
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
// each), panel columns are the nv consecutive output positions from
// j0. The panel is cleared; then, for each output row those positions
// cross (usually one), every tap row gets its in-image run on that
// output row. Output rows go outermost so the per-row work is done
// once per panel, not once per tap.
//
//hot:noalloc
func (p *PanelPacker) packForward(dst []float32, ldp, p0, kc, j0, nv int) {
	clearPanel(dst, ldp, kc, nv)
	g := &p.g
	sw, rowStep := g.StrideW, g.StrideH*g.W
	t0 := p.tapAt(p0)
	for oy := j0 / p.ow; oy*p.ow < j0+nv; oy++ {
		at := oy*p.ow - j0                      // panel column of output position (oy, 0)
		c0, c1 := max(-at, 0), min(p.ow, nv-at) // this row's slice of the panel
		for pi, t := 0, t0; pi < kc; pi, t = pi+1, p.nextTap(t) {
			ys, xs := p.ys[t.kh], p.xs[t.kw]
			if oy < ys.lo || oy >= ys.hi {
				continue
			}
			if lo, hi := max(xs.lo, c0), min(xs.hi, c1); lo < hi {
				gatherRun(dst[pi*ldp+at+lo:], 1, p.img[p.origin(t)+oy*rowStep+lo*sw:], sw, hi-lo)
			}
		}
	}
}

// packTransposed: panel rows are the kc consecutive output positions
// from p0, panel columns are lowered-matrix rows. The panel is cleared,
// then column c gets tap j0+c's in-image run on each output row those
// positions cross, written with an ldp-strided walk.
//
//hot:noalloc
func (p *PanelPacker) packTransposed(dst []float32, ldp, p0, kc, j0, nv int) {
	clearPanel(dst, ldp, kc, nv)
	g := &p.g
	sw, rowStep := g.StrideW, g.StrideH*g.W
	oy0, oy1 := p0/p.ow, (p0+kc-1)/p.ow+1
	for c, t := 0, p.tapAt(j0); c < nv; c, t = c+1, p.nextTap(t) {
		ys, xs := p.ys[t.kh], p.xs[t.kw]
		org := p.origin(t)
		for oy := max(oy0, ys.lo); oy < min(oy1, ys.hi); oy++ {
			at := oy*p.ow - p0 // panel row of output position (oy, 0)
			if lo, hi := max(xs.lo, -at), min(xs.hi, kc-at); lo < hi {
				gatherRun(dst[(at+lo)*ldp+c:], ldp, p.img[org+oy*rowStep+lo*sw:], sw, hi-lo)
			}
		}
	}
}

// clearPanel zeroes the kc×nv block of a panel with row stride ldp,
// leaving the columns past nv untouched.
//
//hot:noalloc
func clearPanel(dst []float32, ldp, kc, nv int) {
	if nv == ldp {
		clear(dst[:kc*ldp])
		return
	}
	for p := 0; p < kc; p++ {
		clear(dst[p*ldp : p*ldp+nv])
	}
}

// tap is one lowered-matrix row: channel ch, kernel offsets (kh, kw).
type tap struct{ ch, kh, kw int }

// tapAt unflattens lowered-matrix row r; the packers then step taps
// with nextTap instead of dividing per row.
func (p *PanelPacker) tapAt(r int) tap {
	khkw := p.g.KH * p.g.KW
	rem := r % khkw
	return tap{r / khkw, rem / p.g.KW, rem % p.g.KW}
}

// origin is the img index of tap t at output position (0, 0). It may
// lie outside the image; the packers read only in-span positions.
func (p *PanelPacker) origin(t tap) int {
	return t.ch*p.g.H*p.g.W + (t.kh-p.g.PadH)*p.g.W + t.kw - p.g.PadW
}

// nextTap returns the lowered-matrix row after t.
func (p *PanelPacker) nextTap(t tap) tap {
	if t.kw++; t.kw == p.g.KW {
		t.kw = 0
		if t.kh++; t.kh == p.g.KH {
			t.kh = 0
			t.ch++
		}
	}
	return t
}

// gatherRun copies s[0], s[ss], …, s[(n−1)·ss] to d[0], d[ds], …,
// d[(n−1)·ds].
//
//hot:noalloc
func gatherRun(d []float32, ds int, s []float32, ss, n int) {
	if ss == 1 {
		if ds == 1 {
			copy(d[:n], s[:n])
			return
		}
		for i, v := range s[:n] {
			d[i*ds] = v
		}
		return
	}
	for i, j := 0, 0; i < n*ds; i, j = i+ds, j+ss {
		d[i] = s[j]
	}
}
