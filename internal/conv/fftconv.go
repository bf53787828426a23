package conv

import (
	"fmt"
	"runtime"

	"gpucnn/internal/fft"
	"gpucnn/internal/gemm"
	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// FFTPlanSize returns the per-axis transform size used by the FFT
// strategy for a config: the padded input extent rounded up to a power
// of two. This rounding is what produces the step-function memory
// profile of fbfft in the paper's Figure 5.
func FFTPlanSize(cfg Config) int {
	return fft.NextPow2(cfg.Input + 2*cfg.Pad)
}

func fftCheckStride(cfg Config) {
	if cfg.Stride != 1 {
		panic(fmt.Sprintf("conv: FFT strategy requires stride 1, got %d (config %v)", cfg.Stride, cfg))
	}
}

// forwardPlane transforms one side×side real plane, zero-padded by pad
// on every side, into grid. buf holds the padded plane; only its
// interior is written, so a zeroed buf keeps its border across calls.
func forwardPlane(plan *fft.Plan2D, plane []float32, side, pad int, buf []float32, grid, scratch []complex64) {
	if pad > 0 {
		ip := side + 2*pad
		for r := 0; r < side; r++ {
			copy(buf[(r+pad)*ip+pad:][:side], plane[r*side:][:side])
		}
		plane, side = buf, ip
	}
	plan.ForwardHalf(plane[:side*side], side, side, grid, scratch)
}

// padLen is the padded-plane buffer a slot needs for side×side planes.
func padLen(side, pad int) int {
	if pad == 0 {
		return 0
	}
	return (side + 2*pad) * (side + 2*pad)
}

// Every pass runs in fbfft's layout: the channel (or filter, or batch)
// reduction becomes one complex matrix product per frequency bin ξ of
// the half spectrum. For the forward pass, with B images, C channels
// and F filters,
//
//	X[ξ] (B×C), W[ξ] (F×C)   spectra of the input and filter planes
//	Y[ξ] (B×F) = X[ξ]·conj(W[ξ])ᵀ
//
// backward-data computes dX[ξ] = dY[ξ]·W[ξ], and backward-filter
// dW[ξ] = dY[ξ]ᴴ·X[ξ], summed over the batch by the product's inner
// dimension. A pass runs in three phases, each a pooled job:
//
//  1. fftPlaneJob transforms every plane of both operands, one item per
//     fftChunk planes.
//  2. fftGEMMJob multiplies, one item per block of fftBins bins: for
//     each bin it builds the two operands' real matrices in its slot
//     and runs one real gemm.Blocked product there, then stores the
//     block's products. Workers carve their packing panels from
//     levelled child arenas.
//  3. fftPlaneJob inverse-transforms every output plane, one item per
//     fftChunk planes.
//
// Between the phases, spectra are stored bin-block-major: for a set of
// P planes, bin ξ = β·fftBins + t of plane p sits at β·blockLen(P) +
// p·fftBins + t. A plane's bins of one block fill whole cache lines, so
// a transform writes (and an inverse reads) lines that no other plane
// touches, and a block's bins of every plane are one contiguous run
// that the multiply phase reads, and writes, front to back.
//
// A complex product P = A·B becomes one real product by the block-real
// embedding of the smaller operand:
//
//	[Pr]   [Ar  −Ai] [Br]
//	[Pi] = [Ai   Ar]·[Bi]
//
// The expanded left matrix is 2m×2k, the right one 2k×n and the product
// 2m×n, all row-major. The operand with fewer rows is expanded (the
// whole product is transposed when A has more rows than B has columns),
// which keeps the real GEMM's n, the micro-kernel's column extent, at
// the larger of the two. At conv2's and conv3's per-bin shapes this ran
// at 21–26 GFLOPS on one core of a 2-core Xeon, against 16–21 for
// expanding the right operand and 10–20 for 4M or 3M (four or three
// separate real products).
const (
	fftBins  = 16
	fftChunk = 16
)

// blocks is the number of bin blocks of a grid of nb bins.
func blocks(nb int) int { return (nb + fftBins - 1) / fftBins }

// blockLen is the distance between consecutive bin blocks of a set of
// planes: one run of fftBins bins per plane, rounded up to an odd
// number of runs. The plane counts of CIFARNet's layers are powers of
// two, and at a power-of-two stride a plane's runs would all fall in
// the same few cache sets.
func blockLen(planes int) int { return (planes | 1) * fftBins }

// planeMat is a complex matrix over the planes of a tensor: element
// (r, c) is the half spectrum of plane r·rs + c·cs of data, a side×side
// plane placed at (off, off) of the n×n grid, conjugated when conj is
// set. spec holds the spectra of all rows·cols planes bin-block-major.
type planeMat struct {
	data       []float32
	rows, cols int
	rs, cs     int
	side, off  int
	conj       bool
	spec       []complex64
}

// specLen is the length of the spectra of s over nb bins.
func (s *planeMat) specLen(nb int) int { return blocks(nb) * blockLen(s.rows*s.cols) }

// t returns the transposed matrix.
func (s planeMat) t() planeMat {
	s.rows, s.cols, s.rs, s.cs = s.cols, s.rows, s.cs, s.rs
	return s
}

// imSign is the factor on the stored imaginary parts.
func (s *planeMat) imSign() float32 {
	if s.conj {
		return -1
	}
	return 1
}

// fftPlaneJob transforms the planes of m, one item per fftChunk
// consecutive planes: forward, from m.data into the slot's grids and
// then into m.spec; with inverse set, out of m.spec into the slot's
// grids and back into m.data. A chunk's runs of one bin block are
// adjacent in m.spec, so each block moves as one contiguous stretch.
// The slot's grids sit whole blocks apart, so every move is a whole
// run; the bins past nb it carries are never read. Pooled for
// allocation-free dispatch.
type fftPlaneJob struct {
	par.Span
	plan    *fft.Plan2D
	m       planeMat
	inverse bool
	pads    []float32
	scratch []complex64
}

//hot:noalloc
func (j *fftPlaneJob) Run(slot int) {
	nb, n, m := j.plan.Bins(), j.plan.N(), &j.m
	planes, plane := m.rows*m.cols, m.side*m.side
	gl := blocks(nb) * fftBins
	bl, own := blockLen(planes), fftChunk*gl+n
	grids := j.scratch[slot*own : slot*own+fftChunk*gl]
	scratch := j.scratch[slot*own+fftChunk*gl : (slot+1)*own]
	var buf []float32
	if !j.inverse {
		pl := padLen(m.side, m.off)
		buf = j.pads[slot*pl : (slot+1)*pl]
	}
	for it, ok := j.Claim(); ok; it, ok = j.Claim() {
		p0 := it * fftChunk
		pn := min(fftChunk, planes-p0)
		if j.inverse {
			moveBins(grids, m.spec, gl, bl, p0, pn, true)
			for q := 0; q < pn; q++ {
				j.plan.InverseHalf(grids[q*gl:q*gl+nb], m.data[(p0+q)*plane:(p0+q+1)*plane],
					m.side, m.side, m.off, m.off, scratch)
			}
			continue
		}
		for q := 0; q < pn; q++ {
			forwardPlane(j.plan, m.data[(p0+q)*plane:(p0+q+1)*plane], m.side, m.off, buf, grids[q*gl:q*gl+nb], scratch)
		}
		moveBins(grids, m.spec, gl, bl, p0, pn, false)
	}
}

// moveBins copies pn grids, gl bins apart in grids, into planes
// p0..p0+pn of the bin-block-major spectra spec, whose blocks are bl
// apart, or, with back set, from spec into grids.
func moveBins(grids, spec []complex64, gl, bl, p0, pn int, back bool) {
	for x0 := 0; x0 < gl; x0 += fftBins {
		run := spec[x0/fftBins*bl+p0*fftBins:]
		for q := 0; q < pn; q++ {
			g := (*[fftBins]complex64)(grids[q*gl+x0:])
			r := (*[fftBins]complex64)(run[q*fftBins:])
			if back {
				*g = *r
			} else {
				*r = *g
			}
		}
	}
}

var fftPlanePool = par.NewJobPool[fftPlaneJob]()

// transformPlanes runs fftPlaneJob over the planes of m. scratch holds
// fftChunk grids of whole blocks and one FFT row per proc; pads, which is zeroed, holds
// one padded plane per proc for a forward transform with m.off > 0.
func transformPlanes(plan *fft.Plan2D, m planeMat, inverse bool, scratch []complex64, pads []float32) {
	j := fftPlanePool.Get()
	j.Reset((m.rows*m.cols + fftChunk - 1) / fftChunk)
	j.plan, j.m, j.inverse = plan, m, inverse
	j.scratch, j.pads = scratch, pads
	par.ForEachSlot(&j.Span, j)
	j.m, j.pads, j.scratch = planeMat{}, nil, nil
	fftPlanePool.Put(j)
}

// expandBin writes bin t of the block spectra blk of the m×k matrix a
// into dst as the 2m×2k real embedding [[Ar, −Ai], [Ai, Ar]].
func expandBin(dst []float32, a *planeMat, blk []complex64, t int) {
	m, k, sgn := a.rows, a.cols, a.imSign()
	for r := 0; r < m; r++ {
		top := dst[r*2*k : (r+1)*2*k]
		bot := dst[(m+r)*2*k : (m+r+1)*2*k]
		at := r*a.rs*fftBins + t
		for c := 0; c < k; c++ {
			v := blk[at]
			re, im := real(v), sgn*imag(v)
			top[c], top[k+c] = re, -im
			bot[c], bot[k+c] = im, re
			at += a.cs * fftBins
		}
	}
}

// stackBin writes bin t of the block spectra blk of the k×n matrix b
// into dst as the 2k×n real matrix [Br; Bi].
func stackBin(dst []float32, b *planeMat, blk []complex64, t int) {
	k, n, sgn := b.rows, b.cols, b.imSign()
	for r := 0; r < k; r++ {
		top := dst[r*n : (r+1)*n]
		bot := dst[(k+r)*n : (k+r+1)*n]
		at := r*b.rs*fftBins + t
		for c := range top {
			v := blk[at]
			top[c], bot[c] = real(v), sgn*imag(v)
			at += b.cs * fftBins
		}
	}
}

// unstackBins writes the tn real products src[t·2mn:] = [Pr; Pi] of
// bins t = 0..tn-1 into the block spectra blk of the m×n matrix p. It
// walks the planes in their spectra's order and writes each plane's
// run of bins whole, so the block is written front to back.
func unstackBins(blk []complex64, p *planeMat, src []float32, tn int) {
	m, n := p.rows, p.cols
	for r := 0; r < m; r++ {
		for c := 0; c < n; c++ {
			run := blk[(r*p.rs+c*p.cs)*fftBins:][:tn:tn]
			re, im := r*n+c, (m+r)*n+c
			for t := range run {
				run[t] = complex(src[re], src[im])
				re, im = re+2*m*n, im+2*m*n
			}
		}
	}
}

// fftGEMMJob runs the per-bin products p = a·b of an m×k and a k×n
// matrix, one item per block of fftBins bins. A worker builds each
// bin's real operands and product in its slot's share of bufs and
// carves its GEMM's packing panels from its slot's child arena.
type fftGEMMJob struct {
	par.Span
	nb      int
	a, b, p planeMat
	bufs    []float32
	kids    []*workspace.Arena
}

//hot:noalloc
func (j *fftGEMMJob) Run(slot int) {
	ws := j.kids[slot]
	m, k, n := j.a.rows, j.a.cols, j.b.cols
	ls, rs, ps := 4*m*k, 2*k*n, 2*m*n
	per := ls + rs + fftBins*ps
	buf := j.bufs[slot*per : (slot+1)*per]
	lhs, rhs, prods := buf[:ls], buf[ls:ls+rs], buf[ls+rs:]
	as, bs, psz := blockLen(m*k), blockLen(k*n), blockLen(m*n)
	for blk, ok := j.Claim(); ok; blk, ok = j.Claim() {
		ablk, bblk := j.a.spec[blk*as:(blk+1)*as], j.b.spec[blk*bs:(blk+1)*bs]
		tn := min(fftBins, j.nb-blk*fftBins)
		for t := 0; t < tn; t++ {
			expandBin(lhs, &j.a, ablk, t)
			stackBin(rhs, &j.b, bblk, t)
			ws.Reset()
			gemm.Blocked(ws, 1, lhs, rhs, 0, prods[t*ps:(t+1)*ps], 2*m, n, 2*k)
		}
		unstackBins(j.p.spec[blk*psz:(blk+1)*psz], &j.p, prods, tn)
	}
}

var fftGEMMPool = par.NewJobPool[fftGEMMJob]()

// fftProduct computes the planes of p = a·b per bin in the three phases
// above. It carves from ws, which the pass has just reset, once per
// slab: the three spectra and every proc's transform scratch in one
// complex carve, the padded planes and the GEMM phase's buffers in one
// real carve. A pass on a fresh arena then grows each slab once, to
// exactly its footprint, and leaves no outgrown slab behind. The GEMM
// workers carve their packing panels from ws's children.
func fftProduct(ws *workspace.Arena, plan *fft.Plan2D, a, b, p planeMat) {
	nb, procs := plan.Bins(), runtime.GOMAXPROCS(0)
	mats := [...]*planeMat{&a, &b, &p}
	specs := 0
	for _, s := range mats {
		specs += s.specLen(nb)
	}
	// The spectra come first, so each starts on a line, and every
	// plane's run of fftBins bins fills whole lines of its own.
	c64 := ws.Complex64Uninit(specs + procs*(fftChunk*blocks(nb)*fftBins+plan.N()))
	for _, s := range mats {
		s.spec, c64 = c64[:s.specLen(nb)], c64[s.specLen(nb):]
	}
	pa, pb := procs*padLen(a.side, a.off), procs*padLen(b.side, b.off)
	// The multiply phase expands the operand with fewer rows: b when a
	// has more rows than b has columns, by computing pᵀ = bᵀ·aᵀ.
	ta, tb, tp := a, b, p
	if a.rows > b.cols {
		ta, tb, tp = b.t(), a.t(), p.t()
	}
	m, k, n := ta.rows, ta.cols, tb.cols
	f32 := ws.Float32Uninit(pa + pb + procs*(4*m*k+2*k*n+fftBins*2*m*n))
	clear(f32[:pa+pb])
	transformPlanes(plan, a, false, c64, f32[:pa])
	transformPlanes(plan, b, false, c64, f32[pa:pa+pb])

	j := fftGEMMPool.Get()
	j.Reset(blocks(nb))
	j.nb, j.a, j.b, j.p, j.bufs = nb, ta, tb, tp, f32[pa+pb:]
	j.kids = ws.Children(j.Slots())
	par.ForEachSlot(&j.Span, j)
	ws.Level()
	j.a, j.b, j.p, j.bufs, j.kids = planeMat{}, planeMat{}, planeMat{}, nil, nil
	fftGEMMPool.Put(j)

	transformPlanes(plan, p, true, c64, nil)
}

// FFTForward computes the convolution in the frequency domain: per bin,
// Y = X·conj(W)ᵀ (the correlation form), summing over channels, then
// the inverse transform cropped to the valid o×o region. Requires
// stride 1. Every matrix and per-worker buffer is carved from ws, which
// the pass resets.
func FFTForward(ws *workspace.Arena, cfg Config, x, w, y *tensor.Tensor) {
	fftCheckStride(cfg)
	checkShapes(cfg, x, w, y)
	b, c, f, o := cfg.Batch, cfg.Channels, cfg.Filters, cfg.Out()
	ws.Reset()
	fftProduct(ws, fft.Plan2DFor(FFTPlanSize(cfg)),
		planeMat{data: x.Data, rows: b, cols: c, rs: c, cs: 1, side: cfg.Input, off: cfg.Pad},
		planeMat{data: w.Data, rows: c, cols: f, rs: 1, cs: c, side: cfg.Kernel, conj: true},
		planeMat{data: y.Data, rows: b, cols: f, rs: f, cs: 1, side: o})
}

// FFTBackwardData computes dx in the frequency domain: per bin, dX =
// dY·W, the full (non-conjugated) product summed over filters, cropped
// at the padding offset. Requires stride 1.
func FFTBackwardData(ws *workspace.Arena, cfg Config, dy, w, dx *tensor.Tensor) {
	fftCheckStride(cfg)
	checkShapes(cfg, dx, w, dy)
	b, c, f := cfg.Batch, cfg.Channels, cfg.Filters
	ws.Reset()
	fftProduct(ws, fft.Plan2DFor(FFTPlanSize(cfg)),
		planeMat{data: dy.Data, rows: b, cols: f, rs: f, cs: 1, side: cfg.Out()},
		planeMat{data: w.Data, rows: f, cols: c, rs: c, cs: 1, side: cfg.Kernel},
		planeMat{data: dx.Data, rows: b, cols: c, rs: c, cs: 1, side: cfg.Input, off: cfg.Pad})
}

// FFTBackwardFilter computes dw in the frequency domain: per bin, dW =
// dYᴴ·X, so each (filter, channel) spectrum is Σ_batch X·conj(dY),
// inverse-transformed and cropped to k×k. Requires stride 1.
func FFTBackwardFilter(ws *workspace.Arena, cfg Config, x, dy, dw *tensor.Tensor) {
	fftCheckStride(cfg)
	checkShapes(cfg, x, dw, dy)
	b, c, f := cfg.Batch, cfg.Channels, cfg.Filters
	ws.Reset()
	fftProduct(ws, fft.Plan2DFor(FFTPlanSize(cfg)),
		planeMat{data: dy.Data, rows: f, cols: b, rs: 1, cs: f, side: cfg.Out(), conj: true},
		planeMat{data: x.Data, rows: b, cols: c, rs: c, cs: 1, side: cfg.Input, off: cfg.Pad},
		planeMat{data: dw.Data, rows: f, cols: c, rs: c, cs: 1, side: cfg.Kernel})
}
