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

// FFTPlanSize returns the per-axis transform size of the whole padded
// input: its extent rounded up to a power of two. This rounding is what
// produces the step-function memory profile of fbfft in the paper's
// Figure 5; FFTTiling picks the size the passes run on.
func FFTPlanSize(cfg Config) int {
	return fft.NextPow2(cfg.Input + 2*cfg.Pad)
}

func fftCheckStride(cfg Config) {
	if cfg.Stride != 1 {
		panic(fmt.Sprintf("conv: FFT strategy requires stride 1, got %d (config %v)", cfg.Stride, cfg))
	}
}

// FFTTiling returns fbfft's transform size n and overlap tiles per axis
// for a stride-1 config: of the whole padded input on FFTPlanSize and
// every smaller power of two past the kernel, cut into tiles that each
// yield n−k+1 outputs per axis, the one with the fewest half-spectrum
// bins in all. Large inputs just past a power of two tile (CIFARNet
// conv1 runs 3×3 tiles of 16 points instead of one 64-point grid);
// the rest keep one whole-image tile.
func FFTTiling(cfg Config) (n, tilesPerAxis int) {
	ip := cfg.Input + 2*cfg.Pad
	full := fft.NextPow2(ip)
	o := ip - cfg.Kernel + 1
	bins := func(n int) int { return n * (n/2 + 1) }
	n, tilesPerAxis = full, 1
	best := bins(full)
	for cand := fft.NextPow2(cfg.Kernel + 1); cand < full; cand *= 2 {
		step := cand - cfg.Kernel + 1
		t := (o + step - 1) / step
		if b := t * t * bins(cand); b < best {
			n, tilesPerAxis, best = cand, t, b
		}
	}
	return n, tilesPerAxis
}

// fftTiles is the tiling one pass runs on: t×t tiles per plane on an
// n-point plan, step rows apart.
type fftTiles struct{ n, t, step int }

// tilesFor tiles a pass whose output planes are out×out by FFTTiling's
// plan: on a plan smaller than the whole image the pass cuts its output
// into step×step tiles (the last ones ragged), and runs one
// whole-image tile otherwise.
func tilesFor(cfg Config, out int) fftTiles {
	n, t := FFTTiling(cfg)
	step := n - cfg.Kernel + 1
	if t > 1 {
		t = (out + step - 1) / step
	}
	return fftTiles{n: n, t: t, step: step}
}

// mat is the tiled items×inner planes of data, side×side each, as the
// (item, tile)×plane matrix whose row item·t² + tile holds that tile of
// every plane of the item. window and off place each tile (see
// planeMat).
func (g fftTiles) mat(data []float32, items, inner, side, off int, window bool) planeMat {
	return planeMat{data: data, rows: items * g.t * g.t, cols: inner, rs: inner, cs: 1,
		side: side, inner: inner, tiles: g.t, step: g.step, off: off, window: window}
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
// dimension.
//
// Planes run as t×t overlap-save tiles on an n-point plan (tilesFor),
// and each tile of an image is one more row of the product: B·t² rows
// instead of B. Forward and backward-data cut their output planes into
// step×step tiles, step = n−k+1, and transform for each the n×n window
// of the input that all of the tile's outputs read, so a tile's
// product holds its outputs whole and each is written once.
// Backward-filter cuts dy into the forward's output tiles and x into
// its windows, so the inner dimension B·t² sums over tiles as well as
// images. One whole-image tile is the untiled case.
//
// A pass runs in three phases, each a pooled job:
//
//  1. fftPlaneJob transforms every tile of every plane of both
//     operands, one item per fftChunk tiles.
//  2. fftGEMMJob multiplies, one item per block of fftBins bins: for
//     each bin it builds the two operands' real matrices in its slot
//     and runs one real gemm.Blocked product there, then stores the
//     block's products. Workers carve their packing panels from
//     levelled child arenas.
//  3. fftPlaneJob inverse-transforms every output tile, one item per
//     fftChunk tiles.
//
// Between the phases, spectra are stored bin-block-major: for a set of
// P planes (plane tiles, when tiled), bin ξ = β·fftBins + t of plane p
// sits at β·blockLen(P) + p·fftBins + t. A plane's bins of one block fill whole cache lines, so
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

// planeMat is a complex matrix over the plane tiles of a tensor:
// element (r, c) is the half spectrum of spectrum slot r·rs + c·cs,
// conjugated when conj is set, and spec holds the spectra of all
// rows·cols slots bin-block-major. Slot q is tile (q/inner) mod t² of
// plane (q/(inner·t²))·inner + q mod inner of data, which holds
// side×side planes, inner of them per batch item; untiled (t ≤ 1),
// slot q is plane q.
//
// Along each axis, tile i of a window matrix is the n plane rows from
// i·step − off, placed at grid row 0 (rows outside the plane are
// zero); tile i of any other matrix is plane rows i·step up to the
// next tile (the last takes the rest of the plane), placed at grid row
// off. An output is always of the second kind: its tile is cropped
// from the grid at off.
type planeMat struct {
	data       []float32
	rows, cols int
	rs, cs     int
	side, off  int
	inner      int
	tiles      int
	step       int
	window     bool
	conj       bool
	spec       []complex64
}

// slot returns the plane and the tile row and column of slot q.
func (s *planeMat) slot(q int) (plane, ty, tx int) {
	if s.tiles <= 1 {
		return q, 0, 0
	}
	tt := s.tiles * s.tiles
	tile := q / s.inner % tt
	return q/(s.inner*tt)*s.inner + q%s.inner, tile / s.tiles, tile % s.tiles
}

// span returns the plane rows [r0, r1) of tile i along an axis on an
// n-point grid, and the grid row g of r0. A window tile past the plane
// is empty (r1 ≤ r0).
func (s *planeMat) span(i, n int) (r0, r1, g int) {
	if s.window {
		lo := i*s.step - s.off
		r0 = max(lo, 0)
		return r0, min(lo+n, s.side), r0 - lo
	}
	r0, r1 = i*s.step, s.side
	if i < s.tiles-1 {
		r1 = r0 + s.step
	}
	return r0, r1, s.off
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

// fftPlaneJob transforms the plane tiles of m, one item per fftChunk
// consecutive slots: forward, from m.data into the slot's grids and
// then into m.spec; with inverse set, out of m.spec into the slot's
// grids and back into m.data. A chunk's runs of one bin block are
// adjacent in m.spec, so each block moves as one contiguous stretch.
// The slot's grids sit whole blocks apart, so every move is a whole
// run; the bins past nb it carries are never read. A tile that is not
// whole rows of its plane passes through the slot's n×n stage. Pooled
// for allocation-free dispatch.
type fftPlaneJob struct {
	par.Span
	plan    *fft.Plan2D
	m       planeMat
	inverse bool
	stage   []float32
	scratch []complex64
}

//hot:noalloc
func (j *fftPlaneJob) Run(slot int) {
	nb, n, m := j.plan.Bins(), j.plan.N(), &j.m
	slots, plane := m.rows*m.cols, m.side*m.side
	gl := blocks(nb) * fftBins
	bl, own := blockLen(slots), fftChunk*gl+j.plan.ScratchLen()
	grids := j.scratch[slot*own : slot*own+fftChunk*gl]
	scratch := j.scratch[slot*own+fftChunk*gl : (slot+1)*own]
	stage := j.stage[slot*n*n : (slot+1)*n*n]
	for it, ok := j.Claim(); ok; it, ok = j.Claim() {
		p0 := it * fftChunk
		pn := min(fftChunk, slots-p0)
		if j.inverse {
			moveBins(grids, m.spec, gl, bl, p0, pn, true)
		}
		for q := 0; q < pn; q++ {
			p, ty, tx := m.slot(p0 + q)
			data, grid := m.data[p*plane:(p+1)*plane], grids[q*gl:q*gl+nb]
			r0, r1, g := m.span(ty, n)
			c0, c1, h := m.span(tx, n)
			if j.inverse {
				inverseTile(j.plan, grid, data, m.side, r0, r1, c0, c1, g, h, stage, scratch)
			} else {
				forwardTile(j.plan, data, m.side, r0, r1, c0, c1, g, h, grid, stage, scratch)
			}
		}
		if !j.inverse {
			moveBins(grids, m.spec, gl, bl, p0, pn, false)
		}
	}
}

// forwardTile transforms rows [r0, r1) and columns [c0, c1) of the
// side×side plane, placed at grid row g and column h, into grid. Whole
// rows at the origin transform in place; any other tile is first
// copied into stage, behind g zero rows and h zero columns.
func forwardTile(plan *fft.Plan2D, plane []float32, side, r0, r1, c0, c1, g, h int, grid []complex64, stage []float32, scratch []complex64) {
	if r1 <= r0 || c1 <= c0 {
		clear(grid)
		return
	}
	if g == 0 && h == 0 && c0 == 0 && c1 == side {
		plan.ForwardHalf(plane[r0*side:r1*side], r1-r0, side, grid, scratch)
		return
	}
	rows, cols := g+r1-r0, h+c1-c0
	clear(stage[:g*cols])
	for r := r0; r < r1; r++ {
		row := stage[(g+r-r0)*cols : (g+r-r0+1)*cols]
		clear(row[:h])
		copy(row[h:], plane[r*side+c0:r*side+c1])
	}
	plan.ForwardHalf(stage[:rows*cols], rows, cols, grid, scratch)
}

// inverseTile inverse-transforms grid, destroying it, and writes its
// window at grid row g and column h into rows [r0, r1) and columns
// [c0, c1) of the side×side plane. Whole rows are written in place;
// any other tile passes through stage.
func inverseTile(plan *fft.Plan2D, grid []complex64, plane []float32, side, r0, r1, c0, c1, g, h int, stage []float32, scratch []complex64) {
	rows, cols := r1-r0, c1-c0
	if c0 == 0 && c1 == side {
		plan.InverseHalf(grid, plane[r0*side:r1*side], rows, cols, g, h, scratch)
		return
	}
	plan.InverseHalf(grid, stage[:rows*cols], rows, cols, g, h, scratch)
	for r := 0; r < rows; r++ {
		copy(plane[(r0+r)*side+c0:(r0+r)*side+c1], stage[r*cols:(r+1)*cols])
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

// transformPlanes runs fftPlaneJob over the plane tiles of m. scratch
// holds fftChunk grids of whole blocks and the plan's ScratchLen() per
// proc, stage one n×n plane per proc.
func transformPlanes(plan *fft.Plan2D, m planeMat, inverse bool, scratch []complex64, stage []float32) {
	j := fftPlanePool.Get()
	j.Reset((m.rows*m.cols + fftChunk - 1) / fftChunk)
	j.plan, j.m, j.inverse = plan, m, inverse
	j.scratch, j.stage = scratch, stage
	par.ForEachSlot(&j.Span, j)
	j.m, j.stage, j.scratch = planeMat{}, nil, nil
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
// complex carve, the transform stages and the GEMM phase's buffers in
// one real carve. A pass on a fresh arena then grows each slab once, to
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
	c64 := ws.Complex64Uninit(specs + procs*(fftChunk*blocks(nb)*fftBins+plan.ScratchLen()))
	for _, s := range mats {
		s.spec, c64 = c64[:s.specLen(nb)], c64[s.specLen(nb):]
	}
	// The multiply phase expands the operand with fewer rows: b when a
	// has more rows than b has columns, by computing pᵀ = bᵀ·aᵀ.
	ta, tb, tp := a, b, p
	if a.rows > b.cols {
		ta, tb, tp = b.t(), a.t(), p.t()
	}
	m, k, n := ta.rows, ta.cols, tb.cols
	st := procs * plan.N() * plan.N()
	f32 := ws.Float32Uninit(st + procs*(4*m*k+2*k*n+fftBins*2*m*n))
	stage := f32[:st]
	transformPlanes(plan, a, false, c64, stage)
	transformPlanes(plan, b, false, c64, stage)

	j := fftGEMMPool.Get()
	j.Reset(blocks(nb))
	j.nb, j.a, j.b, j.p, j.bufs = nb, ta, tb, tp, f32[st:]
	j.kids = ws.Children(j.Slots())
	par.ForEachSlot(&j.Span, j)
	ws.Level()
	j.a, j.b, j.p, j.bufs, j.kids = planeMat{}, planeMat{}, planeMat{}, nil, nil
	fftGEMMPool.Put(j)

	transformPlanes(plan, p, true, c64, stage)
}

// FFTForward computes the convolution in the frequency domain: per bin,
// Y = X·conj(W)ᵀ (the correlation form), summing over channels, then
// the inverse transform cropped to the valid outputs of each tile.
// Requires stride 1. Every matrix and per-worker buffer is carved from
// ws, which the pass resets.
func FFTForward(ws *workspace.Arena, cfg Config, x, w, y *tensor.Tensor) {
	fftCheckStride(cfg)
	checkShapes(cfg, x, w, y)
	b, c, f, o := cfg.Batch, cfg.Channels, cfg.Filters, cfg.Out()
	g := tilesFor(cfg, o)
	ws.Reset()
	fftProduct(ws, fft.Plan2DFor(g.n),
		g.mat(x.Data, b, c, cfg.Input, cfg.Pad, true),
		planeMat{data: w.Data, rows: c, cols: f, rs: 1, cs: c, side: cfg.Kernel, conj: true},
		g.mat(y.Data, b, f, o, 0, false))
}

// FFTBackwardData computes dx in the frequency domain: per bin, dX =
// dY·W, the full (non-conjugated) product summed over filters. On the
// whole-image plan the full convolution fits the grid, so dy sits at
// the origin and dx is cropped at the padding offset; on a tiling plan
// a tile's dx is the n−k+1 rows whose k-row reach stays inside its dy
// window, cropped at k−1.
// Requires stride 1.
func FFTBackwardData(ws *workspace.Arena, cfg Config, dy, w, dx *tensor.Tensor) {
	fftCheckStride(cfg)
	checkShapes(cfg, dx, w, dy)
	b, c, f := cfg.Batch, cfg.Channels, cfg.Filters
	g := tilesFor(cfg, cfg.Input)
	crop := cfg.Pad
	if g.n < FFTPlanSize(cfg) {
		crop = cfg.Kernel - 1
	}
	ws.Reset()
	fftProduct(ws, fft.Plan2DFor(g.n),
		g.mat(dy.Data, b, f, cfg.Out(), crop-cfg.Pad, true),
		planeMat{data: w.Data, rows: f, cols: c, rs: c, cs: 1, side: cfg.Kernel},
		g.mat(dx.Data, b, c, cfg.Input, crop, false))
}

// FFTBackwardFilter computes dw in the frequency domain: per bin, dW =
// dYᴴ·X, so each (filter, channel) spectrum is Σ over images and tiles
// of X·conj(dY), inverse-transformed and cropped to k×k. dy is cut into
// the forward's output tiles and x into its windows. Requires stride 1.
func FFTBackwardFilter(ws *workspace.Arena, cfg Config, x, dy, dw *tensor.Tensor) {
	fftCheckStride(cfg)
	checkShapes(cfg, x, dw, dy)
	b, c, f := cfg.Batch, cfg.Channels, cfg.Filters
	g := tilesFor(cfg, cfg.Out())
	dyH := g.mat(dy.Data, b, f, cfg.Out(), 0, false).t()
	dyH.conj = true
	ws.Reset()
	fftProduct(ws, fft.Plan2DFor(g.n),
		dyH,
		g.mat(x.Data, b, c, cfg.Input, cfg.Pad, true),
		planeMat{data: dw.Data, rows: f, cols: c, rs: c, cs: 1, side: cfg.Kernel})
}
