package gemm

import (
	"gpucnn/internal/par"
	"gpucnn/internal/workspace"
)

// Complex packed kernel. complex64 operands are split into planar
// real/imag float32 panels during packing, so the micro-kernel runs on
// plain float32 register accumulators — the same planar trick fbfft
// uses for its frequency-domain batched Cgemm. nrC is half of nr
// because each C column needs two accumulators (real and imag) and the
// register budget is what it is.
const (
	mrC = 8 // rows per complex micro-tile
	nrC = 4 // columns per complex micro-tile (×2 accumulators each)

	// cKcCap/cNcCap bound the tuned blocking for the planar kernel:
	// packed blocks exist twice (real+imag planes), so the single-
	// precision extents would double the footprint.
	cKcCap = 256
	cNcCap = 2048
)

// cpackedThreshold routes tiny complex problems to CNaive. A complex
// multiply-add is four real ones, so the packed kernel amortises at a
// quarter of the real-valued crossover.
func cpackedThreshold() int { return packedThreshold() / 4 }

// ctuneFor caps the autotuned blocking for planar-complex packing.
func ctuneFor(m, n, k int) blockParams {
	bp := tuneFor(m, n, k)
	if bp.kc > cKcCap {
		bp.kc = cKcCap
	}
	if bp.nc > cNcCap {
		bp.nc = cNcCap
	}
	return bp
}

// cpackA splits the mv×kc block of A at (i0, p0) into planar row-major
// mrC×kc panels, zero-padding tail rows.
func cpackA(dstR, dstI []float32, a []complex64, lda, i0, mv, p0, kc int) {
	for r := 0; r < mv; r++ {
		src := a[(i0+r)*lda+p0:]
		dr := dstR[r*kc : (r+1)*kc]
		di := dstI[r*kc : (r+1)*kc]
		for p := 0; p < kc; p++ {
			v := src[p]
			dr[p] = real(v)
			di[p] = imag(v)
		}
	}
	clear(dstR[mv*kc : mrC*kc])
	clear(dstI[mv*kc : mrC*kc])
}

// cpackB splits the kc×nv block of B at (p0, j0) into planar p-major
// kc×nrC panels, zero-padding tail columns.
func cpackB(dstR, dstI []float32, b []complex64, ldb, p0, kc, j0, nv int) {
	if nv < nrC {
		clear(dstR[:kc*nrC])
		clear(dstI[:kc*nrC])
	}
	for p := 0; p < kc; p++ {
		src := b[(p0+p)*ldb+j0:]
		dr := dstR[p*nrC : p*nrC+nrC]
		di := dstI[p*nrC : p*nrC+nrC]
		for c := 0; c < nv; c++ {
			v := src[c]
			dr[c] = real(v)
			di[c] = imag(v)
		}
	}
}

// cmicroKernel multiplies one planar A panel with one planar B panel
// and adds the alpha-scaled mv×nv valid region into the complex C tile.
// Per row, the four columns' real and imag partial sums (eight float32
// accumulators) stay in registers across the whole reduction.
func cmicroKernel(kc int, apR, apI, bpR, bpI []float32, alpha complex64, ct []complex64, ldc, mv, nv int) {
	ar0 := real(alpha)
	ai0 := imag(alpha)
	for r := 0; r < mv; r++ {
		arow := apR[r*kc : r*kc+kc]
		irow := apI[r*kc : r*kc+kc]
		var sr0, sr1, sr2, sr3, si0, si1, si2, si3 float32
		bi := 0
		for p, ar := range arow {
			ai := irow[p]
			br := bpR[bi : bi+nrC : bi+nrC]
			bm := bpI[bi : bi+nrC : bi+nrC]
			sr0 += ar*br[0] - ai*bm[0]
			si0 += ar*bm[0] + ai*br[0]
			sr1 += ar*br[1] - ai*bm[1]
			si1 += ar*bm[1] + ai*br[1]
			sr2 += ar*br[2] - ai*bm[2]
			si2 += ar*bm[2] + ai*br[2]
			sr3 += ar*br[3] - ai*bm[3]
			si3 += ar*bm[3] + ai*br[3]
			bi += nrC
		}
		srs := [nrC]float32{sr0, sr1, sr2, sr3}
		sis := [nrC]float32{si0, si1, si2, si3}
		crow := ct[r*ldc:]
		for c := 0; c < nv; c++ {
			tr, ti := srs[c], sis[c]
			crow[c] += complex(ar0*tr-ai0*ti, ar0*ti+ai0*tr)
		}
	}
}

// cpackedTileJob runs the mrC-row panels of complex C across the
// current packed B block; each worker packs its panels' A rows into its
// slot's planar panel pair, carved from the caller's arena.
type cpackedTileJob struct {
	par.Span
	alpha  complex64
	a      []complex64
	c      []complex64
	lda    int
	ldc    int
	m      int
	pc, kc int
	jc, nc int
	bpR    []float32
	bpI    []float32
	aps    []float32 // per slot: real then imag panel, mrC×kcMax each
	aLen   int
}

func (j *cpackedTileJob) Run(slot int) {
	ap := j.aps[slot*2*j.aLen : (slot+1)*2*j.aLen]
	apR, apI := ap[:mrC*j.kc], ap[j.aLen:j.aLen+mrC*j.kc]
	for pi, ok := j.Claim(); ok; pi, ok = j.Claim() {
		i0 := pi * mrC
		mv := min(j.m-i0, mrC)
		cpackA(apR, apI, j.a, j.lda, i0, mv, j.pc, j.kc)
		for t, jr := 0, 0; jr < j.nc; t, jr = t+1, jr+nrC {
			nv := min(j.nc-jr, nrC)
			off := t * j.kc * nrC
			cmicroKernel(j.kc, apR, apI, j.bpR[off:], j.bpI[off:], j.alpha,
				j.c[i0*j.ldc+j.jc+jr:], j.ldc, mv, nv)
		}
	}
}

var ctileJobPool = par.NewJobPool[cpackedTileJob]()

// cpackedGEMM computes C += alpha·A·B over beta-prescaled complex C,
// with planar packing and mrC-row tiles distributed over up to
// `workers` goroutines, carving its panels from ws.
func cpackedGEMM(ws *workspace.Arena, workers int, alpha complex64, a, b, c []complex64, m, n, k int) {
	if m == 0 || n == 0 || k == 0 || alpha == 0 {
		return
	}
	bp := ctuneFor(m, n, k)
	kcMax := min(k, bp.kc)
	panelFloats := kcMax * roundUp(min(n, bp.nc), nrC)
	bpR := ws.Float32Uninit(panelFloats)
	bpI := ws.Float32Uninit(panelFloats)
	j := ctileJobPool.Get()
	j.alpha, j.a, j.c = alpha, a, c
	j.lda, j.ldc, j.m = k, n, m
	panels := (m + mrC - 1) / mrC
	j.aLen, j.aps = mrC*kcMax, nil
	for jc := 0; jc < n; jc += bp.nc {
		nc := min(n-jc, bp.nc)
		for pc := 0; pc < k; pc += bp.kc {
			kc := min(k-pc, bp.kc)
			for t, jr := 0, 0; jr < nc; t, jr = t+1, jr+nrC {
				cpackB(bpR[t*kc*nrC:], bpI[t*kc*nrC:], b, n, pc, kc, jc+jr, min(nc-jr, nrC))
			}
			j.pc, j.kc, j.jc, j.nc, j.bpR, j.bpI = pc, kc, jc, nc, bpR, bpI
			j.Reset(panels)
			runSlots(ws, workers, &j.Span, j, &j.aps, 2*j.aLen)
		}
	}
	j.a, j.c, j.bpR, j.bpI, j.aps = nil, nil, nil, nil, nil
	ctileJobPool.Put(j)
}

// cscale applies C *= beta in place.
func cscale(beta complex64, c []complex64) {
	if beta == 1 {
		return
	}
	if beta == 0 {
		clear(c)
		return
	}
	for i := range c {
		c[i] *= beta
	}
}
