package gemm

import (
	"math"
	"runtime"
	"sync/atomic"

	"gpucnn/internal/cpuid"
	"gpucnn/internal/par"
	"gpucnn/internal/workspace"
)

// BLIS-style packed kernel. The operands are repacked into contiguous
// p-major panels — A into kc×mr panels, B into kc×nr panels —
// so the register-tiled micro-kernel streams both with unit stride and
// the C tile's dot products accumulate in registers instead of bouncing
// through cache lines of strided B rows. This is the data-layout half of
// what cuBLAS/cuDNN do on the device (cuConv, arXiv:2103.16234, makes
// the same point for convolution proper): packing and reuse, not extra
// FLOPs, are where GEMM performance lives.
//
// The loop nest follows the five BLIS macro loops with extents derived
// from the detected caches (tune.go):
//
//	jc over n in nc blocks   → packed B block stays L3/arena-resident
//	pc over k in kc panels   → one shared packed B block per (jc, pc)
//	ic over m in mc blocks   → packed A block stays L2-resident
//	jr over nc in nr panels  → B micro-panel stays L1-resident
//	ir over mc in mr panels  → micro-kernel (kernel.go)
//
// Parallel entry points partition the ic/jr macro loops (not individual
// C tiles): each worker packs its A blocks into its own slot of the
// caller's arena and all workers share the read-only packed B block.
const (
	mr = 16 // rows per micro-tile (one packed A panel)
	nr = 16 // columns per micro-tile (one packed B panel)
)

func roundUp(x, m int) int { return (x + m - 1) / m * m }

// aSrc describes the left operand: a materialised row-major matrix,
// optionally read as its transpose.
type aSrc struct {
	data  []float32
	lda   int
	trans bool
}

// bSrc describes the right operand: a materialised matrix like aSrc, or
// a virtual operand whose panels are generated by a BPacker.
type bSrc struct {
	data  []float32
	ldb   int
	trans bool
	v     BPacker
}

func matA(data []float32, lda int) aSrc  { return aSrc{data: data, lda: lda} }
func matAT(data []float32, lda int) aSrc { return aSrc{data: data, lda: lda, trans: true} }
func matB(data []float32, ldb int) bSrc  { return bSrc{data: data, ldb: ldb} }
func matBT(data []float32, ldb int) bSrc { return bSrc{data: data, ldb: ldb, trans: true} }
func virtB(v BPacker) bSrc               { return bSrc{v: v} }

// Both panels are p-major with the same width (mr == nr): the values
// of one reduction step sit at consecutive floats. An operand whose
// step values are contiguous in memory (A transposed, B as stored) is
// packed by packSteps; one whose rows run along the reduction (A as
// stored, B transposed) is transposed into the panel by packRows.

// packA copies the mv×kc block of op(A) at (i0, p0) into a p-major
// kc×mr panel, zero-padding the tail rows. With transA, A is stored k×m
// and the logical element (i, p) is a[p*lda+i].
//
//hot:noalloc
func packA(dst, a []float32, lda, i0, mv, p0, kc int, transA bool) {
	if transA {
		packSteps(dst, a, lda, p0*lda+i0, mv, kc)
		return
	}
	packRows(dst, a, lda, i0*lda+p0, mv, kc)
}

// packB copies the kc×nv block of op(B) at (p0, j0) into a p-major
// kc×nr panel, zero-padding the tail columns. With transB, B is stored
// n×k and the logical element (p, j) is b[j*ldb+p].
//
//hot:noalloc
func packB(dst, b []float32, ldb, p0, kc, j0, nv int, transB bool) {
	if transB {
		packRows(dst, b, ldb, j0*ldb+p0, nv, kc)
		return
	}
	packSteps(dst, b, ldb, p0*ldb+j0, nv, kc)
}

// packSteps fills a p-major kc×nr panel whose step p is the nv floats
// at src[off+p*ld:], zero-padding each step to nr.
//
//hot:noalloc
func packSteps(dst, src []float32, ld, off, nv, kc int) {
	dst = dst[:kc*nr]
	for p := 0; p < kc; p++ {
		s := src[off+p*ld:]
		d := dst[p*nr : p*nr+nr : p*nr+nr]
		if nv == nr {
			*(*[nr]float32)(d) = *(*[nr]float32)(s)
			continue
		}
		copy(d[:nv], s[:nv])
		clear(d[nv:])
	}
}

// packRows fills a p-major kc×nr panel from nv rows of kc floats,
// row r at src[off+r*ld:], zero-padding each step to nr: a transpose,
// eight rows at a time by 8×8 vector blocks where the host has AVX,
// element by element for the rest.
//
//hot:noalloc
func packRows(dst, src []float32, ld, off, nv, kc int) {
	dst = dst[:kc*nr]
	r, pv := 0, 0
	if level != cpuid.Go {
		pv = kc / 8 * 8
		for ; r+8 <= nv && pv > 0; r += 8 {
			_ = src[off+(r+7)*ld+pv-1]
			transpose8Strips(&src[off+r*ld], ld, pv/8, &dst[r])
		}
	}
	for rr := 0; rr < nv; rr++ {
		p := pv
		if rr >= r {
			p = 0
		}
		row := src[off+rr*ld : off+rr*ld+kc]
		for ; p < kc; p++ {
			dst[p*nr+rr] = row[p]
		}
	}
	if nv < nr {
		for p := 0; p < kc; p++ {
			clear(dst[p*nr+nv : p*nr+nr])
		}
	}
}

// packPanelB fills one B micro-panel from either source, clearing tail
// columns after a virtual packer (which only writes the kc×nv region).
//
//hot:noalloc
func packPanelB(dst []float32, s bSrc, p0, kc, j0, nv int) {
	if s.v != nil {
		s.v.PackPanelB(dst, nr, p0, kc, j0, nv)
		if nv < nr {
			for p := 0; p < kc; p++ {
				clear(dst[p*nr+nv : (p+1)*nr])
			}
		}
		return
	}
	packB(dst, s.data, s.ldb, p0, kc, j0, nv, s.trans)
}

// packABlock packs the mBlk×kc block of op(A) at (ic, pc) as
// consecutive kc×mr panels into dst.
//
//hot:noalloc
func packABlock(dst []float32, s aSrc, ic, mBlk, pc, kc int) {
	panels := (mBlk + mr - 1) / mr
	for pi := 0; pi < panels; pi++ {
		i0 := ic + pi*mr
		mv := ic + mBlk - i0
		if mv > mr {
			mv = mr
		}
		packA(dst[pi*mr*kc:], s.data, s.lda, i0, mv, pc, kc, s.trans)
	}
}

// --- software prefetch (next-panel touch) ---

// touchGuard exists so the compiler cannot prove the touch loads dead.
// The guard pattern is a quiet-NaN payload that real data essentially
// never sums to; on the astronomically unlikely hit the store is atomic,
// so concurrent workers stay race-free.
var touchGuard atomic.Uint32

const touchGuardPattern = 0x7FC0DEAD

func touchSink(v float32) {
	if math.Float32bits(v) == touchGuardPattern {
		touchGuard.Store(touchGuardPattern)
	}
}

// touchPanel pulls the leading cache lines of the next packed panel
// toward L1 while the current panel is still being consumed — the
// software-prefetch half of the micro-kernel's data staging (the
// assembly kernels also run PREFETCHT0 ahead of both panel streams).
//
//hot:noalloc
func touchPanel(p []float32) {
	n := len(p)
	if n > 128 {
		n = 128 // 8 cache lines
	}
	var t float32
	for i := 0; i < n; i += 16 {
		t += p[i]
	}
	touchSink(t)
}

// macroKernel streams the packed B panels [jLo, jHi) of the current
// block over the packed A block, issuing one micro-kernel per
// (ir, jr) tile. B micro-panels are the outer loop so each stays
// L1-resident across every A panel (BLIS order), with a next-panel
// touch ahead of the switch.
//
//hot:noalloc
func macroKernel(kc int, apBlk, bpBlk, c []float32, ldc int, alpha float32,
	ic, mBlk, jc, jLo, jHi, nc int) {
	aPanels := (mBlk + mr - 1) / mr
	for jr := jLo; jr < jHi; jr += nr {
		t := jr / nr
		nv := nc - jr
		if nv > nr {
			nv = nr
		}
		bpan := bpBlk[t*kc*nr:]
		if jr+nr < jHi {
			touchPanel(bpBlk[(t+1)*kc*nr:])
		}
		for pi := 0; pi < aPanels; pi++ {
			i0 := ic + pi*mr
			mv := ic + mBlk - i0
			if mv > mr {
				mv = mr
			}
			if pi+1 < aPanels {
				touchPanel(apBlk[(pi+1)*mr*kc:])
			}
			microKernel(kc, apBlk[pi*mr*kc:], bpan, c[i0*ldc+jc+jr:], ldc, alpha, mv, nv)
		}
	}
}

// packBJob packs a contiguous chunk of the shared B block's nr-panels;
// pooled so the parallel pack phase dispatches without allocating.
type packBJob struct {
	dst    []float32
	src    bSrc
	pc, kc int
	jc, nc int
	per    int // panels per chunk
}

//hot:noalloc
func (j *packBJob) Run(ci int) {
	panels := (j.nc + nr - 1) / nr
	t0 := ci * j.per
	t1 := t0 + j.per
	if t1 > panels {
		t1 = panels
	}
	for t := t0; t < t1; t++ {
		jr := t * nr
		nv := j.nc - jr
		if nv > nr {
			nv = nr
		}
		packPanelB(j.dst[t*j.kc*nr:], j.src, j.pc, j.kc, j.jc+jr, nv)
	}
}

var packBJobPool = par.NewJobPool[packBJob]()

// packBBlock fills the shared packed B block for (pc, jc), fanning the
// panel packing out over the workers when there are enough panels to
// amortise dispatch.
func packBBlock(workers int, dst []float32, src bSrc, pc, kc, jc, nc int) {
	panels := (nc + nr - 1) / nr
	if workers > panels {
		workers = panels
	}
	if workers <= 1 {
		for t := 0; t < panels; t++ {
			jr := t * nr
			nv := nc - jr
			if nv > nr {
				nv = nr
			}
			packPanelB(dst[t*kc*nr:], src, pc, kc, jc+jr, nv)
		}
		return
	}
	j := packBJobPool.Get()
	j.dst, j.src = dst, src
	j.pc, j.kc, j.jc, j.nc = pc, kc, jc, nc
	j.per = (panels + workers - 1) / workers
	par.ForEachNRunner(workers, workers, j)
	j.dst, j.src = nil, bSrc{}
	packBJobPool.Put(j)
}

// macroJob runs the ic/jr macro loops of one (jc, pc) iteration: each
// item is one (A block, jr sub-range) pair. A worker packs its items'
// A blocks into its slot's block, carved from the caller's arena; the
// packed B block is shared read-only across all items.
type macroJob struct {
	par.Span
	alpha   float32
	aOp     aSrc
	c       []float32
	ldc     int
	m       int
	pc, kc  int
	jc, nc  int
	mc      int
	jChunks int
	jcw     int // jr sub-range width (multiple of nr)
	bp      []float32
	aBlks   []float32 // one A block per slot
	aLen    int
}

//hot:noalloc
func (j *macroJob) Run(slot int) {
	apBlk := j.aBlks[slot*j.aLen : (slot+1)*j.aLen]
	for idx, ok := j.Claim(); ok; idx, ok = j.Claim() {
		ic := (idx / j.jChunks) * j.mc
		jLo := (idx % j.jChunks) * j.jcw
		if ic >= j.m || jLo >= j.nc {
			continue
		}
		mBlk := min(j.m-ic, j.mc)
		jHi := min(jLo+j.jcw, j.nc)
		packABlock(apBlk, j.aOp, ic, mBlk, j.pc, j.kc)
		macroKernel(j.kc, apBlk, j.bp, j.c, j.ldc, j.alpha, ic, mBlk, j.jc, jLo, jHi, j.nc)
	}
}

var macroJobPool = par.NewJobPool[macroJob]()

// packedGEMM computes C += alpha·op(A)·op(B) over beta-prescaled C with
// the cache-derived blocking, carving its packing buffers from ws.
// Operand sources may be materialised (with per-operand transpose,
// which is how NT/TN reuse the same micro-kernel); the right operand
// may also be virtual (a panel-generating packer — the fused im2col
// path).
func packedGEMM(ws *workspace.Arena, workers int, alpha float32, aOp aSrc, bOp bSrc, c []float32, m, n, k int) {
	packedGEMMParams(ws, workers, alpha, aOp, bOp, c, m, n, k, baseParams())
}

// packedGEMMParams is packedGEMM with explicit blocking parameters, so
// tests can cross every block boundary with small products. With
// workers <= 1 it runs on the calling goroutine alone.
func packedGEMMParams(ws *workspace.Arena, workers int, alpha float32, aOp aSrc, bOp bSrc, c []float32,
	m, n, k int, bp blockParams) {
	if m == 0 || n == 0 || k == 0 || alpha == 0 {
		return
	}
	kcMax, ncMax := min(bp.kc, k), min(bp.nc, n)
	bpBuf := ws.Float32Uninit(kcMax * roundUp(ncMax, nr))
	icBlocks := (m + bp.mc - 1) / bp.mc
	j := macroJobPool.Get()
	j.alpha, j.aOp, j.c = alpha, aOp, c
	j.ldc, j.m, j.mc = n, m, bp.mc
	j.aLen = roundUp(min(bp.mc, m), mr) * kcMax
	j.aBlks = nil
	for jc := 0; jc < n; jc += bp.nc {
		nc := min(n-jc, bp.nc)
		// Partition the macro loops: one item per A block when there
		// are enough blocks to feed every worker, otherwise split each
		// block's jr range until ic×jr items cover the worker pool.
		// Extra jr chunks re-pack A, so the split is only as fine as
		// occupancy requires.
		jChunks := 1
		if icBlocks < workers {
			jChunks = min((workers+icBlocks-1)/icBlocks, (nc+nr-1)/nr)
		}
		jcw := roundUp((nc+jChunks-1)/jChunks, nr)
		j.jChunks, j.jcw = (nc+jcw-1)/jcw, jcw
		for pc := 0; pc < k; pc += bp.kc {
			kc := min(k-pc, bp.kc)
			packBBlock(workers, bpBuf, bOp, pc, kc, jc, nc)
			j.pc, j.kc, j.jc, j.nc, j.bp = pc, kc, jc, nc, bpBuf
			j.Reset(icBlocks * j.jChunks)
			runSlots(ws, workers, &j.Span, j, &j.aBlks, j.aLen)
		}
	}
	j.aOp, j.c, j.bp, j.aBlks = aSrc{}, nil, nil, nil
	macroJobPool.Put(j)
}

// runSlots runs a slot job over the items of s: on the calling
// goroutine alone when workers <= 1, else one worker per slot. It first
// makes sure *scratch holds per floats for every slot, carving a new
// share from ws only when it does not (the first iteration of a call).
func runSlots(ws *workspace.Arena, workers int, s *par.Span, r par.Runner, scratch *[]float32, per int) {
	slots := 1
	if workers > 1 {
		slots = s.Slots()
	}
	if len(*scratch) < slots*per {
		*scratch = ws.Float32Uninit(slots * per)
	}
	if slots == 1 {
		r.Run(0)
		return
	}
	par.ForEachSlot(s, r)
}

// gemmWorkers picks the fan-out for a parallel entry point: GOMAXPROCS,
// or 1 when the problem is too small to amortise dispatch.
func gemmWorkers(m, n, k int) int {
	if m*n*k < 1<<20 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}
