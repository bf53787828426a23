package gemm

import (
	"fmt"

	"gpucnn/internal/workspace"
)

// Virtual operands: instead of reading a materialised row-major matrix,
// the packing loops call back into the operand to generate each
// micro-panel in place. This is the fusion seam the unrolling
// convolution engines use — im2col lowers each kc×nr (or mr×kc) panel
// of the conceptual lowered matrix directly into the packed buffer, so
// the full m×k / k×n matrix never exists anywhere (cf. cuConv's fused
// data staging, PAPERS.md). The packed kernel is oblivious: panels
// arrive in the same layout whether copied or generated.

// APacker generates micro-panels of a virtual left operand op(A) (m×k).
type APacker interface {
	// PackPanelA writes the mv×kc block of op(A) at (i0, p0) into dst as
	// a row-major panel with row stride kc: dst[r*kc+p] = A[i0+r][p0+p].
	// Only the mv valid rows need be written; the caller zero-pads rows
	// [mv, mr).
	PackPanelA(dst []float32, i0, mv, p0, kc int)
}

// BPacker generates micro-panels of a virtual right operand op(B) (k×n).
type BPacker interface {
	// PackPanelB writes the kc×nv block of op(B) at (p0, j0) into dst as
	// a p-major panel with row stride ldp: dst[p*ldp+c] = B[p0+p][j0+c].
	// Only the nv valid columns need be written; the caller zero-pads
	// columns [nv, ldp).
	PackPanelB(dst []float32, ldp, p0, kc, j0, nv int)
}

// PackAFunc adapts a function to APacker. Note that func values capture
// by heap allocation — zero-allocation hot paths should implement
// APacker on a pooled struct instead (see im2col.PanelPacker).
type PackAFunc func(dst []float32, i0, mv, p0, kc int)

func (f PackAFunc) PackPanelA(dst []float32, i0, mv, p0, kc int) { f(dst, i0, mv, p0, kc) }

// PackBFunc adapts a function to BPacker, with the same allocation
// caveat as PackAFunc.
type PackBFunc func(dst []float32, ldp, p0, kc, j0, nv int)

func (f PackBFunc) PackPanelB(dst []float32, ldp, p0, kc, j0, nv int) { f(dst, ldp, p0, kc, j0, nv) }

// MicroPanelB reports the fixed column stride (ldp) of packed B
// micro-panels, for callers that pre-compute panel geometry.
func MicroPanelB() int { return nr }

// BlockedVirtualA computes C = alpha*va*B + beta*C serially, where va
// is a virtual m×k left operand whose panels are generated on demand.
func BlockedVirtualA(ws *workspace.Arena, alpha float32, va APacker, b []float32, beta float32, c []float32, m, n, k int) {
	if len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("gemm: virtual-A buffers too small for m=%d n=%d k=%d", m, n, k))
	}
	scaleRows(beta, c, 0, m, n)
	packedGEMM(ws, 1, alpha, virtA(va), matB(b, n), c, m, n, k)
}

// BlockedVirtualB computes C = alpha*A*vb + beta*C serially, where vb
// is a virtual k×n right operand whose panels are generated on demand.
// This is the fused im2col forward path: A is the filter matrix, vb the
// lowered input that is never materialised.
func BlockedVirtualB(ws *workspace.Arena, alpha float32, a []float32, vb BPacker, beta float32, c []float32, m, n, k int) {
	if len(a) < m*k || len(c) < m*n {
		panic(fmt.Sprintf("gemm: virtual-B buffers too small for m=%d n=%d k=%d", m, n, k))
	}
	scaleRows(beta, c, 0, m, n)
	packedGEMM(ws, 1, alpha, matA(a, k), virtB(vb), c, m, n, k)
}

// ParallelVirtualB is BlockedVirtualB with the macro-loops fanned out
// over the par worker pool; the virtual packer must be safe for
// concurrent PackPanelB calls on disjoint panels.
func ParallelVirtualB(ws *workspace.Arena, alpha float32, a []float32, vb BPacker, beta float32, c []float32, m, n, k int) {
	if len(a) < m*k || len(c) < m*n {
		panic(fmt.Sprintf("gemm: virtual-B buffers too small for m=%d n=%d k=%d", m, n, k))
	}
	workers := gemmWorkers(m, n, k)
	scaleRows(beta, c, 0, m, n)
	packedGEMM(ws, workers, alpha, matA(a, k), virtB(vb), c, m, n, k)
}
