package gemm

import (
	"fmt"

	"gpucnn/internal/workspace"
)

// Virtual operands: instead of reading a materialised row-major matrix,
// the packing loops call back into the right operand to generate each
// micro-panel in place. This is the fusion seam the unrolling
// convolution engines use — im2col lowers each kc×nr panel of the
// conceptual lowered matrix directly into the packed buffer, so the
// full k×n matrix never exists anywhere (cf. cuConv's fused data
// staging, PAPERS.md). The packed kernel is oblivious: panels arrive in
// the same layout whether copied or generated.

// BPacker generates micro-panels of a virtual right operand op(B) (k×n).
type BPacker interface {
	// PackPanelB writes the kc×nv block of op(B) at (p0, j0) into dst as
	// a p-major panel with row stride ldp: dst[p*ldp+c] = B[p0+p][j0+c].
	// Only the nv valid columns need be written; the caller zero-pads
	// columns [nv, ldp).
	PackPanelB(dst []float32, ldp, p0, kc, j0, nv int)
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
