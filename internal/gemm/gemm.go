// Package gemm implements single-precision general matrix-matrix
// multiplication. It is the arithmetic core of the unrolling-based
// convolution engines, which lower convolution to a single SGEMM the way
// Caffe/Torch-cunn/Theano-CorrMM call cuBLAS.
//
// Every packing entry point except Parallel takes a caller-owned
// workspace.Arena as its first argument and carves its packing buffers
// from it without resetting it (the caller's pass does); nothing below
// an entry point takes scratch of its own.
//
// One kernel serves every entry point and every shape, zero extents
// included, except ParallelNT's skinny rule below:
//
//   - Naive: the textbook triple loop, used as the correctness oracle.
//   - Blocked, NT, TN: BLIS-style serial kernel — both operands are
//     repacked into contiguous panels and multiplied by a register-tiled
//     mr×nr micro-kernel (AVX2/FMA assembly on capable amd64 hosts,
//     portable Go otherwise; see pack.go, kernel_amd64.s) under
//     runtime-autotuned cache blocking (tune.go).
//   - Parallel, ParallelIn, ParallelNT: the same kernel with the ic/jr
//     macro-loops fanned out over the par worker pool — workers share
//     one packed B block and pack their own A blocks, one arena slot
//     each.
//
// ParallelNT has one rule over m on top: at m ≤ skinnyM (a
// fully-connected layer's forward at batch 1 to 4) it packs nothing.
// Each row of B is contiguous, so it is dotted against the m rows of A
// in a plain Go eight-accumulator loop, with B's rows claimed over the
// par pool. That reads the weights once at memory speed, where packing
// them would copy every weight to multiply it by a handful of rows.
//
// The right operand may also be virtual (BlockedVirtualB and
// ParallelVirtualB in virtual.go): a panel packer generates op(B)
// micro-panels on demand, which is how the unrolling convolution
// engines fuse im2col into GEMM packing without materialising the
// lowered matrix.
package gemm

import (
	"fmt"

	"gpucnn/internal/workspace"
)

// Naive computes C = alpha*A*B + beta*C with A (m×k), B (k×n), C (m×n),
// all row-major. It is O(mnk) with no blocking and exists as the oracle
// against which the optimised kernels are tested.
func Naive(alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	checkDims(len(a), len(b), len(c), m, n, k)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = alpha*acc + beta*c[i*n+j]
		}
	}
}

// Blocked computes C = alpha*A*B + beta*C serially through the packed
// register-tiled kernel.
func Blocked(ws *workspace.Arena, alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	checkDims(len(a), len(b), len(c), m, n, k)
	scaleRows(beta, c, 0, m, n)
	packedGEMM(ws, 1, alpha, matA(a, k), matB(b, n), c, m, n, k)
}

// Parallel is ParallelIn over a fresh arena, for callers that own no
// workspace: a one-off product that need not be allocation-free.
func Parallel(alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	ParallelIn(new(workspace.Arena), alpha, a, b, beta, c, m, n, k)
}

// ParallelIn computes C = alpha*A*B + beta*C, partitioning the packed
// kernel's ic/jr macro-loops over the par worker pool. Small problems
// fall through to the serial kernel to avoid dispatch overhead.
func ParallelIn(ws *workspace.Arena, alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	checkDims(len(a), len(b), len(c), m, n, k)
	workers := gemmWorkers(m, n, k)
	if workers <= 1 {
		Blocked(ws, alpha, a, b, beta, c, m, n, k)
		return
	}
	scaleRows(beta, c, 0, m, n)
	packedGEMM(ws, workers, alpha, matA(a, k), matB(b, n), c, m, n, k)
}

// NT computes C = alpha*A*Bᵀ + beta*C where A is m×k and B is n×k,
// both row-major. This is the backward-filter GEMM shape; B's rows
// become packed micro-panel columns, so no transpose copy of B is ever
// materialised.
func NT(ws *workspace.Arena, alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic(fmt.Sprintf("gemm: NT buffer too small for m=%d n=%d k=%d", m, n, k))
	}
	scaleRows(beta, c, 0, m, n)
	packedGEMM(ws, 1, alpha, matA(a, k), matBT(b, k), c, m, n, k)
}

// TN computes C = alpha*Aᵀ*B + beta*C where A is k×m and B is k×n,
// both row-major. This is the backward-data GEMM shape; A's columns are
// gathered during packing instead of in the inner loop.
func TN(ws *workspace.Arena, alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("gemm: TN buffer too small for m=%d n=%d k=%d", m, n, k))
	}
	scaleRows(beta, c, 0, m, n)
	packedGEMM(ws, 1, alpha, matAT(a, m), matB(b, n), c, m, n, k)
}

// ParallelNT is NT with the work fanned out over the par worker pool.
// A skinny product (m ≤ skinnyM, see skinny.go) streams B's rows
// without packing them and takes nothing from ws; any other runs the
// packed macro-loops.
func ParallelNT(ws *workspace.Arena, alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic(fmt.Sprintf("gemm: NT buffer too small for m=%d n=%d k=%d", m, n, k))
	}
	workers := gemmWorkers(m, n, k)
	if m <= skinnyM {
		skinnyNT(workers, alpha, a, b, beta, c, m, n, k)
		return
	}
	if workers <= 1 {
		NT(ws, alpha, a, b, beta, c, m, n, k)
		return
	}
	scaleRows(beta, c, 0, m, n)
	packedGEMM(ws, workers, alpha, matA(a, k), matBT(b, k), c, m, n, k)
}

// FLOPs returns the floating-point operation count of an m×n×k GEMM
// (one multiply plus one add per inner-loop step).
func FLOPs(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}

//hot:noalloc
func scaleRows(beta float32, c []float32, i0, i1, n int) {
	if beta == 1 {
		return
	}
	seg := c[i0*n : i1*n]
	if beta == 0 {
		for i := range seg {
			seg[i] = 0
		}
		return
	}
	for i := range seg {
		seg[i] *= beta
	}
}

func checkDims(la, lb, lc, m, n, k int) {
	if la < m*k || lb < k*n || lc < m*n {
		panic(fmt.Sprintf("gemm: buffers too small for m=%d n=%d k=%d (a=%d b=%d c=%d)",
			m, n, k, la, lb, lc))
	}
}
