// Package gemm implements single-precision and complex general
// matrix-matrix multiplication. It is the arithmetic core of the
// unrolling-based convolution engines (which lower convolution to a
// single SGEMM, the way Caffe/Torch-cunn/Theano-CorrMM call cuBLAS) and
// of the FFT engines' frequency-domain CGEMM.
//
// Every packing entry point except Parallel takes a caller-owned
// workspace.Arena as its first argument and carves its packing buffers
// from it without resetting it (the caller's pass does); nothing below
// an entry point takes scratch of its own.
//
// Three tiers are provided:
//
//   - Naive: the textbook triple loop, used as the correctness oracle.
//   - Packed/Blocked: BLIS-style serial kernel — both operands are
//     repacked into contiguous panels and multiplied by a register-tiled
//     mr×nr micro-kernel (AVX2/FMA assembly on capable amd64 hosts,
//     portable Go otherwise; see pack.go, kernel_amd64.s) under
//     runtime-autotuned cache blocking (tune.go).
//   - Parallel: the packed kernel with the ic/jr macro-loops fanned out
//     over the par worker pool — workers share one packed B block and
//     pack their own A blocks, one arena slot each.
//
// Operands may also be virtual (BlockedVirtualB and friends in
// virtual.go): a panel packer generates op(A)/op(B) micro-panels on
// demand, which is how the unrolling convolution engines fuse im2col
// into GEMM packing without materialising the lowered matrix.
//
// The legacy cache-blocked kernel is kept (unexported) both as a
// fallback for problems too small to amortise packing (crossover
// derived from the autotuned blocking, see packedThreshold) and as the
// benchmark reference the packed kernel is measured against.
package gemm

import (
	"fmt"

	"gpucnn/internal/workspace"
)

// blockM/blockN/blockK are the cache-block extents of the legacy serial
// kernel. They are sized so one block of A (blockM×blockK) plus one
// block of B (blockK×blockN) fits comfortably in L1/L2.
const (
	blockM = 64
	blockN = 64
	blockK = 64
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

// Blocked computes C = alpha*A*B + beta*C serially. Problems large
// enough to amortise panel packing go through the packed register-tiled
// kernel; tiny ones use the legacy cache-blocked loop.
func Blocked(ws *workspace.Arena, alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	checkDims(len(a), len(b), len(c), m, n, k)
	if !routesToPacked(m, n, k) {
		blockedLegacy(alpha, a, b, beta, c, m, n, k)
		return
	}
	scaleRows(beta, c, 0, m, n)
	packedGEMM(ws, 1, alpha, matA(a, k), matB(b, n), c, m, n, k)
}

// Packed computes C = alpha*A*B + beta*C through the packed
// register-tiled kernel unconditionally (no small-size fallback). It is
// the kernel benchmarked against blockedLegacy and property-tested
// against Naive.
func Packed(ws *workspace.Arena, alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	checkDims(len(a), len(b), len(c), m, n, k)
	scaleRows(beta, c, 0, m, n)
	packedGEMM(ws, 1, alpha, matA(a, k), matB(b, n), c, m, n, k)
}

// blockedLegacy is the pre-packing cache-blocked kernel, kept as the
// small-problem fallback and as the baseline BenchmarkBlockedGEMM
// measures the packed kernel against.
func blockedLegacy(alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	scaleRows(beta, c, 0, m, n)
	for i0 := 0; i0 < m; i0 += blockM {
		i1 := min(i0+blockM, m)
		blockedRows(alpha, a, b, c, i0, i1, m, n, k)
	}
}

// blockedRows multiplies the row stripe [i0,i1) of A into C with the
// legacy axpy-style inner loop.
//
//hot:noalloc
func blockedRows(alpha float32, a, b, c []float32, i0, i1, m, n, k int) {
	for p0 := 0; p0 < k; p0 += blockK {
		p1 := min(p0+blockK, k)
		for j0 := 0; j0 < n; j0 += blockN {
			j1 := min(j0+blockN, n)
			for i := i0; i < i1; i++ {
				arow := a[i*k:]
				crow := c[i*n:]
				for p := p0; p < p1; p++ {
					av := alpha * arow[p]
					if av == 0 {
						continue
					}
					brow := b[p*n:]
					for j := j0; j < j1; j++ {
						crow[j] += av * brow[j]
					}
				}
			}
		}
	}
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
	if !routesToPacked(m, n, k) {
		ntLegacy(alpha, a, b, beta, c, m, n, k)
		return
	}
	scaleRows(beta, c, 0, m, n)
	packedGEMM(ws, 1, alpha, matA(a, k), matBT(b, k), c, m, n, k)
}

// ntLegacy is the pre-packing dot-product NT kernel (small-problem
// fallback).
func ntLegacy(alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n:]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var acc float32
			for p := 0; p < k; p++ {
				acc += arow[p] * brow[p]
			}
			crow[j] = alpha*acc + beta*crow[j]
		}
	}
}

// TN computes C = alpha*Aᵀ*B + beta*C where A is k×m and B is k×n,
// both row-major. This is the backward-data GEMM shape; A's columns are
// gathered during packing instead of in the inner loop.
func TN(ws *workspace.Arena, alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("gemm: TN buffer too small for m=%d n=%d k=%d", m, n, k))
	}
	if !routesToPacked(m, n, k) {
		tnLegacy(alpha, a, b, beta, c, m, n, k)
		return
	}
	scaleRows(beta, c, 0, m, n)
	packedGEMM(ws, 1, alpha, matAT(a, m), matB(b, n), c, m, n, k)
}

// tnLegacy is the pre-packing axpy TN kernel (small-problem fallback).
func tnLegacy(alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	scaleRows(beta, c, 0, m, n)
	for p := 0; p < k; p++ {
		arow := a[p*m:]
		brow := b[p*n:]
		for i := 0; i < m; i++ {
			av := alpha * arow[i]
			if av == 0 {
				continue
			}
			crow := c[i*n:]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}

// ParallelNT is NT with the packed macro-loops fanned out over the par
// worker pool.
func ParallelNT(ws *workspace.Arena, alpha float32, a []float32, b []float32, beta float32, c []float32, m, n, k int) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic(fmt.Sprintf("gemm: NT buffer too small for m=%d n=%d k=%d", m, n, k))
	}
	workers := gemmWorkers(m, n, k)
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
