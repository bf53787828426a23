package gemm

import (
	"fmt"
	"runtime"
)

// CNaive computes the complex GEMM C = alpha*A*B + beta*C with A (m×k),
// B (k×n), C (m×n) row-major complex64. Reference implementation.
func CNaive(alpha complex64, a []complex64, b []complex64, beta complex64, c []complex64, m, n, k int) {
	checkCDims(len(a), len(b), len(c), m, n, k)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc complex64
			for p := 0; p < k; p++ {
				acc += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = alpha*acc + beta*c[i*n+j]
		}
	}
}

// CPacked computes the complex GEMM C = alpha*A*B + beta*C through the
// planar packed kernel unconditionally (no small-size fallback); it is
// the path property-tested against CNaive.
func CPacked(alpha complex64, a []complex64, b []complex64, beta complex64, c []complex64, m, n, k int) {
	checkCDims(len(a), len(b), len(c), m, n, k)
	cscale(beta, c[:m*n])
	cpackedGEMM(1, alpha, a, b, c, m, n, k)
}

// CParallel computes the complex GEMM C = alpha*A*B + beta*C through the
// planar packed kernel, with mrC-row C tiles distributed over the par
// worker pool. The FFT-based convolution engines perform one small CGEMM
// per frequency-domain pixel; batching them row-wise here mirrors how
// fbfft batches its Cgemm kernel.
func CParallel(alpha complex64, a []complex64, b []complex64, beta complex64, c []complex64, m, n, k int) {
	checkCDims(len(a), len(b), len(c), m, n, k)
	if m*n*k < cpackedThreshold() {
		CNaive(alpha, a, b, beta, c, m, n, k)
		return
	}
	workers := 1
	if m*n*k >= 1<<17 {
		workers = runtime.GOMAXPROCS(0)
	}
	cscale(beta, c[:m*n])
	cpackedGEMM(workers, alpha, a, b, c, m, n, k)
}

// CMulAccPointwise accumulates c[i] += a[i] * conj-or-plain b[i] over a
// slice. With conjB set it computes the correlation form, which the
// frequency-domain convolution's forward and backward-filter passes
// use; backward-data uses the plain product.
func CMulAccPointwise(c, a, b []complex64, conjB bool) {
	if len(a) != len(b) || len(a) != len(c) {
		panic("gemm: pointwise length mismatch")
	}
	if conjB {
		for i := range c {
			br := real(b[i])
			bi := -imag(b[i])
			ar := real(a[i])
			ai := imag(a[i])
			c[i] += complex(ar*br-ai*bi, ar*bi+ai*br)
		}
		return
	}
	for i := range c {
		c[i] += a[i] * b[i]
	}
}

// CFLOPs returns the real floating-point operation count of a complex
// m×n×k GEMM: each complex multiply-add costs 8 real flops.
func CFLOPs(m, n, k int) float64 {
	return 8 * float64(m) * float64(n) * float64(k)
}

func checkCDims(la, lb, lc, m, n, k int) {
	if la < m*k || lb < k*n || lc < m*n {
		panic(fmt.Sprintf("gemm: complex buffers too small for m=%d n=%d k=%d", m, n, k))
	}
}
