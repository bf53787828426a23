package fft

import "gpucnn/internal/cpuid"

// level is the instruction set every butterfly stage runs at. It is
// cpuid.Host; tests lower it to reach the Go loops on a vector host. An
// AVX-512 host runs the AVX2 kernel: the convolution layers' rows are
// 3–33 bins wide, and an eight-bin zmm kernel measured no faster on
// them.
var level = cpuid.Host

// difStage runs one radix-2 decimation-in-frequency stage down the
// columns of x, rows of m bins: blocks blocks of 2·half rows, whose row
// i (i < lim) pairs with row half+i under twiddle tw[i·blocks]. Rows
// half+i with i ≥ full are zero inputs, so their butterflies only copy
// or scale row i into them, and rows i ≥ lim of either half are neither
// read nor written. Every level computes the same float32 operations
// per bin, so their outputs are bit-identical.
//
//hot:noalloc
func difStage(x, tw []complex64, m, half, blocks, lim, full int) {
	switch level {
	case cpuid.AVX512, cpuid.AVX2:
		difStageAVX2(&x[0], &tw[0], m, half, blocks, lim, full)
	default:
		difStageGo(x, tw, m, half, blocks, lim, full)
	}
}

// ditStage is difStage's decimation-in-time counterpart: row i of each
// block (i < lim) takes the sum with its twiddled partner row half+i,
// and the partner the difference only while i < full; later rows are
// not needed.
//
//hot:noalloc
func ditStage(x, tw []complex64, m, half, blocks, lim, full int) {
	switch level {
	case cpuid.AVX512, cpuid.AVX2:
		ditStageAVX2(&x[0], &tw[0], m, half, blocks, lim, full)
	default:
		ditStageGo(x, tw, m, half, blocks, lim, full)
	}
}

// difStageGo is difStage in portable Go, and the oracle the assembly
// stages are checked against.
func difStageGo(x, tw []complex64, m, half, blocks, lim, full int) {
	for start := 0; start < 2*half*blocks*m; start += 2 * half * m {
		for i := 0; i < lim; i++ {
			w := tw[i*blocks]
			lo := x[start+i*m : start+(i+1)*m]
			hi := x[start+(half+i)*m : start+(half+i+1)*m]
			switch {
			case i == 0 && i < full:
				for c, a := range lo {
					b := hi[c]
					lo[c], hi[c] = a+b, a-b
				}
			case i == 0:
				copy(hi, lo)
			case i < full:
				for c, a := range lo {
					b := hi[c]
					lo[c], hi[c] = a+b, mul(a-b, w)
				}
			default:
				for c, a := range lo {
					hi[c] = mul(a, w)
				}
			}
		}
	}
}

// ditStageGo is ditStage in portable Go, and the oracle the assembly
// stages are checked against.
func ditStageGo(x, tw []complex64, m, half, blocks, lim, full int) {
	for start := 0; start < 2*half*blocks*m; start += 2 * half * m {
		for i := 0; i < lim; i++ {
			w := tw[i*blocks]
			lo := x[start+i*m : start+(i+1)*m]
			hi := x[start+(half+i)*m : start+(half+i+1)*m]
			switch {
			case i == 0 && i < full:
				for c, a := range lo {
					b := hi[c]
					lo[c], hi[c] = a+b, a-b
				}
			case i == 0:
				for c := range lo {
					lo[c] += hi[c]
				}
			case i < full:
				for c, a := range lo {
					b := mul(hi[c], w)
					lo[c], hi[c] = a+b, a-b
				}
			default:
				for c := range lo {
					lo[c] += mul(hi[c], w)
				}
			}
		}
	}
}
