package gemm

import "gpucnn/internal/cpuid"

// level is the micro-kernel every tile runs over the packed 16×16
// tile: cpuid.AVX512 (16 zmm accumulators, embedded-broadcast FMAs),
// cpuid.AVX2 (AVX2/FMA, row groups of 6, 6 and 4, 12 ymm accumulators)
// or cpuid.Go (portable scalar Go). Every level reads the same panels
// (pack.go); only the instructions differ. It is cpuid.Host; tests
// lower it to reach the narrower kernels on a wider host.
var level = cpuid.Host

// microKernelGo multiplies one packed A panel (p-major kc×mr) with one
// packed B panel (p-major kc×nr) and adds the alpha-scaled mv×nv valid
// region into the C tile at ct (leading dimension ldc). Each row runs
// as two halves of eight columns whose partial sums stay in registers
// for the whole reduction. Portable fallback for hosts without
// AVX2/FMA.
//
//hot:noalloc
func microKernelGo(kc int, ap, bp, ct []float32, ldc int, alpha float32, mv, nv int) {
	ap, bp = ap[:kc*mr], bp[:kc*nr]
	for r := 0; r < mv; r++ {
		crow := ct[r*ldc : r*ldc+nv]
		for h := 0; h < nv; h += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			for p := 0; p < kc; p++ {
				av := ap[p*mr+r]
				b := bp[p*nr+h : p*nr+h+8 : p*nr+h+8]
				s0 += av * b[0]
				s1 += av * b[1]
				s2 += av * b[2]
				s3 += av * b[3]
				s4 += av * b[4]
				s5 += av * b[5]
				s6 += av * b[6]
				s7 += av * b[7]
			}
			sums := [8]float32{s0, s1, s2, s3, s4, s5, s6, s7}
			for c := h; c < min(h+8, nv); c++ {
				crow[c] += alpha * sums[c-h]
			}
		}
	}
}

// microKernelAsm runs the assembly kernel of the current level on one
// full tile at ct.
//
//hot:noalloc
func microKernelAsm(kc int, ap, bp, ct *float32, ldc int, alpha float32) {
	if level == cpuid.AVX512 {
		microKernelAVX512(kc, ap, bp, ct, ldc, alpha)
		return
	}
	microKernelAVX2(kc, ap, bp, ct, ldc, alpha)
}

// microKernel dispatches one micro-tile. At the assembly levels a full
// tile goes straight into C and a ragged one (mv < mr or nv < nr) into
// a zeroed stack tile whose mv×nv valid part is then added into C.
// Both packed panels are zero-padded to kc×mr and kc×nr, so the padding
// rows and columns only ever reach the discarded part of the stack
// tile. On AVX2 a 16-column row costs two FMAs a step, so a ragged tile
// with at most eight valid columns runs the left half alone
// (microKernelAVX2N8); on AVX-512 a row is one FMA at either width.
// cpuid.Go runs the scalar kernel on the valid region alone.
//
//hot:noalloc
func microKernel(kc int, ap, bp, ct []float32, ldc int, alpha float32, mv, nv int) {
	if level == cpuid.Go {
		microKernelGo(kc, ap, bp, ct, ldc, alpha, mv, nv)
		return
	}
	if mv == mr && nv == nr {
		microKernelAsm(kc, &ap[0], &bp[0], &ct[0], ldc, alpha)
		return
	}
	var tile [mr * nr]float32
	if level == cpuid.AVX2 && nv <= nr/2 {
		microKernelAVX2N8(kc, &ap[0], &bp[0], &tile[0], nr, alpha)
	} else {
		microKernelAsm(kc, &ap[0], &bp[0], &tile[0], nr, alpha)
	}
	for r := 0; r < mv; r++ {
		crow := ct[r*ldc : r*ldc+nv]
		for c, v := range tile[r*nr : r*nr+nv] {
			crow[c] += v
		}
	}
}
