//go:build amd64

package gemm

// microKernelAVX512 multiplies one packed p-major kc×16 A panel with
// one packed p-major kc×16 B panel and adds the alpha-scaled full 16×16
// tile into C at ct (row stride ldc floats): sixteen zmm accumulators,
// A values broadcast from memory by the FMAs themselves. Callers
// guarantee kc ≥ 1 and a full tile at ct (a ragged tile goes through a
// stack tile, see microKernel).
//
//go:noescape
func microKernelAVX512(kc int, ap, bp, ct *float32, ldc int, alpha float32)

// microKernelAVX2 is microKernelAVX512's contract on AVX2/FMA: the
// tile runs as row groups of 6, 6 and 4 with twelve ymm accumulators,
// and its C is bit-identical to the AVX-512 kernel's.
//
//go:noescape
func microKernelAVX2(kc int, ap, bp, ct *float32, ldc int, alpha float32)

// microKernelAVX2N8 runs microKernelAVX2 on the left eight columns
// of the tile only, as two groups of eight rows with eight ymm
// accumulators, for ragged tiles with at most eight valid columns;
// columns 8–15 of C are not touched.
//
//go:noescape
func microKernelAVX2N8(kc int, ap, bp, ct *float32, ldc int, alpha float32)

// transpose8Strips writes the 8×(8·blocks) strip of rows src,
// src+lda, … into the p-major A panel at dst, eight floats per
// reduction step at row stride mr (AVX assembly; see packA).
//
//go:noescape
func transpose8Strips(src *float32, lda, blocks int, dst *float32)
