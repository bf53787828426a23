//go:build amd64

package fft

// difStageAVX2 is difStage on AVX2: four bins of a row pair per ymm, a
// row's last m mod 4 bins as an xmm and a single bin, so no load or
// store reaches past the row. Callers guarantee x holds 2·half·blocks
// rows of m bins and tw at least lim·blocks entries when lim > 0.
//
//go:noescape
func difStageAVX2(x, tw *complex64, m, half, blocks, lim, full int)

// ditStageAVX2 is ditStage on AVX2, with difStageAVX2's contract.
//
//go:noescape
func ditStageAVX2(x, tw *complex64, m, half, blocks, lim, full int)
