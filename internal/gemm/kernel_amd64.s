//go:build amd64

#include "textflag.h"

// Both kernels compute one full 16x16 micro-tile: ap is a p-major
// kcx16 A panel (the 16 rows' values of one reduction step at
// consecutive floats), bp a p-major kcx16 B panel, ct the C tile
// origin with row stride ldc floats. Each C element accumulates
// fma(a, b, acc) over p in order from zero and is then updated once
// as fma(alpha, acc, c), so both kernels give bit-identical C.

// STEP512 is one reduction step at byte offset off into both panels:
// the B row in Z16, then each of the 16 A values broadcast straight
// from memory into an FMA on its row's accumulator.
#define STEP512(off) \
	VMOVUPS          off(BX), Z16; \
	VFMADD231PS.BCST off+0(SI), Z16, Z0; \
	VFMADD231PS.BCST off+4(SI), Z16, Z1; \
	VFMADD231PS.BCST off+8(SI), Z16, Z2; \
	VFMADD231PS.BCST off+12(SI), Z16, Z3; \
	VFMADD231PS.BCST off+16(SI), Z16, Z4; \
	VFMADD231PS.BCST off+20(SI), Z16, Z5; \
	VFMADD231PS.BCST off+24(SI), Z16, Z6; \
	VFMADD231PS.BCST off+28(SI), Z16, Z7; \
	VFMADD231PS.BCST off+32(SI), Z16, Z8; \
	VFMADD231PS.BCST off+36(SI), Z16, Z9; \
	VFMADD231PS.BCST off+40(SI), Z16, Z10; \
	VFMADD231PS.BCST off+44(SI), Z16, Z11; \
	VFMADD231PS.BCST off+48(SI), Z16, Z12; \
	VFMADD231PS.BCST off+52(SI), Z16, Z13; \
	VFMADD231PS.BCST off+56(SI), Z16, Z14; \
	VFMADD231PS.BCST off+60(SI), Z16, Z15

// ROW512 adds alpha (Z17) times one accumulator into the C row at DI
// and steps DI to the next row.
#define ROW512(acc) \
	VMOVUPS     (DI), Z18; \
	VFMADD231PS Z17, acc, Z18; \
	VMOVUPS     Z18, (DI); \
	ADDQ        R8, DI

// func microKernelAVX512(kc int, ap, bp, ct *float32, ldc int, alpha float32)
//
// Sixteen zmm accumulators, one per tile row. The reduction loop runs
// four steps per iteration; PREFETCHT0 keeps both panel streams 8
// cache lines ahead, and the C rows are prefetched before the loop so
// the epilogue finds them in L1.
TEXT ·microKernelAVX512(SB), NOSPLIT, $0-44
	MOVQ kc+0(FP), DX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ ct+24(FP), DI
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8

	MOVQ DI, R9
	MOVQ $16, CX

prefetchC:
	PREFETCHT0 (R9)
	ADDQ       R8, R9
	DECQ       CX
	JNZ        prefetchC

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

	MOVQ DX, CX
	SHRQ $2, CX
	JZ   tail512

loop512:
	PREFETCHT0 512(SI)
	PREFETCHT0 512(BX)
	STEP512(0)
	STEP512(64)
	PREFETCHT0 640(SI)
	PREFETCHT0 640(BX)
	STEP512(128)
	STEP512(192)
	ADDQ $256, SI
	ADDQ $256, BX
	DECQ CX
	JNZ  loop512

tail512:
	ANDQ $3, DX
	JZ   store512

step512:
	STEP512(0)
	ADDQ $64, SI
	ADDQ $64, BX
	DECQ DX
	JNZ  step512

store512:
	VBROADCASTSS alpha+40(FP), Z17
	ROW512(Z0)
	ROW512(Z1)
	ROW512(Z2)
	ROW512(Z3)
	ROW512(Z4)
	ROW512(Z5)
	ROW512(Z6)
	ROW512(Z7)
	ROW512(Z8)
	ROW512(Z9)
	ROW512(Z10)
	ROW512(Z11)
	ROW512(Z12)
	ROW512(Z13)
	ROW512(Z14)
	ROW512(Z15)
	VZEROUPPER
	RET

// ROW2 is one A row of a reduction step on AVX2: broadcast its value
// at off(SI) and FMA it with the B row's two halves (Y12, Y13) into the
// row's two accumulators.
#define ROW2(off, lo, hi) \
	VBROADCASTSS off(SI), Y14; \
	VFMADD231PS  Y12, Y14, lo; \
	VFMADD231PS  Y13, Y14, hi

// LOADB2 loads one 16-float B row into Y12 and Y13.
#define LOADB2 \
	VMOVUPS (BX), Y12; \
	VMOVUPS 32(BX), Y13

// STORE2 adds alpha (Y15) times one row's two accumulators into the C
// row at DI and steps DI to the next row.
#define STORE2(lo, hi) \
	VMOVUPS     (DI), Y14; \
	VFMADD231PS Y15, lo, Y14; \
	VMOVUPS     Y14, (DI); \
	VMOVUPS     32(DI), Y14; \
	VFMADD231PS Y15, hi, Y14; \
	VMOVUPS     Y14, 32(DI); \
	ADDQ        R8, DI

// ZERO12 clears the twelve accumulators Y0-Y11.
#define ZERO12 \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7; \
	VXORPS Y8, Y8, Y8; \
	VXORPS Y9, Y9, Y9; \
	VXORPS Y10, Y10, Y10; \
	VXORPS Y11, Y11, Y11

// func microKernelAVX2(kc int, ap, bp, ct *float32, ldc int, alpha float32)
//
// The 16x16 tile as three row groups, rows 0-5, 6-11 and 12-15, each
// with two ymm accumulators per row (12 in a six-row group, BLIS's
// Haswell 6x16 shape). Every group streams the whole B panel again
// from L1 and reads its rows' values of each A step.
TEXT ·microKernelAVX2(SB), NOSPLIT, $0-44
	MOVQ ct+24(FP), DI
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8

	// Rows 0-5.
	MOVQ kc+0(FP), DX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	ZERO12

group0:
	PREFETCHT0 256(BX)
	LOADB2
	ROW2(0, Y0, Y1)
	ROW2(4, Y2, Y3)
	ROW2(8, Y4, Y5)
	ROW2(12, Y6, Y7)
	ROW2(16, Y8, Y9)
	ROW2(20, Y10, Y11)
	ADDQ $64, SI
	ADDQ $64, BX
	DECQ DX
	JNZ  group0

	VBROADCASTSS alpha+40(FP), Y15
	STORE2(Y0, Y1)
	STORE2(Y2, Y3)
	STORE2(Y4, Y5)
	STORE2(Y6, Y7)
	STORE2(Y8, Y9)
	STORE2(Y10, Y11)

	// Rows 6-11.
	MOVQ kc+0(FP), DX
	MOVQ ap+8(FP), SI
	ADDQ $24, SI
	MOVQ bp+16(FP), BX
	ZERO12

group1:
	LOADB2
	ROW2(0, Y0, Y1)
	ROW2(4, Y2, Y3)
	ROW2(8, Y4, Y5)
	ROW2(12, Y6, Y7)
	ROW2(16, Y8, Y9)
	ROW2(20, Y10, Y11)
	ADDQ $64, SI
	ADDQ $64, BX
	DECQ DX
	JNZ  group1

	STORE2(Y0, Y1)
	STORE2(Y2, Y3)
	STORE2(Y4, Y5)
	STORE2(Y6, Y7)
	STORE2(Y8, Y9)
	STORE2(Y10, Y11)

	// Rows 12-15.
	MOVQ kc+0(FP), DX
	MOVQ ap+8(FP), SI
	ADDQ $48, SI
	MOVQ bp+16(FP), BX
	ZERO12

group2:
	LOADB2
	ROW2(0, Y0, Y1)
	ROW2(4, Y2, Y3)
	ROW2(8, Y4, Y5)
	ROW2(12, Y6, Y7)
	ADDQ $64, SI
	ADDQ $64, BX
	DECQ DX
	JNZ  group2

	STORE2(Y0, Y1)
	STORE2(Y2, Y3)
	STORE2(Y4, Y5)
	STORE2(Y6, Y7)

	VZEROUPPER
	RET

// ROW1 is one A row of a reduction step on the left half of the tile:
// broadcast its value at off(SI) and FMA it with the B row's left half
// (Y12) into the row's accumulator.
#define ROW1(off, acc) \
	VBROADCASTSS off(SI), Y14; \
	VFMADD231PS  Y12, Y14, acc

// STORE1 adds alpha (Y15) times one accumulator into the left half of
// the C row at DI and steps DI to the next row.
#define STORE1(acc) \
	VMOVUPS     (DI), Y14; \
	VFMADD231PS Y15, acc, Y14; \
	VMOVUPS     Y14, (DI); \
	ADDQ        R8, DI

// func microKernelAVX2N8(kc int, ap, bp, ct *float32, ldc int, alpha float32)
//
// The left eight columns of the 16x16 tile, for edge tiles with at
// most eight valid columns: rows 0-7 and 8-15 as two groups of eight
// ymm accumulators, each reading the left half of every B row. The
// same FMAs in the same order as microKernelAVX2's left half, so the
// eight columns are bit-identical to it; columns 8-15 of C are not
// touched.
TEXT ·microKernelAVX2N8(SB), NOSPLIT, $0-44
	MOVQ ct+24(FP), DI
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8
	VBROADCASTSS alpha+40(FP), Y15

	// Rows 0-7.
	MOVQ kc+0(FP), DX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	ZERO12

half0:
	VMOVUPS (BX), Y12
	ROW1(0, Y0)
	ROW1(4, Y1)
	ROW1(8, Y2)
	ROW1(12, Y3)
	ROW1(16, Y4)
	ROW1(20, Y5)
	ROW1(24, Y6)
	ROW1(28, Y7)
	ADDQ $64, SI
	ADDQ $64, BX
	DECQ DX
	JNZ  half0

	STORE1(Y0)
	STORE1(Y1)
	STORE1(Y2)
	STORE1(Y3)
	STORE1(Y4)
	STORE1(Y5)
	STORE1(Y6)
	STORE1(Y7)

	// Rows 8-15.
	MOVQ kc+0(FP), DX
	MOVQ ap+8(FP), SI
	ADDQ $32, SI
	MOVQ bp+16(FP), BX
	ZERO12

half1:
	VMOVUPS (BX), Y12
	ROW1(0, Y0)
	ROW1(4, Y1)
	ROW1(8, Y2)
	ROW1(12, Y3)
	ROW1(16, Y4)
	ROW1(20, Y5)
	ROW1(24, Y6)
	ROW1(28, Y7)
	ADDQ $64, SI
	ADDQ $64, BX
	DECQ DX
	JNZ  half1

	STORE1(Y0)
	STORE1(Y1)
	STORE1(Y2)
	STORE1(Y3)
	STORE1(Y4)
	STORE1(Y5)
	STORE1(Y6)
	STORE1(Y7)

	VZEROUPPER
	RET

// func transpose8Strips(src *float32, lda, blocks int, dst *float32)
//
// Transposes blocks consecutive 8x8 blocks of an 8-row strip: block b
// reads floats [8b, 8b+8) of rows src + r*lda (r < 8) and writes its
// column j to the 8 floats at dst + (8b+j)*16, so each reduction step
// of a p-major kcx16 A panel receives the strip's eight values.
// Unpack, shuffle and 128-bit lane permutes, three stages of eight.
TEXT ·transpose8Strips(SB), NOSPLIT, $0-32
	MOVQ src+0(FP), SI
	MOVQ lda+8(FP), R8
	SHLQ $2, R8
	MOVQ blocks+16(FP), CX
	MOVQ dst+24(FP), DI
	TESTQ CX, CX
	JZ   tdone

	// Row bases: SI row 0, R9 row 3, R10 row 6; rows 1, 2, 4, 5, 7
	// through (base)(R8*{1,2}).
	LEAQ (SI)(R8*2), R9
	ADDQ R8, R9
	LEAQ (R9)(R8*2), R10
	ADDQ R8, R10

tloop:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R8*1), Y1
	VMOVUPS (SI)(R8*2), Y2
	VMOVUPS (R9), Y3
	VMOVUPS (R9)(R8*1), Y4
	VMOVUPS (R9)(R8*2), Y5
	VMOVUPS (R10), Y6
	VMOVUPS (R10)(R8*1), Y7

	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15

	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 64(DI)
	VMOVUPS Y10, 128(DI)
	VMOVUPS Y11, 192(DI)
	VMOVUPS Y12, 256(DI)
	VMOVUPS Y13, 320(DI)
	VMOVUPS Y14, 384(DI)
	VMOVUPS Y15, 448(DI)

	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $512, DI
	DECQ CX
	JNZ  tloop

	VZEROUPPER

tdone:
	RET
