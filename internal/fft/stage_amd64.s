//go:build amd64

#include "textflag.h"

// Every stage kernel runs the four butterfly cases of difStageGo or
// ditStageGo over a row pair lo (SI) and hi (DX), a whole vector of
// bins at a time, with the column byte offset in AX. A complex product
// v·w is v·wr + swap(v)·(−wi, wi): a multiply, a lane swap, a multiply
// by the sign-flipped twiddle and an add, with no FMA, which rounds
// each bin exactly as mul in Go does. Registers across a stage:
//
//	DI  block base          BX   blocks left
//	R8  bytes of whole vectors per row
//	R9  row bytes (m·8)     R10  hi offset (half rows)
//	R11 twiddle stride      R12  lim         R13  full
//	CX  row i               R14  twiddle tw[i·blocks]

// Loads and stores: whole ymm or xmm vectors, and the last single bin
// of a row. A row's tail runs as unmasked narrower vectors (two
// bins, then one), never as a masked store: a masked store does not
// forward to the next stage's load of the same bins, and that stall
// cost more than the tail's work.
#define LDU(mem, r) VMOVUPS mem, r
#define STU(r, mem) VMOVUPS r, mem
#define LD1(mem, r) VMOVSD mem, r
#define ST1(r, mem) VMOVSD r, mem

#define LO (SI)(AX*1)
#define HI (DX)(AX*1)

// Every body below runs on registers 0–4, with the row's twiddle as
// wr (wr in every lane, register 14) and wi ((−wi, wi) in every bin,
// register 13), so one body serves the ymm vectors and the xmm tail.

// v ← v·w, with t as scratch.
#define CMUL(v, t, wr, wi) \
	VPERMILPS $0xB1, v, t; \
	VMULPS    wr, v, v; \
	VMULPS    wi, t, t; \
	VADDPS    t, v, v

// A: lo, hi = a+b, a−b (twiddle 1, both live).
#define BFLY_A(LD, ST, r0, r1, r2, r3, r4, wr, wi) \
	LD(LO, r0); LD(HI, r1); \
	VADDPS r1, r0, r2; VSUBPS r1, r0, r3; \
	ST(r2, LO); ST(r3, HI)

// DIF B: hi = lo (twiddle 1, zero partner).
#define DIF_B(LD, ST, r0, r1, r2, r3, r4, wr, wi) LD(LO, r0); ST(r0, HI)

// DIF C: lo, hi = a+b, (a−b)·w.
#define DIF_C(LD, ST, r0, r1, r2, r3, r4, wr, wi) \
	LD(LO, r0); LD(HI, r1); \
	VADDPS r1, r0, r2; VSUBPS r1, r0, r3; \
	ST(r2, LO); CMUL(r3, r4, wr, wi); ST(r3, HI)

// DIF D: hi = a·w (zero partner).
#define DIF_D(LD, ST, r0, r1, r2, r3, r4, wr, wi) LD(LO, r0); CMUL(r0, r4, wr, wi); ST(r0, HI)

// DIT B: lo += hi (twiddle 1, hi not needed).
#define DIT_B(LD, ST, r0, r1, r2, r3, r4, wr, wi) LD(LO, r0); LD(HI, r1); VADDPS r1, r0, r0; ST(r0, LO)

// DIT C: b = hi·w; lo, hi = a+b, a−b.
#define DIT_C(LD, ST, r0, r1, r2, r3, r4, wr, wi) \
	LD(LO, r0); LD(HI, r1); CMUL(r1, r4, wr, wi); \
	VADDPS r1, r0, r2; VSUBPS r1, r0, r3; \
	ST(r2, LO); ST(r3, HI)

// DIT D: lo += hi·w (hi not needed).
#define DIT_D(LD, ST, r0, r1, r2, r3, r4, wr, wi) \
	LD(LO, r0); LD(HI, r1); CMUL(r1, r4, wr, wi); VADDPS r1, r0, r0; ST(r0, LO)

// COLS runs BODY over the row pair: whole ymm vectors of four bins,
// then the m mod 4 tail bins as an xmm and a single bin.
#define COLS(BODY, loop, t2, t1, end) \
	XORQ AX, AX; \
loop: \
	CMPQ  AX, R8; \
	JGE   t2; \
	BODY(LDU, STU, Y0, Y1, Y2, Y3, Y4, Y14, Y13); \
	ADDQ  $32, AX; \
	JMP   loop; \
t2: \
	TESTQ $2, m+16(FP); \
	JZ    t1; \
	BODY(LDU, STU, X0, X1, X2, X3, X4, X14, X13); \
	ADDQ  $16, AX; \
t1: \
	TESTQ $1, m+16(FP); \
	JZ    end; \
	BODY(LD1, ST1, X0, X1, X2, X3, X4, X14, X13); \
end:

// Twiddle of the current row: wr in every lane of register 14, (−wi,
// wi) in every bin of register 13 (register 12 holds the real-lane
// sign bits).
#define TW \
	VBROADCASTSS (R14), Y14; \
	VBROADCASTSS 4(R14), Y13; \
	VXORPS       Y12, Y13, Y13

// ARGS loads the scalar arguments into the registers listed above and
// returns when lim is 0.
#define ARGS \
	MOVQ  m+16(FP), R9; \
	MOVQ  R9, R8; \
	SHRQ  $2, R8; \
	SHLQ  $5, R8; \
	SHLQ  $3, R9; \
	MOVQ  half+24(FP), R10; \
	IMULQ R9, R10; \
	MOVQ  blocks+32(FP), BX; \
	MOVQ  BX, R11; \
	SHLQ  $3, R11; \
	MOVQ  lim+40(FP), R12; \
	MOVQ  full+48(FP), R13; \
	MOVQ  x+0(FP), DI; \
	TESTQ R12, R12; \
	JZ    done

// STAGE runs one stage: per block, row 0 as case A (full > 0) or B,
// rows 1 … full−1 as case C and rows max(full, 1) … lim−1 as case D.
#define STAGE(A, B, C, D) \
block: \
	MOVQ DI, SI; \
	LEAQ (DI)(R10*1), DX; \
	MOVQ tw+8(FP), R14; \
	TESTQ R13, R13; \
	JZ   row0b; \
	COLS(A, la, ta2, ta1, ea); \
	JMP  row0done; \
row0b: \
	COLS(B, lb, tb2, tb1, eb); \
row0done: \
	ADDQ R9, SI; ADDQ R9, DX; ADDQ R11, R14; \
	MOVQ $1, CX; \
rowsC: \
	CMPQ CX, R13; \
	JGE  rowsD; \
	TW; \
	COLS(C, lc, tc2, tc1, ec); \
	ADDQ R9, SI; ADDQ R9, DX; ADDQ R11, R14; \
	INCQ CX; \
	JMP  rowsC; \
rowsD: \
	CMPQ CX, R12; \
	JGE  next; \
	TW; \
	COLS(D, ld, td2, td1, ed); \
	ADDQ R9, SI; ADDQ R9, DX; ADDQ R11, R14; \
	INCQ CX; \
	JMP  rowsD; \
next: \
	LEAQ (DI)(R10*2), DI; \
	DECQ BX; \
	JNZ  block

// SETUP puts the sign bit of every real lane in register 12.
#define SETUP \
	MOVQ         $0x80000000, AX; \
	VMOVQ        AX, X12; \
	VPBROADCASTQ X12, Y12

// func difStageAVX2(x, tw *complex64, m, half, blocks, lim, full int)
TEXT ·difStageAVX2(SB), NOSPLIT, $0-56
	ARGS
	SETUP
	STAGE(BFLY_A, DIF_B, DIF_C, DIF_D)
done:
	VZEROUPPER
	RET

// func ditStageAVX2(x, tw *complex64, m, half, blocks, lim, full int)
TEXT ·ditStageAVX2(SB), NOSPLIT, $0-56
	ARGS
	SETUP
	STAGE(BFLY_A, DIT_B, DIT_C, DIT_D)
done:
	VZEROUPPER
	RET
