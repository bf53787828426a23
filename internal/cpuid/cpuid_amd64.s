//go:build amd64

#include "textflag.h"

// func probe() Level
//
// Returns AVX512, AVX2 or Go (see cpuid.go).
// Leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
// XGETBV(0): XMM|YMM state (bits 1-2); with AVX-512 also the opmask,
// ZMM_Hi256 and Hi16_ZMM state (bits 5-7), mask 0xE6 in all.
// Leaf 7 EBX: AVX2 (bit 5), AVX512F (bit 16).
TEXT ·probe(SB), NOSPLIT, $0-8
	MOVQ $0, ret+0(FP)

	// Max basic leaf must reach 7.
	MOVL $0, AX
	MOVL $0, CX
	CPUID
	CMPL AX, $7
	JL   done

	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $((1<<12)|(1<<27)|(1<<28)), CX
	CMPL CX, $((1<<12)|(1<<27)|(1<<28))
	JNE  done

	MOVL   $0, CX
	XGETBV
	MOVL   AX, R8
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    done

	MOVL $7, AX
	MOVL $0, CX
	CPUID
	MOVL BX, R9
	ANDL $(1<<5), BX
	JZ   done
	MOVQ $1, ret+0(FP)

	ANDL $(1<<16), R9
	JZ   done
	ANDL $0xE6, R8
	CMPL R8, $0xE6
	JNE  done
	MOVQ $2, ret+0(FP)

done:
	RET
