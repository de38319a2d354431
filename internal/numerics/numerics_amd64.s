//go:build amd64 && !purego

#include "textflag.h"

// func firstNonFinite(xs []float32) int
//
// A float32 is a NaN or an infinity exactly when its eight exponent bits are
// all set: (bits AND 0x7f800000) == 0x7f800000, which is !IsFinite32 on the
// bits, subnormals and ±0 finite. Eight floats a step in two 128-bit
// compares; the first step with a hit names its lane with MOVMSKPS and
// BSFL. Then four, then one at a time. len(xs) > 0.
TEXT ·firstNonFinite(SB), NOSPLIT, $0-32
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	MOVQ $0x7f800000, AX
	MOVQ AX, X7
	PSHUFD $0, X7, X7
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

nf8:
	CMPQ AX, DX
	JGE  nf4
	MOVOU (SI)(AX*4), X0
	MOVOU 16(SI)(AX*4), X1
	PAND X7, X0
	PAND X7, X1
	PCMPEQL X7, X0
	PCMPEQL X7, X1
	MOVMSKPS X0, BX
	MOVMSKPS X1, R8
	SHLL $4, R8
	ORL  R8, BX
	JNZ  nfHit
	ADDQ $8, AX
	JMP  nf8

nf4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  nf1
	MOVOU (SI)(AX*4), X0
	PAND X7, X0
	PCMPEQL X7, X0
	MOVMSKPS X0, BX
	TESTL BX, BX
	JNZ  nfHit
	ADDQ $4, AX

nf1:
	CMPQ AX, CX
	JGE  nfNone
	MOVL (SI)(AX*4), BX
	ANDL $0x7f800000, BX
	CMPL BX, $0x7f800000
	JEQ  nfFound
	INCQ AX
	JMP  nf1

nfHit:
	BSFL BX, BX
	ADDQ BX, AX

nfFound:
	MOVQ AX, ret+24(FP)
	RET

nfNone:
	MOVQ $-1, ret+24(FP)
	RET
