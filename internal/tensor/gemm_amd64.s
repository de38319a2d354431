//go:build amd64 && !purego

#include "textflag.h"

// AVX micro-kernels for the fp32 GEMM inner loops (see gemm_amd64.go).
//
// Bitwise contract with the Go loops in matmul.go, per element:
//
//	c[j] = (b[j] * a) + c[j]
//
// as two separately rounded IEEE operations — a multiply then an add, never
// a fused multiply-add. x86 keeps the FIRST source's payload when both
// operands are NaN, so operand order is part of the contract: the product is
// b*a (b first) and the sum is product+c (product first), the order the
// compiler emits for `c[j] += a * b[j]`. In Go assembler syntax the first
// source is the MIDDLE operand: VMULPS a, b, p computes p = b*a.
//
// The arithmetic is VEX-encoded but 128 bits wide (X registers, 4 lanes), on
// purpose. 256-bit floating-point arithmetic puts an Intel server core under
// its AVX frequency licence, and a training step issues GEMMs often enough
// that the licence never lapses, so everything else — im2col, batch norm,
// exp, tanh — runs at the lower clock too; how much lower follows the load
// on the host's other cores, which shows up as run-to-run spread. The
// measurements are in EXPERIMENTS.md ("fp32 SIMD micro-kernels"). 256-bit
// data movement (the transposition below, the runtime's memmove) does not
// take the licence.

// func gemmTile4AVX(c, b, a *float32, n, kLen, aRow, aK int)
//
// Four consecutive rows of C (row length n) and kLen consecutive k-steps:
//
//	c[r*n+j] += a[r*aRow+kk*aK] * b[kk*n+j]    r < 4, kk < kLen, j < n
//
// with kk ascending for every element. The columns are walked in tiles of 8,
// then one tile of 4, then single columns. A tile of C is loaded into
// registers once, receives the kLen products of each of its elements in
// ascending kk, and is stored once; between the load and the store the chain
// of an element lives in one register lane, so the additions it sees and
// their order are those of kLen passes of the Go loop over the row. Every
// a must be non-zero (the caller's run splitting sees to it): nothing here
// tests for the skip rule.
//
// Registers in the 8-wide tile: X0-X7 the accumulators (row r in X(2r),
// X(2r+1)), X8/X9 the two B vectors of the k-step, X10/X13 the broadcast a
// of alternating rows, X11/X12/X14/X15 the products.
TEXT ·gemmTile4AVX(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ a+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ kLen+32(FP), R8
	MOVQ aRow+40(FP), R9
	MOVQ aK+48(FP), R10
	SHLQ $2, R9             // a row step, bytes
	SHLQ $2, R10            // a k step, bytes
	LEAQ (R9)(R9*2), R11    // three a rows
	LEAQ (CX*4), R12        // row step of b and c, bytes
	CMPQ CX, $8
	JLT  tile4

tile8:
	VMOVUPS (DI), X0
	VMOVUPS 16(DI), X1
	VMOVUPS (DI)(R12*1), X2
	VMOVUPS 16(DI)(R12*1), X3
	VMOVUPS (DI)(R12*2), X4
	VMOVUPS 16(DI)(R12*2), X5
	LEAQ (DI)(R12*2), AX
	VMOVUPS (AX)(R12*1), X6
	VMOVUPS 16(AX)(R12*1), X7
	MOVQ SI, AX             // b, this tile's columns at step kk
	MOVQ DX, BX             // a, row 0 at step kk
	MOVQ R8, R13

k8:
	VMOVUPS (AX), X8
	VMOVUPS 16(AX), X9
	VBROADCASTSS (BX), X10
	VBROADCASTSS (BX)(R9*1), X13
	VMULPS X10, X8, X11
	VMULPS X10, X9, X12
	VMULPS X13, X8, X14
	VMULPS X13, X9, X15
	VADDPS X0, X11, X0
	VADDPS X1, X12, X1
	VADDPS X2, X14, X2
	VADDPS X3, X15, X3
	VBROADCASTSS (BX)(R9*2), X10
	VBROADCASTSS (BX)(R11*1), X13
	VMULPS X10, X8, X11
	VMULPS X10, X9, X12
	VMULPS X13, X8, X14
	VMULPS X13, X9, X15
	VADDPS X4, X11, X4
	VADDPS X5, X12, X5
	VADDPS X6, X14, X6
	VADDPS X7, X15, X7
	ADDQ R12, AX
	ADDQ R10, BX
	DECQ R13
	JNZ  k8

	VMOVUPS X0, (DI)
	VMOVUPS X1, 16(DI)
	VMOVUPS X2, (DI)(R12*1)
	VMOVUPS X3, 16(DI)(R12*1)
	VMOVUPS X4, (DI)(R12*2)
	VMOVUPS X5, 16(DI)(R12*2)
	LEAQ (DI)(R12*2), AX
	VMOVUPS X6, (AX)(R12*1)
	VMOVUPS X7, 16(AX)(R12*1)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  tile8

tile4:
	TESTQ $4, CX
	JZ    tile1
	VMOVUPS (DI), X0
	VMOVUPS (DI)(R12*1), X2
	VMOVUPS (DI)(R12*2), X4
	LEAQ (DI)(R12*2), AX
	VMOVUPS (AX)(R12*1), X6
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R8, R13

k4:
	VMOVUPS (AX), X8
	VBROADCASTSS (BX), X10
	VBROADCASTSS (BX)(R9*1), X13
	VMULPS X10, X8, X11
	VMULPS X13, X8, X14
	VADDPS X0, X11, X0
	VADDPS X2, X14, X2
	VBROADCASTSS (BX)(R9*2), X10
	VBROADCASTSS (BX)(R11*1), X13
	VMULPS X10, X8, X11
	VMULPS X13, X8, X14
	VADDPS X4, X11, X4
	VADDPS X6, X14, X6
	ADDQ R12, AX
	ADDQ R10, BX
	DECQ R13
	JNZ  k4

	VMOVUPS X0, (DI)
	VMOVUPS X2, (DI)(R12*1)
	VMOVUPS X4, (DI)(R12*2)
	LEAQ (DI)(R12*2), AX
	VMOVUPS X6, (AX)(R12*1)
	ADDQ $16, DI
	ADDQ $16, SI

tile1:
	ANDQ $3, CX             // single columns left
	JZ   doneTile

col1:
	VMOVSS (DI), X0
	VMOVSS (DI)(R12*1), X2
	VMOVSS (DI)(R12*2), X4
	LEAQ (DI)(R12*2), AX
	VMOVSS (AX)(R12*1), X6
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R8, R13

k1:
	VMOVSS (AX), X8
	VMULSS (BX), X8, X11
	VMULSS (BX)(R9*1), X8, X14
	VADDSS X0, X11, X0
	VADDSS X2, X14, X2
	VMULSS (BX)(R9*2), X8, X11
	VMULSS (BX)(R11*1), X8, X14
	VADDSS X4, X11, X4
	VADDSS X6, X14, X6
	ADDQ R12, AX
	ADDQ R10, BX
	DECQ R13
	JNZ  k1

	VMOVSS X0, (DI)
	VMOVSS X2, (DI)(R12*1)
	VMOVSS X4, (DI)(R12*2)
	LEAQ (DI)(R12*2), AX
	VMOVSS X6, (AX)(R12*1)
	ADDQ $4, DI
	ADDQ $4, SI
	DECQ CX
	JNZ  col1

doneTile:
	RET

// func denseRun4AVX(a *float32, kLen, aRow, aK int) int
//
// A k-step kk is dense when none of a[r*aRow+kk*aK], r < 4, is zero. This
// counts the dense steps at the head of the kLen starting at a: the index of
// the first step that is not dense, or kLen. VCMPPS with predicate 0 (EQ,
// ordered, quiet) against +0 is true for +0 and -0 and false for everything
// else, NaNs included: the Go loops' `av == 0`. Two layouts are vectorized,
// the two the GEMM driver has: aRow == 1 (the four values of a step are
// adjacent: one compare per step) and aK == 1 (the steps of a row are
// adjacent: four steps per iteration, one compare per row, the masks ORed).
// kLen > 0.
TEXT ·denseRun4AVX(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ kLen+8(FP), CX
	MOVQ aRow+16(FP), R9
	MOVQ aK+24(FP), R10
	VXORPS X0, X0, X0
	XORQ AX, AX             // kk
	CMPQ R9, $1
	JNE  rows

	SHLQ $2, R10

adjacent:
	VCMPPS $0, (SI), X0, X1
	VMOVMSKPS X1, DX
	TESTL DX, DX
	JNZ  doneRun
	ADDQ R10, SI
	INCQ AX
	CMPQ AX, CX
	JLT  adjacent
	JMP  doneRun

rows:
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R11
	MOVQ CX, R8
	ANDQ $-4, R8            // kLen rounded down to whole vectors
	JZ   rowsTail

rows4:
	LEAQ (SI)(AX*4), BX
	VCMPPS $0, (BX), X0, X1
	VCMPPS $0, (BX)(R9*1), X0, X2
	VCMPPS $0, (BX)(R9*2), X0, X3
	VCMPPS $0, (BX)(R11*1), X0, X4
	VORPS X2, X1, X1
	VORPS X4, X3, X3
	VORPS X3, X1, X1
	VMOVMSKPS X1, DX
	TESTL DX, DX
	JNZ  rowsHit
	ADDQ $4, AX
	CMPQ AX, R8
	JLT  rows4

rowsTail:
	CMPQ AX, CX
	JGE  doneRun
	LEAQ (SI)(AX*4), BX
	VMOVSS (BX), X1
	VMOVSS (BX)(R9*1), X2
	VMOVSS (BX)(R9*2), X3
	VMOVSS (BX)(R11*1), X4
	VCMPPS $0, X1, X0, X1   // the upper lanes hold +0 and compare true:
	VCMPPS $0, X2, X0, X2   // only lane 0 is looked at
	VCMPPS $0, X3, X0, X3
	VCMPPS $0, X4, X0, X4
	VORPS X2, X1, X1
	VORPS X4, X3, X3
	VORPS X3, X1, X1
	VMOVMSKPS X1, DX
	TESTL $1, DX
	JNZ  doneRun
	INCQ AX
	JMP  rowsTail

rowsHit:
	BSFL DX, DX             // first of the four steps with a zero in some row
	ADDQ DX, AX

doneRun:
	MOVQ AX, ret+32(FP)
	RET

// func axpy1AVX(c, b []float32, a float32)
//
// c[j] += a * b[j] for j < len(b); len(c) >= len(b).
TEXT ·axpy1AVX(SB), NOSPLIT, $0-52
	MOVQ c_base+0(FP), DI
	MOVQ b_base+24(FP), SI
	MOVQ b_len+32(FP), CX
	VBROADCASTSS a+48(FP), X0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   vec1

vec1x4:
	VMOVUPS (SI)(AX*4), X1
	VMOVUPS 16(SI)(AX*4), X2
	VMOVUPS 32(SI)(AX*4), X3
	VMOVUPS 48(SI)(AX*4), X4
	VMULPS X0, X1, X1
	VMULPS X0, X2, X2
	VMULPS X0, X3, X3
	VMULPS X0, X4, X4
	VADDPS (DI)(AX*4), X1, X1
	VADDPS 16(DI)(AX*4), X2, X2
	VADDPS 32(DI)(AX*4), X3, X3
	VADDPS 48(DI)(AX*4), X4, X4
	VMOVUPS X1, (DI)(AX*4)
	VMOVUPS X2, 16(DI)(AX*4)
	VMOVUPS X3, 32(DI)(AX*4)
	VMOVUPS X4, 48(DI)(AX*4)
	ADDQ $16, AX
	CMPQ AX, DX
	JLT  vec1x4

vec1:
	MOVQ CX, DX
	ANDQ $-4, DX

vec1x1:
	CMPQ AX, DX
	JGE  tail1
	VMOVUPS (SI)(AX*4), X1
	VMULPS X0, X1, X1
	VADDPS (DI)(AX*4), X1, X1
	VMOVUPS X1, (DI)(AX*4)
	ADDQ $4, AX
	JMP  vec1x1

tail1:
	CMPQ AX, CX
	JGE  done1
	VMOVSS (SI)(AX*4), X1
	VMULSS X0, X1, X1
	VADDSS (DI)(AX*4), X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ AX
	JMP  tail1

done1:
	RET

// func transposeStrip8AVX(dst, src []float32, rows, cols int)
//
// src is positioned at the first of eight rows of a [rows,cols] matrix, dst
// at the matching column of its [cols,rows] transpose. Transposes the
// 8 x (cols rounded down to a multiple of 8) strip, one 8x8 block at a
// time: 32-bit then 64-bit interleaves within the 128-bit lanes, then a
// lane exchange. Pure data movement; no arithmetic.
TEXT ·transposeStrip8AVX(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ rows+48(FP), R11
	MOVQ cols+56(FP), R10
	MOVQ R10, CX
	SHRQ $3, CX            // whole blocks in the strip
	JZ   doneT
	SHLQ $2, R10           // source row stride, bytes
	SHLQ $2, R11           // destination row stride, bytes
	LEAQ (R10)(R10*2), R12 // 3 source rows
	LEAQ (R11)(R11*2), R13 // 3 destination rows

blockT:
	LEAQ (SI)(R10*4), AX
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R10*1), Y1
	VMOVUPS (SI)(R10*2), Y2
	VMOVUPS (SI)(R12*1), Y3
	VMOVUPS (AX), Y4
	VMOVUPS (AX)(R10*1), Y5
	VMOVUPS (AX)(R10*2), Y6
	VMOVUPS (AX)(R12*1), Y7
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15
	VUNPCKLPD Y10, Y8, Y0
	VUNPCKHPD Y10, Y8, Y1
	VUNPCKLPD Y11, Y9, Y2
	VUNPCKHPD Y11, Y9, Y3
	VUNPCKLPD Y14, Y12, Y4
	VUNPCKHPD Y14, Y12, Y5
	VUNPCKLPD Y15, Y13, Y6
	VUNPCKHPD Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	LEAQ (DI)(R11*4), AX
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, (DI)(R11*1)
	VMOVUPS Y10, (DI)(R11*2)
	VMOVUPS Y11, (DI)(R13*1)
	VMOVUPS Y12, (AX)
	VMOVUPS Y13, (AX)(R11*1)
	VMOVUPS Y14, (AX)(R11*2)
	VMOVUPS Y15, (AX)(R13*1)
	ADDQ $32, SI
	LEAQ (AX)(R11*4), DI
	DECQ CX
	JNZ  blockT

doneT:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
