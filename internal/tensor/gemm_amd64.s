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

// func axpy4AVX(c, b []float32, a0, a1, a2, a3 float32)
//
// c holds four consecutive rows of len(b) floats: c[r*n+j] += a_r * b[j].
TEXT ·axpy4AVX(SB), NOSPLIT, $0-64
	MOVQ c_base+0(FP), DI
	MOVQ b_base+24(FP), SI
	MOVQ b_len+32(FP), CX
	VBROADCASTSS a0+48(FP), X0
	VBROADCASTSS a1+52(FP), X1
	VBROADCASTSS a2+56(FP), X2
	VBROADCASTSS a3+60(FP), X3
	LEAQ (DI)(CX*4), R8  // row 1
	LEAQ (R8)(CX*4), R9  // row 2
	LEAQ (R9)(CX*4), R10 // row 3
	XORQ AX, AX          // j
	MOVQ CX, DX
	ANDQ $-8, DX         // n rounded down to pairs of vectors
	JZ   vec4x1

vec4x2:
	VMOVUPS (SI)(AX*4), X4
	VMOVUPS 16(SI)(AX*4), X9
	VMULPS X0, X4, X5
	VMULPS X1, X4, X6
	VMULPS X2, X4, X7
	VMULPS X3, X4, X8
	VMULPS X0, X9, X10
	VMULPS X1, X9, X11
	VMULPS X2, X9, X12
	VMULPS X3, X9, X13
	VADDPS (DI)(AX*4), X5, X5
	VADDPS (R8)(AX*4), X6, X6
	VADDPS (R9)(AX*4), X7, X7
	VADDPS (R10)(AX*4), X8, X8
	VADDPS 16(DI)(AX*4), X10, X10
	VADDPS 16(R8)(AX*4), X11, X11
	VADDPS 16(R9)(AX*4), X12, X12
	VADDPS 16(R10)(AX*4), X13, X13
	VMOVUPS X5, (DI)(AX*4)
	VMOVUPS X6, (R8)(AX*4)
	VMOVUPS X7, (R9)(AX*4)
	VMOVUPS X8, (R10)(AX*4)
	VMOVUPS X10, 16(DI)(AX*4)
	VMOVUPS X11, 16(R8)(AX*4)
	VMOVUPS X12, 16(R9)(AX*4)
	VMOVUPS X13, 16(R10)(AX*4)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  vec4x2

vec4x1:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  tail4
	VMOVUPS (SI)(AX*4), X4
	VMULPS X0, X4, X5
	VMULPS X1, X4, X6
	VMULPS X2, X4, X7
	VMULPS X3, X4, X8
	VADDPS (DI)(AX*4), X5, X5
	VADDPS (R8)(AX*4), X6, X6
	VADDPS (R9)(AX*4), X7, X7
	VADDPS (R10)(AX*4), X8, X8
	VMOVUPS X5, (DI)(AX*4)
	VMOVUPS X6, (R8)(AX*4)
	VMOVUPS X7, (R9)(AX*4)
	VMOVUPS X8, (R10)(AX*4)
	ADDQ $4, AX

tail4:
	CMPQ AX, CX
	JGE  done4
	VMOVSS (SI)(AX*4), X4
	VMULSS X0, X4, X5
	VMULSS X1, X4, X6
	VMULSS X2, X4, X7
	VMULSS X3, X4, X8
	VADDSS (DI)(AX*4), X5, X5
	VADDSS (R8)(AX*4), X6, X6
	VADDSS (R9)(AX*4), X7, X7
	VADDSS (R10)(AX*4), X8, X8
	VMOVSS X5, (DI)(AX*4)
	VMOVSS X6, (R8)(AX*4)
	VMOVSS X7, (R9)(AX*4)
	VMOVSS X8, (R10)(AX*4)
	INCQ AX
	JMP  tail4

done4:
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
