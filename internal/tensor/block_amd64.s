//go:build amd64 && !purego

#include "textflag.h"

// AVX block kernels for the convolution lowering (see moveBlocks / addBlocks
// in tensor.go, which check every extent before a pointer gets here).
//
// Both walk n blocks of rows x cols floats. Rows of a block lie dstStride /
// srcStride floats apart, blocks dstBlock / srcBlock floats apart. Both cut a
// row of four or more floats the same way, with no branch on the row's length
// inside the row loop: 4-float vectors at columns 0, 4, 8, ... while a vector
// starts before column cols-4, then one last vector AT column cols-4, which
// overlaps the one before it unless cols is a multiple of four. A 6-wide row
// (the campaign's output width) is the vectors at columns 0 and 2. The
// overlapped columns are computed twice from the same operands — the last
// vector is formed before anything in the row is stored — so the second store
// rewrites the bits the first one wrote. Rows narrower than a vector go
// element by element.
//
// moveBlocksAVX only moves bits: loads and stores, which do not look at the
// value (a signaling NaN comes out as it went in).
//
// addBlocksAVX is arithmetic and, like the GEMM kernels, 128 bits wide, so it
// never takes the AVX frequency licence (see gemm_amd64.s). Per element it
// computes
//
//	dst = dst + src
//
// with dst — the accumulator — as the FIRST source, which on x86 decides
// whose payload survives when both are NaN; that is the order the compiler
// emits for `drow[j] += srow[j]`. In Go assembler syntax the first source is
// the MIDDLE operand: VADDPS src, acc, acc.
//
// Register use, both kernels: DI/SI walk the rows, R10/R11 are the row
// strides in bytes, R12/R13 what takes DI/SI from the end of one block to the
// start of the next (block step minus rows row steps, in bytes), BX counts
// blocks, R8 rows, AX columns; CX = cols, R9 = cols-4, DX = the column the
// vector loop stops before.

// func moveBlocksAVX(dst, src []float32, n, rows, cols, dstBlock, srcBlock, dstStride, srcStride int)
TEXT ·moveBlocksAVX(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ n+48(FP), BX
	MOVQ rows+56(FP), R8
	MOVQ cols+64(FP), CX
	MOVQ dstBlock+72(FP), R12
	MOVQ srcBlock+80(FP), R13
	MOVQ dstStride+88(FP), R10
	MOVQ srcStride+96(FP), R11
	SHLQ $2, R10
	SHLQ $2, R11
	SHLQ $2, R12
	SHLQ $2, R13
	MOVQ R8, AX
	IMULQ R10, AX
	SUBQ AX, R12
	MOVQ R8, AX
	IMULQ R11, AX
	SUBQ AX, R13
	CMPQ CX, $4
	JLT  narrowM
	LEAQ -4(CX), R9
	LEAQ -1(CX), DX
	ANDQ $-4, DX

rowM:
	VMOVUPS (SI)(R9*4), X1
	XORQ AX, AX

vecM:
	VMOVUPS (SI)(AX*4), X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ $4, AX
	CMPQ AX, DX
	JLT  vecM
	VMOVUPS X1, (DI)(R9*4)
	ADDQ R11, SI
	ADDQ R10, DI
	DECQ R8
	JNZ  rowM
	ADDQ R13, SI
	ADDQ R12, DI
	MOVQ rows+56(FP), R8
	DECQ BX
	JNZ  rowM
	RET

narrowM:
	XORQ AX, AX

elemM:
	MOVL (SI)(AX*4), R9
	MOVL R9, (DI)(AX*4)
	INCQ AX
	CMPQ AX, CX
	JLT  elemM
	ADDQ R11, SI
	ADDQ R10, DI
	DECQ R8
	JNZ  narrowM
	ADDQ R13, SI
	ADDQ R12, DI
	MOVQ rows+56(FP), R8
	DECQ BX
	JNZ  narrowM
	RET

// func addBlocksAVX(dst, src []float32, n, rows, cols, dstBlock, srcBlock, dstStride, srcStride int)
TEXT ·addBlocksAVX(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ n+48(FP), BX
	MOVQ rows+56(FP), R8
	MOVQ cols+64(FP), CX
	MOVQ dstBlock+72(FP), R12
	MOVQ srcBlock+80(FP), R13
	MOVQ dstStride+88(FP), R10
	MOVQ srcStride+96(FP), R11
	SHLQ $2, R10
	SHLQ $2, R11
	SHLQ $2, R12
	SHLQ $2, R13
	MOVQ R8, AX
	IMULQ R10, AX
	SUBQ AX, R12
	MOVQ R8, AX
	IMULQ R11, AX
	SUBQ AX, R13
	CMPQ CX, $4
	JLT  narrowA
	LEAQ -4(CX), R9
	LEAQ -1(CX), DX
	ANDQ $-4, DX

rowA:
	VMOVUPS (DI)(R9*4), X1
	VADDPS (SI)(R9*4), X1, X1
	XORQ AX, AX

vecA:
	VMOVUPS (DI)(AX*4), X0
	VADDPS (SI)(AX*4), X0, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ $4, AX
	CMPQ AX, DX
	JLT  vecA
	VMOVUPS X1, (DI)(R9*4)
	ADDQ R11, SI
	ADDQ R10, DI
	DECQ R8
	JNZ  rowA
	ADDQ R13, SI
	ADDQ R12, DI
	MOVQ rows+56(FP), R8
	DECQ BX
	JNZ  rowA
	RET

narrowA:
	XORQ AX, AX

elemA:
	VMOVSS (DI)(AX*4), X0
	VADDSS (SI)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	CMPQ AX, CX
	JLT  elemA
	ADDQ R11, SI
	ADDQ R10, DI
	DECQ R8
	JNZ  narrowA
	ADDQ R13, SI
	ADDQ R12, DI
	MOVQ rows+56(FP), R8
	DECQ BX
	JNZ  narrowA
	RET
