//go:build amd64 && !purego

#include "textflag.h"

// The AVX block kernel behind the convolution lowering and the block moves
// and adds (see moveBlocks / addBlocks and blockShape.move / add in
// tensor.go, which check every extent before a pointer gets here).
//
// It walks c·kh·kw taps in ascending (ch, y, x) order, and in each tap n
// blocks of rows x cols floats. Tap (ch, y, x) starts ch·dstC + y·dstH +
// x·dstW floats into dst and ch·srcC + y·srcH + x·srcW into src — a stride-1
// lowering's whole matrix in one call; a plain block move is one tap. Rows of
// a block lie dstStride / srcStride floats apart, blocks dstBlock / srcBlock
// floats apart. Moves and adds cut a row of four or more floats the same way,
// with no branch on the row's length inside the row loop: 4-float vectors at
// columns 0, 4, 8, ... while a vector starts before column cols-4, then one last vector AT column cols-4, which
// overlaps the one before it unless cols is a multiple of four. A 6-wide row
// (the campaign's output width) is the vectors at columns 0 and 2. The
// overlapped columns are computed twice from the same operands — the last
// vector is formed before anything in the row is stored — so the second store
// rewrites the bits the first one wrote. Rows narrower than a vector go
// element by element.
//
// A move (add false) only moves bits: loads and stores, which do not look at
// the value (a signaling NaN comes out as it went in).
//
// An add (add true) is arithmetic and, like the GEMM kernels, 128 bits wide,
// so it never takes the AVX frequency licence (see gemm_amd64.s). Per element
// it computes
//
//	dst = dst + src
//
// with dst — the accumulator — as the FIRST source, which on x86 decides
// whose payload survives when both are NaN; that is the order the compiler
// emits for `drow[j] += srow[j]`. In Go assembler syntax the first source is
// the MIDDLE operand: VADDPS src, acc, acc.
//
// Registers: DI/SI walk the rows of a tap, R10/R11 are the row strides in
// bytes, R12/R13 what takes DI/SI from the end of one block to the start of
// the next (block step minus rows row steps, in bytes), BX counts blocks, R8
// rows, AX columns; CX = cols, R9 = cols-4, DX = the column the vector loop
// stops before; R14/R15 the tap's start in dst/src. The frame holds the tap
// counters and where the current channel's and tap row's taps start.

// func blockTapsAVX(dst, src []float32, n, rows, cols, dstBlock, srcBlock, dstStride, srcStride, c, kh, kw, dstC, dstH, dstW, srcC, srcH, srcW int, add bool)
TEXT ·blockTapsAVX(SB), NOSPLIT, $56-177
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
	LEAQ -4(CX), R9
	LEAQ -1(CX), DX
	ANDQ $-4, DX
	MOVQ dst_base+0(FP), R14
	MOVQ src_base+24(FP), R15
	MOVQ c+104(FP), AX
	MOVQ AX, chLeft-8(SP)

channel:
	MOVQ R14, dCh-16(SP)
	MOVQ R15, sCh-24(SP)
	MOVQ kh+112(FP), AX
	MOVQ AX, yLeft-32(SP)

tapRow:
	MOVQ R14, dY-40(SP)
	MOVQ R15, sY-48(SP)
	MOVQ kw+120(FP), AX
	MOVQ AX, xLeft-56(SP)

tap:
	MOVQ R14, DI
	MOVQ R15, SI
	MOVQ n+48(FP), BX
	MOVQ rows+56(FP), R8
	CMPB add+176(FP), $0
	JNE  addTap
	CMPQ CX, $4
	JLT  narrowM

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
	JMP  nextTap

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
	JMP  nextTap

addTap:
	CMPQ CX, $4
	JLT  narrowA

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
	JMP  nextTap

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

nextTap:
	MOVQ dstW+144(FP), AX
	LEAQ (R14)(AX*4), R14
	MOVQ srcW+168(FP), AX
	LEAQ (R15)(AX*4), R15
	DECQ xLeft-56(SP)
	JNZ  tap
	MOVQ dY-40(SP), R14
	MOVQ dstH+136(FP), AX
	LEAQ (R14)(AX*4), R14
	MOVQ sY-48(SP), R15
	MOVQ srcH+160(FP), AX
	LEAQ (R15)(AX*4), R15
	DECQ yLeft-32(SP)
	JNZ  tapRow
	MOVQ dCh-16(SP), R14
	MOVQ dstC+128(FP), AX
	LEAQ (R14)(AX*4), R14
	MOVQ sCh-24(SP), R15
	MOVQ srcC+152(FP), AX
	LEAQ (R15)(AX*4), R15
	DECQ chLeft-8(SP)
	JNZ  channel
	RET
