//go:build amd64 && !purego

#include "funcdata.h"
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
// source is the MIDDLE operand: VMULPS a, b, p computes p = b*a. (The
// transposed A×Bᵀ runs the tile kernel with the operands' roles exchanged,
// and its aFirst k-loops exchange the sources back: B's element stays first.)
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

// The sources of a multiply, in Go assembler order: VMULPS BA(a, b), p
// forms p = b*a, b the first source — the NN order; VMULPS AB(a, b), p forms
// p = a*b, a the first source — the transposed TB order.
#define BA(a, b) a, b
#define AB(a, b) b, a

// One k-step of an 8-wide, 4-wide and 1-wide tile, ending on the decrement
// of the k-steps left that the loop's JNZ tests. MUL is BA or AB.
#define K8(MUL) \
	VMOVUPS (AX), X8; \
	VMOVUPS 16(AX), X9; \
	VBROADCASTSS (BX), X10; \
	VBROADCASTSS (BX)(R9*1), X13; \
	VMULPS MUL(X10, X8), X11; \
	VMULPS MUL(X10, X9), X12; \
	VMULPS MUL(X13, X8), X14; \
	VMULPS MUL(X13, X9), X15; \
	VADDPS X0, X11, X0; \
	VADDPS X1, X12, X1; \
	VADDPS X2, X14, X2; \
	VADDPS X3, X15, X3; \
	VBROADCASTSS (R11), X10; \
	VBROADCASTSS (R11)(R9*1), X13; \
	VMULPS MUL(X10, X8), X11; \
	VMULPS MUL(X10, X9), X12; \
	VMULPS MUL(X13, X8), X14; \
	VMULPS MUL(X13, X9), X15; \
	VADDPS X4, X11, X4; \
	VADDPS X5, X12, X5; \
	VADDPS X6, X14, X6; \
	VADDPS X7, X15, X7; \
	ADDQ R12, AX; \
	ADDQ R10, BX; \
	ADDQ R10, R11; \
	DECQ R13

#define K4(MUL) \
	VMOVUPS (AX), X8; \
	VBROADCASTSS (BX), X10; \
	VBROADCASTSS (BX)(R9*1), X13; \
	VMULPS MUL(X10, X8), X11; \
	VMULPS MUL(X13, X8), X14; \
	VADDPS X0, X11, X0; \
	VADDPS X2, X14, X2; \
	VBROADCASTSS (R11), X10; \
	VBROADCASTSS (R11)(R9*1), X13; \
	VMULPS MUL(X10, X8), X11; \
	VMULPS MUL(X13, X8), X14; \
	VADDPS X4, X11, X4; \
	VADDPS X6, X14, X6; \
	ADDQ R12, AX; \
	ADDQ R10, BX; \
	ADDQ R10, R11; \
	DECQ R13

#define K1(MUL) \
	VMOVSS (AX), X8; \
	VMOVSS (BX), X10; \
	VMOVSS (BX)(R9*1), X13; \
	VMULSS MUL(X10, X8), X11; \
	VMULSS MUL(X13, X8), X14; \
	VADDSS X0, X11, X0; \
	VADDSS X2, X14, X2; \
	VMOVSS (R11), X10; \
	VMOVSS (R11)(R9*1), X13; \
	VMULSS MUL(X10, X8), X11; \
	VMULSS MUL(X13, X8), X14; \
	VADDSS X4, X11, X4; \
	VADDSS X6, X14, X6; \
	ADDQ R12, AX; \
	ADDQ R10, BX; \
	ADDQ R10, R11; \
	DECQ R13

// func gemmTileAVX(c, b, a *float32, m, n, k, aRow, aK int, start tileStart, aFirst bool, s float32)
//
// A whole m×n C (row length n) in one call:
//
//	c[i*n+j] = Σ a[i*aRow+kk*aK] * b[kk*n+j]    i < m, j < n, kk < k
//
// with kk ascending for every element, each element's chain starting from
// +0 — or, with start tileFromC (1), from the value c holds. With tileAddToC
// (2) the chain starts from +0 and the tile stores c + chain, c the first
// source of the addition (AddInPlace's order): every element of the tile is
// loaded and added before the first store, so a repeated row (below) adds
// its chain to the c it found, once. With tileScaled (3) the chain starts
// from +0 and the tile stores chain·s, the chain the first source (Scale's
// order): one rounding more, the one Scale would make. The rows are walked in blocks
// of four, then a block of two and a block of one for what is left. A block
// always fills the four accumulator rows: in a block of two, rows 2 and 3
// repeat rows 0 and 1, in a block of one all four are row 0 (their row
// offsets are 0), so a repeated row forms the same chain in two lanes and
// stores the same bits twice. The columns of a block are walked in tiles of
// 8, then one tile of 4, then single columns. A tile of C starts in
// registers, receives the k products of each of its elements in ascending
// kk, and is stored once; between, the chain of an element lives in one
// register lane, so the additions it sees and their order are those of k
// passes of the Go loop over the row. Nothing here tests for the skip rule,
// so the operand the caller's rule is on must hold no zero (its dense scan or
// run splitting sees to it). m, n and k are positive.
//
// Each product is b*a, b first, as the NN product forms it. With aFirst it is
// a*b: the transposed A×Bᵀ runs here with B as a and Aᵀ as b, and B·A is
// the order the untransposed kernel forms each product in. aFirst picks
// which of two k-loops a tile runs; the two are one macro (K8, K4, K1)
// instantiated with BA and with AB, and differ in the multiply's operand
// order only.
//
// Registers: DI and SI the tile's first column in c and in b, DX row 0 of
// the block in a, CX the columns left, R13 the k-steps left; in bytes, R9
// and R15 the offsets of the block's rows 1 and 2 in a (row 3 is row 2's
// row 1), R14 and R8 the same in c, R10 one a k-step, R12 one b row. In the
// k-loops AX and BX step through b and a's rows 0-1, R11 through a's rows
// 2-3. In the 8-wide tile: X0-X7 the accumulators (row r in X(2r),
// X(2r+1)), X8/X9 the two B vectors of the k-step, X10/X13 the broadcast a
// of alternating rows, X11/X12/X14/X15 the products. The frame holds the
// rows left after the block and the next block's row 0 in a.
TEXT ·gemmTileAVX(SB), NOSPLIT, $16-72
	MOVQ c+0(FP), DI
	MOVQ a+16(FP), DX
	MOVQ n+32(FP), R12
	MOVQ aK+56(FP), R10
	SHLQ $2, R12            // b row step, bytes
	SHLQ $2, R10            // a k step, bytes
	MOVQ m+24(FP), AX
	MOVQ AX, left-8(SP)

nextBlock:
	MOVQ left-8(SP), AX
	MOVQ aRow+48(FP), R9
	SHLQ $2, R9             // one a row, bytes
	CMPQ AX, $4
	JGE  four
	CMPQ AX, $2
	JGE  two
	TESTQ AX, AX
	JZ   done

	// one row: every offset 0
	LEAQ (DX)(R9*1), BX
	DECQ AX
	XORQ R9, R9
	XORQ R15, R15
	XORQ R14, R14
	XORQ R8, R8
	JMP  block

two:
	// two rows: rows 2 and 3 are rows 0 and 1 again
	LEAQ (DX)(R9*2), BX
	SUBQ $2, AX
	XORQ R15, R15
	MOVQ R12, R14
	XORQ R8, R8
	JMP  block

four:
	LEAQ (DX)(R9*4), BX
	SUBQ $4, AX
	LEAQ (R9)(R9*1), R15
	MOVQ R12, R14
	LEAQ (R12)(R12*1), R8

block:
	MOVQ AX, left-8(SP)
	MOVQ BX, anext-16(SP)
	MOVQ b+8(FP), SI
	MOVQ n+32(FP), CX
	CMPQ CX, $8
	JLT  tile4

tile8:
	CMPB start+64(FP), $1
	JEQ  load8
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7
	JMP  start8

load8:
	VMOVUPS (DI), X0
	VMOVUPS 16(DI), X1
	VMOVUPS (DI)(R14*1), X2
	VMOVUPS 16(DI)(R14*1), X3
	LEAQ (DI)(R8*1), AX
	VMOVUPS (AX), X4
	VMOVUPS 16(AX), X5
	VMOVUPS (AX)(R14*1), X6
	VMOVUPS 16(AX)(R14*1), X7

start8:
	MOVQ SI, AX             // b, this tile's columns at step kk
	MOVQ DX, BX             // a, row 0 at step kk
	LEAQ (DX)(R15*1), R11   // a, row 2 at step kk
	MOVQ k+40(FP), R13

	CMPB aFirst+65(FP), $0
	JNE  k8ab

k8:
	K8(BA)
	JNZ  k8

store8:
	CMPB start+64(FP), $2
	JEQ  add8
	CMPB start+64(FP), $3
	JNE  put8
	VBROADCASTSS s+68(FP), X8
	VMULPS X8, X0, X0
	VMULPS X8, X1, X1
	VMULPS X8, X2, X2
	VMULPS X8, X3, X3
	VMULPS X8, X4, X4
	VMULPS X8, X5, X5
	VMULPS X8, X6, X6
	VMULPS X8, X7, X7
	JMP  put8

add8:
	LEAQ (DI)(R8*1), AX
	VMOVUPS (DI), X8
	VMOVUPS 16(DI), X9
	VMOVUPS (DI)(R14*1), X10
	VMOVUPS 16(DI)(R14*1), X11
	VMOVUPS (AX), X12
	VMOVUPS 16(AX), X13
	VMOVUPS (AX)(R14*1), X14
	VMOVUPS 16(AX)(R14*1), X15
	VADDPS X0, X8, X0
	VADDPS X1, X9, X1
	VADDPS X2, X10, X2
	VADDPS X3, X11, X3
	VADDPS X4, X12, X4
	VADDPS X5, X13, X5
	VADDPS X6, X14, X6
	VADDPS X7, X15, X7

put8:
	VMOVUPS X0, (DI)
	VMOVUPS X1, 16(DI)
	VMOVUPS X2, (DI)(R14*1)
	VMOVUPS X3, 16(DI)(R14*1)
	LEAQ (DI)(R8*1), AX
	VMOVUPS X4, (AX)
	VMOVUPS X5, 16(AX)
	VMOVUPS X6, (AX)(R14*1)
	VMOVUPS X7, 16(AX)(R14*1)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  tile8

tile4:
	TESTQ $4, CX
	JZ    tile1
	CMPB  start+64(FP), $1
	JEQ   load4
	VXORPS X0, X0, X0
	VXORPS X2, X2, X2
	VXORPS X4, X4, X4
	VXORPS X6, X6, X6
	JMP   start4

load4:
	VMOVUPS (DI), X0
	VMOVUPS (DI)(R14*1), X2
	LEAQ (DI)(R8*1), AX
	VMOVUPS (AX), X4
	VMOVUPS (AX)(R14*1), X6

start4:
	MOVQ SI, AX
	MOVQ DX, BX
	LEAQ (DX)(R15*1), R11
	MOVQ k+40(FP), R13

	CMPB aFirst+65(FP), $0
	JNE  k4ab

k4:
	K4(BA)
	JNZ  k4

store4:
	CMPB start+64(FP), $2
	JEQ  add4
	CMPB start+64(FP), $3
	JNE  put4
	VBROADCASTSS s+68(FP), X8
	VMULPS X8, X0, X0
	VMULPS X8, X2, X2
	VMULPS X8, X4, X4
	VMULPS X8, X6, X6
	JMP  put4

add4:
	LEAQ (DI)(R8*1), AX
	VMOVUPS (DI), X8
	VMOVUPS (DI)(R14*1), X10
	VMOVUPS (AX), X12
	VMOVUPS (AX)(R14*1), X14
	VADDPS X0, X8, X0
	VADDPS X2, X10, X2
	VADDPS X4, X12, X4
	VADDPS X6, X14, X6

put4:
	VMOVUPS X0, (DI)
	VMOVUPS X2, (DI)(R14*1)
	LEAQ (DI)(R8*1), AX
	VMOVUPS X4, (AX)
	VMOVUPS X6, (AX)(R14*1)
	ADDQ $16, DI
	ADDQ $16, SI

tile1:
	ANDQ $3, CX             // single columns left
	JZ   endBlock

col1:
	CMPB start+64(FP), $1
	JEQ  load1
	VXORPS X0, X0, X0
	VXORPS X2, X2, X2
	VXORPS X4, X4, X4
	VXORPS X6, X6, X6
	JMP  start1

load1:
	VMOVSS (DI), X0
	VMOVSS (DI)(R14*1), X2
	LEAQ (DI)(R8*1), AX
	VMOVSS (AX), X4
	VMOVSS (AX)(R14*1), X6

start1:
	MOVQ SI, AX
	MOVQ DX, BX
	LEAQ (DX)(R15*1), R11
	MOVQ k+40(FP), R13

	CMPB aFirst+65(FP), $0
	JNE  k1ab

k1:
	K1(BA)
	JNZ  k1

store1:
	CMPB start+64(FP), $2
	JEQ  add1
	CMPB start+64(FP), $3
	JNE  put1
	VMOVSS s+68(FP), X8
	VMULSS X8, X0, X0
	VMULSS X8, X2, X2
	VMULSS X8, X4, X4
	VMULSS X8, X6, X6
	JMP  put1

add1:
	LEAQ (DI)(R8*1), AX
	VMOVSS (DI), X8
	VMOVSS (DI)(R14*1), X10
	VMOVSS (AX), X12
	VMOVSS (AX)(R14*1), X14
	VADDSS X0, X8, X0
	VADDSS X2, X10, X2
	VADDSS X4, X12, X4
	VADDSS X6, X14, X6

put1:
	VMOVSS X0, (DI)
	VMOVSS X2, (DI)(R14*1)
	LEAQ (DI)(R8*1), AX
	VMOVSS X4, (AX)
	VMOVSS X6, (AX)(R14*1)
	ADDQ $4, DI
	ADDQ $4, SI
	DECQ CX
	JNZ  col1

endBlock:
	// DI is one c row past the block's row 0; the block's other rows
	// (R14 + R8 bytes: three rows, one, or none) end it.
	ADDQ R14, DI
	ADDQ R8, DI
	MOVQ anext-16(SP), DX
	JMP  nextBlock

done:
	RET

	// The aFirst k-loops, out of the NN product's straight line.
k8ab:
	K8(AB)
	JNZ  k8ab
	JMP  store8

k4ab:
	K4(AB)
	JNZ  k4ab
	JMP  store4

k1ab:
	K1(AB)
	JNZ  k1ab
	JMP  store1

// func tbTileAVX(c, b, a *float32, m, n, k, batch int, start tileStart, s float32)
//
// batch A×Bᵀ products, element e's from the e-th [m,k] block of a and the
// e-th [n,k] block of b into the e-th [m,n] block of c, landed as start says
// (tileAddToC at batch 1 only): for each element, one transposeAVX call
// writes Bᵀ [k,n] into this function's own frame, which nothing clears (at
// most tbPanel = 256 floats, k·n), and one gemmTileAVX call runs A's rows
// against it, aRow = k, aK = 1, products b*a — MatMul(a, bᵀ) on the tile
// kernel, as gemmTBAVX computes it, with no scratch from anywhere else. A
// must hold no ±0; m, n, k and batch are positive.
//
// Both callees are NOSPLIT leaves, so nothing scans this frame while they
// run; it holds no pointers the collector needs (the outgoing arguments
// point into the stack or at the caller's operands, which the caller keeps).
// Frame: the callees' arguments at 0(SP) (72 bytes), the panel at 80(SP),
// the element at e-8(SP).
TEXT ·tbTileAVX(SB), 0, $1120-64
	NO_LOCAL_POINTERS
	MOVQ $0, e-8(SP)

tbNext:
	MOVQ e-8(SP), AX
	CMPQ AX, batch+48(FP)
	JGE  tbDone
	MOVQ n+32(FP), CX
	IMULQ k+40(FP), CX
	IMULQ AX, CX
	MOVQ b+8(FP), SI
	LEAQ (SI)(CX*4), SI
	LEAQ 80(SP), DI
	MOVQ DI, 0(SP)
	MOVQ SI, 8(SP)
	MOVQ n+32(FP), CX
	MOVQ CX, 16(SP)
	MOVQ k+40(FP), CX
	MOVQ CX, 24(SP)
	MOVQ $1, 32(SP)
	CALL ·transposeAVX(SB)

	MOVQ e-8(SP), AX
	MOVQ m+24(FP), CX
	IMULQ n+32(FP), CX
	IMULQ AX, CX
	MOVQ c+0(FP), DI
	LEAQ (DI)(CX*4), DI
	MOVQ DI, 0(SP)
	LEAQ 80(SP), DI
	MOVQ DI, 8(SP)
	MOVQ m+24(FP), CX
	IMULQ k+40(FP), CX
	IMULQ AX, CX
	MOVQ a+16(FP), DI
	LEAQ (DI)(CX*4), DI
	MOVQ DI, 16(SP)
	MOVQ m+24(FP), CX
	MOVQ CX, 24(SP)
	MOVQ n+32(FP), CX
	MOVQ CX, 32(SP)
	MOVQ k+40(FP), CX
	MOVQ CX, 40(SP)
	MOVQ CX, 48(SP)
	MOVQ $1, 56(SP)
	MOVBLZX start+56(FP), CX
	MOVB CX, 64(SP)
	MOVB $0, 65(SP)
	MOVL s+60(FP), CX
	MOVL CX, 68(SP)
	CALL ·gemmTileAVX(SB)
	INCQ e-8(SP)
	JMP  tbNext

tbDone:
	RET

// func zerosAVX(a *float32, n int) int
//
// How many of the n floats at a are zero. VCMPPS with predicate 0 (EQ,
// ordered, quiet) against +0 is true for +0 and -0 and false for everything
// else, NaNs and subnormals included: the Go loops' `v == 0`. A true lane
// is all ones, -1 as an integer, and subtracting it counts one. Sixteen
// floats an iteration into four counters, then four, then one, whose test
// is on the bits: a float is ±0 exactly when all but its sign bit are clear.
// n > 0.
TEXT ·zerosAVX(SB), NOSPLIT, $0-24
	MOVQ a+0(FP), SI
	MOVQ n+8(FP), CX
	VXORPS X0, X0, X0
	VPXOR X5, X5, X5
	VPXOR X6, X6, X6
	VPXOR X7, X7, X7
	VPXOR X8, X8, X8
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   z4

z16:
	VCMPPS $0, (SI)(AX*4), X0, X1
	VCMPPS $0, 16(SI)(AX*4), X0, X2
	VCMPPS $0, 32(SI)(AX*4), X0, X3
	VCMPPS $0, 48(SI)(AX*4), X0, X4
	VPSUBD X1, X5, X5
	VPSUBD X2, X6, X6
	VPSUBD X3, X7, X7
	VPSUBD X4, X8, X8
	ADDQ $16, AX
	CMPQ AX, DX
	JLT  z16

z4:
	MOVQ CX, DX
	ANDQ $-4, DX

z4loop:
	CMPQ AX, DX
	JGE  zsum
	VCMPPS $0, (SI)(AX*4), X0, X1
	VPSUBD X1, X5, X5
	ADDQ $4, AX
	JMP  z4loop

zsum:
	VPADDD X6, X5, X5
	VPADDD X8, X7, X7
	VPADDD X7, X5, X5
	VPSHUFD $0x4e, X5, X6
	VPADDD X6, X5, X5
	VPSHUFD $0xb1, X5, X6
	VPADDD X6, X5, X5
	VMOVD X5, BX            // the vector lanes' count

z1:
	CMPQ AX, CX
	JGE  zdone
	MOVL (SI)(AX*4), DX
	INCQ AX
	ANDL $0x7fffffff, DX
	JNZ  z1
	INCQ BX
	JMP  z1

zdone:
	MOVQ BX, ret+16(FP)
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

// func gemmSparseAVX(c, b, a *float32, m, n, k, aRow, aK int)
//
// C += A×B row by row under the skip rule, for c[i*n+j] and a[i*aRow+kk*aK]:
// for each row i, for kk ascending, where a = a[i*aRow+kk*aK] is not ±0,
//
//	c[i*n+j] = (b[kk*n+j] * a) + c[i*n+j]    j < n
//
// the operations and operand order of axpy1AVX, the mixed step of gemmRows.
// Each element therefore receives gemmRows' addends in its order; the caller
// clears C. m, n and k are positive.
//
// A row's k-steps are taken 64 at a time. The zero test runs first over all
// of them, without a branch: a float is ±0 exactly when all but its sign bit
// are clear (so a NaN or a subnormal a is multiplied), NEGL sets the carry
// for one that is not, and ADCQ shifts the carry into a mask, last step
// first, so that bit j stands for step kk0+j. BSFQ then hands out the set
// bits lowest first, kk ascending. A one-hot row costs its 64-step scan and
// one product row, and no branch on the data but the loop's exit.
//
// Registers: DI row i of c, DX a at (i, 0), SI b, R8 the chunk's first
// k-step kk0, R9 n, R10 k, R11 and R12 one a row and one a k-step in bytes,
// R13 one b row in bytes, R14 n rounded down to a multiple of 4, BX the
// chunk's mask; AX, CX and R15 scratch, X0 the broadcast a. The frame holds
// the rows left.
TEXT ·gemmSparseAVX(SB), NOSPLIT, $8-64
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ a+16(FP), DX
	MOVQ m+24(FP), AX
	MOVQ AX, left-8(SP)
	MOVQ n+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ aRow+48(FP), R11
	MOVQ aK+56(FP), R12
	SHLQ $2, R11
	SHLQ $2, R12
	LEAQ (R9*4), R13
	MOVQ R9, R14
	ANDQ $-4, R14

sparseRow:
	XORQ R8, R8

sparseChunk:
	MOVQ R10, CX
	SUBQ R8, CX
	CMPQ CX, $64
	JLE  sparseScan
	MOVQ $64, CX

sparseScan:
	LEAQ -1(R8)(CX*1), AX
	IMULQ R12, AX
	ADDQ DX, AX             // a at (i, kk0+CX-1)
	XORQ BX, BX

sparseBit:
	MOVL (AX), R15
	ANDL $0x7fffffff, R15
	NEGL R15                // carry: the step's a is not ±0
	ADCQ BX, BX
	SUBQ R12, AX
	DECQ CX
	JNZ  sparseBit
	TESTQ BX, BX
	JZ   sparseNextChunk

sparseProduct:
	BSFQ BX, CX
	ADDQ R8, CX             // kk
	MOVQ CX, AX
	IMULQ R12, AX
	VBROADCASTSS (DX)(AX*1), X0
	MOVQ CX, AX
	IMULQ R13, AX
	ADDQ SI, AX             // row kk of b
	XORQ CX, CX

sparseVec:
	CMPQ CX, R14
	JGE  sparseTail
	VMOVUPS (AX)(CX*4), X1
	VMULPS X0, X1, X1
	VADDPS (DI)(CX*4), X1, X1
	VMOVUPS X1, (DI)(CX*4)
	ADDQ $4, CX
	JMP  sparseVec

sparseTail:
	CMPQ CX, R9
	JGE  sparseNextBit
	VMOVSS (AX)(CX*4), X1
	VMULSS X0, X1, X1
	VADDSS (DI)(CX*4), X1, X1
	VMOVSS X1, (DI)(CX*4)
	INCQ CX
	JMP  sparseTail

sparseNextBit:
	LEAQ -1(BX), R15
	ANDQ R15, BX
	JNZ  sparseProduct

sparseNextChunk:
	ADDQ $64, R8
	CMPQ R8, R10
	JLT  sparseChunk
	ADDQ R13, DI
	ADDQ R11, DX
	DECQ left-8(SP)
	JNZ  sparseRow
	RET

// TRANS8 transposes the 8x8 block at BX (source rows R10 bytes apart, R12
// three of them) to DX (destination rows R11 bytes apart, R13 three of
// them): 32-bit then 64-bit interleaves within the 128-bit lanes, then a
// lane exchange. R14 is clobbered.
#define TRANS8 \
	LEAQ (BX)(R10*4), R14; \
	VMOVUPS (BX), Y0; \
	VMOVUPS (BX)(R10*1), Y1; \
	VMOVUPS (BX)(R10*2), Y2; \
	VMOVUPS (BX)(R12*1), Y3; \
	VMOVUPS (R14), Y4; \
	VMOVUPS (R14)(R10*1), Y5; \
	VMOVUPS (R14)(R10*2), Y6; \
	VMOVUPS (R14)(R12*1), Y7; \
	VUNPCKLPS Y1, Y0, Y8; \
	VUNPCKHPS Y1, Y0, Y9; \
	VUNPCKLPS Y3, Y2, Y10; \
	VUNPCKHPS Y3, Y2, Y11; \
	VUNPCKLPS Y5, Y4, Y12; \
	VUNPCKHPS Y5, Y4, Y13; \
	VUNPCKLPS Y7, Y6, Y14; \
	VUNPCKHPS Y7, Y6, Y15; \
	VUNPCKLPD Y10, Y8, Y0; \
	VUNPCKHPD Y10, Y8, Y1; \
	VUNPCKLPD Y11, Y9, Y2; \
	VUNPCKHPD Y11, Y9, Y3; \
	VUNPCKLPD Y14, Y12, Y4; \
	VUNPCKHPD Y14, Y12, Y5; \
	VUNPCKLPD Y15, Y13, Y6; \
	VUNPCKHPD Y15, Y13, Y7; \
	VPERM2F128 $0x20, Y4, Y0, Y8; \
	VPERM2F128 $0x20, Y5, Y1, Y9; \
	VPERM2F128 $0x20, Y6, Y2, Y10; \
	VPERM2F128 $0x20, Y7, Y3, Y11; \
	VPERM2F128 $0x31, Y4, Y0, Y12; \
	VPERM2F128 $0x31, Y5, Y1, Y13; \
	VPERM2F128 $0x31, Y6, Y2, Y14; \
	VPERM2F128 $0x31, Y7, Y3, Y15; \
	LEAQ (DX)(R11*4), R14; \
	VMOVUPS Y8, (DX); \
	VMOVUPS Y9, (DX)(R11*1); \
	VMOVUPS Y10, (DX)(R11*2); \
	VMOVUPS Y11, (DX)(R13*1); \
	VMOVUPS Y12, (R14); \
	VMOVUPS Y13, (R14)(R11*1); \
	VMOVUPS Y14, (R14)(R11*2); \
	VMOVUPS Y15, (R14)(R13*1)

// TRANS4(src, dst) transposes the 4x4 block at src to dst, strides as in
// TRANS8: one 32-bit and one 64-bit interleave, 128 bits wide.
#define TRANS4(src, dst) \
	VMOVUPS (src), X0; \
	VMOVUPS (src)(R10*1), X1; \
	VMOVUPS (src)(R10*2), X2; \
	VMOVUPS (src)(R12*1), X3; \
	VUNPCKLPS X1, X0, X4; \
	VUNPCKHPS X1, X0, X5; \
	VUNPCKLPS X3, X2, X6; \
	VUNPCKHPS X3, X2, X7; \
	VUNPCKLPD X6, X4, X0; \
	VUNPCKHPD X6, X4, X1; \
	VUNPCKLPD X7, X5, X2; \
	VUNPCKHPD X7, X5, X3; \
	VMOVUPS X0, (dst); \
	VMOVUPS X1, (dst)(R11*1); \
	VMOVUPS X2, (dst)(R11*2); \
	VMOVUPS X3, (dst)(R13*1)

// func transposeAVX(dst, src *float32, rows, cols, blocks int)
//
// Transposes blocks consecutive [rows,cols] matrices at src into blocks
// consecutive [cols,rows] matrices at dst, the whole of each in this one
// call. Per matrix: every eight-row strip in 8x8 blocks (TRANS8), and the
// four columns past cols&^7 of it in two 4x4 blocks; a four-row strip left
// below rows&^7 in 4x4 blocks; then, element by element, the columns past
// cols&^3 of the rows above rows&^3 (none when 4 divides cols) and every
// column of the rows below it.
// Pure data movement, no arithmetic: every bit pattern arrives as it left.
// rows, cols and blocks are positive.
//
// Registers: SI and DI the matrix in src and in dst, R8 rows, R9 cols, R10
// and R11 one source and one destination row in bytes, R12 and R13 three of
// them; AX the strip's first row, BX and DX the block in src and in dst, CX
// the blocks left in a strip or the column of an element, R14 and R15
// scratch. The frame holds the matrices left.
TEXT ·transposeAVX(SB), NOSPLIT, $8-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ blocks+32(FP), AX
	MOVQ AX, left-8(SP)
	LEAQ (R9*4), R10
	LEAQ (R8*4), R11
	LEAQ (R10)(R10*2), R12
	LEAQ (R11)(R11*2), R13

tMatrix:
	XORQ AX, AX

tStrip8:
	LEAQ 8(AX), CX
	CMPQ CX, R8
	JGT  tStrip4
	MOVQ AX, BX
	IMULQ R10, BX
	ADDQ SI, BX
	LEAQ (DI)(AX*4), DX
	MOVQ R9, CX
	SHRQ $3, CX
	JZ   tHalf8

tBlock8:
	TRANS8
	ADDQ $32, BX
	LEAQ (DX)(R11*8), DX
	DECQ CX
	JNZ  tBlock8

tHalf8:
	TESTQ $4, R9
	JZ   tNext8
	TRANS4(BX, DX)
	LEAQ (BX)(R10*4), R14
	LEAQ 16(DX), R15
	TRANS4(R14, R15)

tNext8:
	ADDQ $8, AX
	JMP  tStrip8

tStrip4:
	LEAQ 4(AX), CX
	CMPQ CX, R8
	JGT  tEdge
	MOVQ AX, BX
	IMULQ R10, BX
	ADDQ SI, BX
	LEAQ (DI)(AX*4), DX
	MOVQ R9, CX
	SHRQ $2, CX
	JZ   tEdge

tBlock4:
	TRANS4(BX, DX)
	ADDQ $16, BX
	LEAQ (DX)(R11*4), DX
	DECQ CX
	JNZ  tBlock4

tEdge:
	XORQ AX, AX
	TESTQ $3, R9
	JNZ  tEdgeRow
	MOVQ R8, AX
	ANDQ $-4, AX            // no columns left above rows&^3: start below it

tEdgeRow:
	CMPQ AX, R8
	JGE  tNextMatrix
	MOVQ R9, CX
	ANDQ $-4, CX            // the columns the blocks left in this row ...
	MOVQ R8, R14
	ANDQ $-4, R14
	CMPQ AX, R14
	JLT  tEdgeFrom
	XORQ CX, CX             // ... or all of them below rows&^3

tEdgeFrom:
	MOVQ AX, BX
	IMULQ R10, BX
	ADDQ SI, BX             // row AX of src
	MOVQ CX, DX
	IMULQ R11, DX
	ADDQ DI, DX
	LEAQ (DX)(AX*4), DX     // element (CX, AX) of dst

tEdgeCol:
	CMPQ CX, R9
	JGE  tEdgeNext
	MOVL (BX)(CX*4), R15
	MOVL R15, (DX)
	ADDQ R11, DX
	INCQ CX
	JMP  tEdgeCol

tEdgeNext:
	INCQ AX
	JMP  tEdgeRow

tNextMatrix:
	MOVQ R8, CX
	IMULQ R9, CX
	LEAQ (SI)(CX*4), SI
	LEAQ (DI)(CX*4), DI
	DECQ left-8(SP)
	JNZ  tMatrix
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
