//go:build amd64 && !purego

#include "textflag.h"

// AVX kernels for the element-wise layers (see elem.go, which checks every
// extent before an address gets here).
//
// Each kernel is one layer call: the loop over batch and channel planes is
// inside it, because at the campaign's 36-float planes a Go loop per plane
// costs as much as the plane's arithmetic. The planes of an [n, c, spatial]
// tensor are contiguous, so a kernel walks one pointer through the whole
// tensor and only reloads its per-channel constants (one VBROADCASTSS each)
// at a plane boundary. A plane is cut into 8-float steps, one 4-float step,
// and VEX scalar operations for the last spatial mod 4 elements — no vector
// ever reaches across a plane boundary, where the constants change.
//
// The arithmetic is 128 bits wide, like the GEMM and block kernels (see
// gemm_amd64.s for why), and never fused: out = g·xh + be is a VMULPS and a
// VADDPS, two roundings, as the compiler emits for the Go loop. Operand
// order is part of the contract too — x86 keeps the FIRST source's payload
// when both operands are NaN, and in Go assembler syntax the first source is
// the MIDDLE operand — so every operation below names the element (or the
// partial result built from it) first and the per-channel constant second,
// which is where the compiler puts them.

// func normalizeAVX(out, xhat, x, mean, invStd, gamma, beta *float32, n, c, spatial int)
//
// SI walks x; R8 and DI are the byte distances from x to xhat and to out, so
// one pointer advances. R9-R12 are mean, invStd, gamma, beta; DX the channel,
// R13 = c, BX counts batch elements, CX the floats left in the plane.
// X0-X3 the broadcast mean, invStd, gamma, beta.
TEXT ·normalizeAVX(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ mean+24(FP), R9
	MOVQ invStd+32(FP), R10
	MOVQ gamma+40(FP), R11
	MOVQ beta+48(FP), R12
	MOVQ n+56(FP), BX
	MOVQ c+64(FP), R13
	SUBQ SI, DI
	SUBQ SI, R8

batchN:
	XORQ DX, DX

planeN:
	VBROADCASTSS (R9)(DX*4), X0
	VBROADCASTSS (R10)(DX*4), X1
	VBROADCASTSS (R11)(DX*4), X2
	VBROADCASTSS (R12)(DX*4), X3
	MOVQ spatial+72(FP), CX
	CMPQ CX, $8
	JLT  vec4N

vec8N:
	VMOVUPS (SI), X4
	VMOVUPS 16(SI), X5
	VSUBPS X0, X4, X4       // x - mean
	VSUBPS X0, X5, X5
	VMULPS X1, X4, X4       // (x - mean) * invStd
	VMULPS X1, X5, X5
	VMOVUPS X4, (SI)(R8*1)
	VMOVUPS X5, 16(SI)(R8*1)
	VMULPS X2, X4, X4       // xhat * gamma
	VMULPS X2, X5, X5
	VADDPS X3, X4, X4       // product + beta
	VADDPS X3, X5, X5
	VMOVUPS X4, (SI)(DI*1)
	VMOVUPS X5, 16(SI)(DI*1)
	ADDQ $32, SI
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  vec8N

vec4N:
	CMPQ CX, $4
	JLT  tailN
	VMOVUPS (SI), X4
	VSUBPS X0, X4, X4
	VMULPS X1, X4, X4
	VMOVUPS X4, (SI)(R8*1)
	VMULPS X2, X4, X4
	VADDPS X3, X4, X4
	VMOVUPS X4, (SI)(DI*1)
	ADDQ $16, SI
	SUBQ $4, CX

tailN:
	TESTQ CX, CX
	JZ   nextN

elemN:
	VMOVSS (SI), X4
	VSUBSS X0, X4, X4
	VMULSS X1, X4, X4
	VMOVSS X4, (SI)(R8*1)
	VMULSS X2, X4, X4
	VADDSS X3, X4, X4
	VMOVSS X4, (SI)(DI*1)
	ADDQ $4, SI
	DECQ CX
	JNZ  elemN

nextN:
	INCQ DX
	CMPQ DX, R13
	JLT  planeN
	DECQ BX
	JNZ  batchN
	RET

// func normalizeBackwardAVX(dx, dy, xhat, scale, meanDy, meanDyXhat *float32, n, c, spatial int)
//
// SI walks dy; R8 and DI are the byte distances from dy to xhat and to dx.
// R9-R11 are scale, meanDy, meanDyXhat; DX the channel, R13 = c, BX counts
// batch elements, CX the floats left in the plane. X0-X2 the broadcast
// meanDy, meanDyXhat, scale.
TEXT ·normalizeBackwardAVX(SB), NOSPLIT, $0-72
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ xhat+16(FP), R8
	MOVQ scale+24(FP), R9
	MOVQ meanDy+32(FP), R10
	MOVQ meanDyXhat+40(FP), R11
	MOVQ n+48(FP), BX
	MOVQ c+56(FP), R13
	SUBQ SI, DI
	SUBQ SI, R8

batchB:
	XORQ DX, DX

planeB:
	VBROADCASTSS (R10)(DX*4), X0
	VBROADCASTSS (R11)(DX*4), X1
	VBROADCASTSS (R9)(DX*4), X2
	MOVQ spatial+64(FP), CX
	CMPQ CX, $8
	JLT  vec4B

vec8B:
	VMOVUPS (SI), X4
	VMOVUPS 16(SI), X5
	VMOVUPS (SI)(R8*1), X6
	VMOVUPS 16(SI)(R8*1), X7
	VSUBPS X0, X4, X4       // dy - meanDy
	VSUBPS X0, X5, X5
	VMULPS X1, X6, X6       // xhat * meanDyXhat
	VMULPS X1, X7, X7
	VSUBPS X6, X4, X4       // (dy - meanDy) - xhat*meanDyXhat
	VSUBPS X7, X5, X5
	VMULPS X2, X4, X4       // that, times scale
	VMULPS X2, X5, X5
	VMOVUPS X4, (SI)(DI*1)
	VMOVUPS X5, 16(SI)(DI*1)
	ADDQ $32, SI
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  vec8B

vec4B:
	CMPQ CX, $4
	JLT  tailB
	VMOVUPS (SI), X4
	VMOVUPS (SI)(R8*1), X6
	VSUBPS X0, X4, X4
	VMULPS X1, X6, X6
	VSUBPS X6, X4, X4
	VMULPS X2, X4, X4
	VMOVUPS X4, (SI)(DI*1)
	ADDQ $16, SI
	SUBQ $4, CX

tailB:
	TESTQ CX, CX
	JZ   nextB

elemB:
	VMOVSS (SI), X4
	VMOVSS (SI)(R8*1), X6
	VSUBSS X0, X4, X4
	VMULSS X1, X6, X6
	VSUBSS X6, X4, X4
	VMULSS X2, X4, X4
	VMOVSS X4, (SI)(DI*1)
	ADDQ $4, SI
	DECQ CX
	JNZ  elemB

nextB:
	INCQ DX
	CMPQ DX, R13
	JLT  planeB
	DECQ BX
	JNZ  batchB
	RET

// func reluForwardAVX(out *float32, mask *uint32, x *float32, n int)
//
// x > 0 is one ordered, non-signaling compare against +0 (predicate 0x1E,
// GT_OQ): false for a NaN of either kind, for both zeros and for negatives,
// true for everything from the smallest subnormal to +Inf. The compare's
// result, all ones or zero per lane, is the mask as stored and the AND that
// forms the output.
//
// SI walks x; R8 and DI are the byte distances to mask and out; CX counts
// the floats left. X0 = +0.
TEXT ·reluForwardAVX(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ mask+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	SUBQ SI, DI
	SUBQ SI, R8
	VXORPS X0, X0, X0
	CMPQ CX, $8
	JLT  vec4F

vec8F:
	VMOVUPS (SI), X4
	VMOVUPS 16(SI), X5
	VCMPPS $0x1E, X0, X4, X6
	VCMPPS $0x1E, X0, X5, X7
	VANDPS X6, X4, X4
	VANDPS X7, X5, X5
	VMOVUPS X6, (SI)(R8*1)
	VMOVUPS X7, 16(SI)(R8*1)
	VMOVUPS X4, (SI)(DI*1)
	VMOVUPS X5, 16(SI)(DI*1)
	ADDQ $32, SI
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  vec8F

vec4F:
	CMPQ CX, $4
	JLT  tailF
	VMOVUPS (SI), X4
	VCMPPS $0x1E, X0, X4, X6
	VANDPS X6, X4, X4
	VMOVUPS X6, (SI)(R8*1)
	VMOVUPS X4, (SI)(DI*1)
	ADDQ $16, SI
	SUBQ $4, CX

tailF:
	TESTQ CX, CX
	JZ   doneF

elemF:
	VMOVSS (SI), X4
	VCMPSS $0x1E, X0, X4, X6
	VANDPS X6, X4, X4
	VMOVSS X6, (SI)(R8*1)
	VMOVSS X4, (SI)(DI*1)
	ADDQ $4, SI
	DECQ CX
	JNZ  elemF

doneF:
	RET

// func reluBackwardAVX(dx, dy *float32, mask *uint32, n int)
//
// SI walks dy; R8 and DI are the byte distances to mask and dx; CX counts the
// floats left. An AND moves bits: a signaling NaN gradient that is kept comes
// out as it went in.
TEXT ·reluBackwardAVX(SB), NOSPLIT, $0-32
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ mask+16(FP), R8
	MOVQ n+24(FP), CX
	SUBQ SI, DI
	SUBQ SI, R8
	CMPQ CX, $8
	JLT  vec4R

vec8R:
	VMOVUPS (SI), X4
	VMOVUPS 16(SI), X5
	VANDPS (SI)(R8*1), X4, X4
	VANDPS 16(SI)(R8*1), X5, X5
	VMOVUPS X4, (SI)(DI*1)
	VMOVUPS X5, 16(SI)(DI*1)
	ADDQ $32, SI
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  vec8R

vec4R:
	CMPQ CX, $4
	JLT  tailR
	VMOVUPS (SI), X4
	VANDPS (SI)(R8*1), X4, X4
	VMOVUPS X4, (SI)(DI*1)
	ADDQ $16, SI
	SUBQ $4, CX

tailR:
	TESTQ CX, CX
	JZ   doneR

elemR:
	MOVL (SI), AX
	ANDL (SI)(R8*1), AX
	MOVL AX, (SI)(DI*1)
	ADDQ $4, SI
	DECQ CX
	JNZ  elemR

doneR:
	RET

// func addBiasAVX(t, bias *float32, rows, c, spatial int)
//
// t = t + bias[ch], the row's element first (see blockTapsAVX). DI walks t,
// SI = bias, BX counts rows, DX is the channel of the current row (0 at the
// first) and wraps at R13 = c, CX counts the floats left in the row. X0 the
// broadcast bias.
TEXT ·addBiasAVX(SB), NOSPLIT, $0-40
	MOVQ t+0(FP), DI
	MOVQ bias+8(FP), SI
	MOVQ rows+16(FP), BX
	MOVQ c+24(FP), R13
	MOVQ spatial+32(FP), R8
	XORQ DX, DX

rowA:
	VBROADCASTSS (SI)(DX*4), X0
	MOVQ R8, CX
	CMPQ CX, $8
	JLT  vec4A

vec8A:
	VMOVUPS (DI), X4
	VMOVUPS 16(DI), X5
	VADDPS X0, X4, X4
	VADDPS X0, X5, X5
	VMOVUPS X4, (DI)
	VMOVUPS X5, 16(DI)
	ADDQ $32, DI
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  vec8A

vec4A:
	CMPQ CX, $4
	JLT  tailA
	VMOVUPS (DI), X4
	VADDPS X0, X4, X4
	VMOVUPS X4, (DI)
	ADDQ $16, DI
	SUBQ $4, CX

tailA:
	TESTQ CX, CX
	JZ   nextA

elemA:
	VMOVSS (DI), X4
	VADDSS X0, X4, X4
	VMOVSS X4, (DI)
	ADDQ $4, DI
	DECQ CX
	JNZ  elemA

nextA:
	INCQ DX
	CMPQ DX, R13
	JLT  wrapA
	XORQ DX, DX

wrapA:
	DECQ BX
	JNZ  rowA
	RET

// LayerNorm rows side by side. A row's sums run in index order, one
// dependent add after another, so a row alone runs at the adder's latency;
// four rows, one per lane (float32) or two pairs of lanes (float64), run
// four such chains at once and each still adds its own elements in its own
// order. The kernels take whole groups of four rows; norm.go's wrappers run
// the rows left over through the Go loop, after the kernel, which keeps
// dGamma and dBeta accumulating in row order.
//
// Every operation names its operands in the order the compiler emits for the
// Go loop (norm.go) in the default build — (x − mean)·invStd, h·gamma + beta,
// invStd applied last; in the backward h·dy + dGamma, gamma·dy, the running
// sum first — because that order decides which NaN payload survives.

// LNROW(imm, vec, tail, done) writes row k of a forward group, k the lane
// VSHUFPS imm selects: SI is the row of x, DX its length, X0 the group's four
// float32 means, X1 its four inverse deviations.
#define LNROW(imm, vec, tail, done) \
	VSHUFPS $imm, X0, X0, X7; \
	VSHUFPS $imm, X1, X1, X8; \
	MOVQ SI, R13; \
	XORQ AX, AX; \
	MOVQ DX, CX; \
vec: \
	CMPQ CX, $4; \
	JLT  tail; \
	VMOVUPS (R13), X4; \
	VSUBPS X7, X4, X4; \
	VMULPS X8, X4, X4; \
	VMOVUPS X4, (R13)(R9*1); \
	VMULPS (R11)(AX*1), X4, X4; \
	VADDPS (R12)(AX*1), X4, X4; \
	VMOVUPS X4, (R13)(DI*1); \
	ADDQ $16, R13; \
	ADDQ $16, AX; \
	SUBQ $4, CX; \
	JMP  vec; \
tail: \
	TESTQ CX, CX; \
	JZ   done; \
	VMOVSS (R13), X4; \
	VSUBSS X7, X4, X4; \
	VMULSS X8, X4, X4; \
	VMOVSS X4, (R13)(R9*1); \
	VMULSS (R11)(AX*1), X4, X4; \
	VADDSS (R12)(AX*1), X4, X4; \
	VMOVSS X4, (R13)(DI*1); \
	ADDQ $4, R13; \
	ADDQ $4, AX; \
	DECQ CX; \
	JMP  tail; \
done: \
	ADDQ R8, SI

// LNMOMENTS(s, q) turns a pair of rows' float64 sums s and sums of squares
// q into their float32 means (s) and 1/sqrt(variance + eps) (q), each in the
// low half. X13 holds 1.0, X14 eps, X15 d, all as float64 pairs.
#define LNMOMENTS(s, q) \
	VDIVPD X15, s, s; \
	VDIVPD X15, q, q; \
	VMULPD s, s, X6; \
	VSUBPD X6, q, q; \
	VADDPD X14, q, q; \
	VSQRTPD q, q; \
	VDIVPD q, X13, q; \
	VCVTPD2PSX q, q; \
	VCVTPD2PSX s, s

// func layerNormAVX(out, xhat, invStd, x, gamma, beta *float32, rows, d int, eps float64)
//
// rows is a positive multiple of 4 and d positive. SI walks x a row at a
// time; R9 and DI are the byte distances from x to xhat and to out, R8 a
// row's length in bytes and R15 three of them, DX its length in floats; R10
// walks invStd, BX counts groups. In the sums X0/X1 hold rows 0 and 1's sums and sums of squares,
// X2/X3 rows 2 and 3's.
TEXT ·layerNormAVX(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), R9
	MOVQ invStd+16(FP), R10
	MOVQ x+24(FP), SI
	MOVQ gamma+32(FP), R11
	MOVQ beta+40(FP), R12
	MOVQ rows+48(FP), BX
	MOVQ d+56(FP), R8
	MOVQ R8, DX
	SUBQ SI, DI
	SUBQ SI, R9
	CVTSQ2SD R8, X15
	VMOVDDUP X15, X15
	VMOVDDUP eps+64(FP), X14
	MOVQ $0x3ff0000000000000, AX
	MOVQ AX, X13
	VMOVDDUP X13, X13
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R15
	SHRQ $2, BX

groupF:
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	MOVQ SI, R13
	MOVQ d+56(FP), CX

sumF:
	VMOVSS (R13), X4
	VINSERTPS $0x10, (R13)(R8*1), X4, X4
	VMOVSS (R13)(R8*2), X5
	VINSERTPS $0x10, (R13)(R15*1), X5, X5
	VCVTPS2PD X4, X4
	VCVTPS2PD X5, X5
	VADDPD X4, X0, X0       // sum + v
	VMULPD X4, X4, X4
	VADDPD X4, X1, X1       // sumsq + v·v
	VADDPD X5, X2, X2
	VMULPD X5, X5, X5
	VADDPD X5, X3, X3
	ADDQ $4, R13
	DECQ CX
	JNZ  sumF

	LNMOMENTS(X0, X1)
	LNMOMENTS(X2, X3)
	VMOVLHPS X2, X0, X0     // the four means
	VMOVLHPS X3, X1, X1     // the four inverse deviations
	VMOVUPS X1, (R10)
	LNROW(0x00, vec0, tail0, done0)
	LNROW(0x55, vec1, tail1, done1)
	LNROW(0xAA, vec2, tail2, done2)
	LNROW(0xFF, vec3, tail3, done3)
	ADDQ $16, R10
	DECQ BX
	JNZ  groupF
	RET

// LNDXROW(imm, vec, tail, done) writes row k of a backward group's dx, k
// the lane VSHUFPS imm selects: SI is the row of dy, R14 its length, X12 the group's four
// mean(dxh), X13 its four mean(dxh·xhat), X11 its four inverse deviations.
#define LNDXROW(imm, vec, tail, done) \
	VSHUFPS $imm, X12, X12, X4; \
	VSHUFPS $imm, X13, X13, X5; \
	VSHUFPS $imm, X11, X11, X6; \
	MOVQ SI, R13; \
	XORQ AX, AX; \
	MOVQ R14, CX; \
vec: \
	CMPQ CX, $4; \
	JLT  tail; \
	VMOVUPS (R13), X0; \
	VMULPS (R10)(AX*1), X0, X0; \
	VSUBPS X4, X0, X0; \
	VMOVUPS (R13)(R9*1), X1; \
	VMULPS X5, X1, X1; \
	VSUBPS X1, X0, X0; \
	VMULPS X6, X0, X0; \
	VMOVUPS X0, (R13)(DI*1); \
	ADDQ $16, R13; \
	ADDQ $16, AX; \
	SUBQ $4, CX; \
	JMP  vec; \
tail: \
	TESTQ CX, CX; \
	JZ   done; \
	VMOVSS (R13), X0; \
	VMULSS (R10)(AX*1), X0, X0; \
	VSUBSS X4, X0, X0; \
	VMOVSS (R13)(R9*1), X1; \
	VMULSS X5, X1, X1; \
	VSUBSS X1, X0, X0; \
	VMULSS X6, X0, X0; \
	VMOVSS X0, (R13)(DI*1); \
	ADDQ $4, R13; \
	ADDQ $4, AX; \
	DECQ CX; \
	JMP  tail; \
done: \
	ADDQ R8, SI

// LNACC(s, a, b, c, d) adds the columns of the 4×4 block of rows a-d to s,
// column after column: lane k of s is row k's running sum, and each column is
// one more element of every row, in index order. X8-X10 and X15 are
// clobbered, a-d too.
#define LNACC(s, a, b, c, d) \
	VUNPCKLPS b, a, X8; \
	VUNPCKHPS b, a, X9; \
	VUNPCKLPS d, c, X10; \
	VUNPCKHPS d, c, X15; \
	VMOVLHPS X10, X8, a; \
	VADDPS a, s, s; \
	VMOVHLPS X8, X10, a; \
	VADDPS a, s, s; \
	VMOVLHPS X15, X9, a; \
	VADDPS a, s, s; \
	VMOVHLPS X9, X15, a; \
	VADDPS a, s, s

// func layerNormBackwardAVX(dx, dGamma, dBeta, dy, xhat, invStd, gamma *float32, rows, d int)
//
// rows is a positive multiple of 4 and d positive. SI walks dy a row at a
// time; R9 and DI are the byte distances from dy to xhat and to dx, R8 a
// row's length in bytes and R15 three of them. R10-R12 are gamma, dGamma,
// dBeta, DX walks invStd, BX counts groups; in a group R13 walks the four
// rows of dy a column at a time and R14 the same columns of xhat, AX is the
// column's byte offset. X12 and X13 are the four rows' sums of dxh and of
// dxh·xhat, X14 the float32 d.
TEXT ·layerNormBackwardAVX(SB), NOSPLIT, $0-72
	MOVQ dx+0(FP), DI
	MOVQ dGamma+8(FP), R11
	MOVQ dBeta+16(FP), R12
	MOVQ dy+24(FP), SI
	MOVQ xhat+32(FP), R9
	MOVQ invStd+40(FP), DX
	MOVQ gamma+48(FP), R10
	MOVQ rows+56(FP), BX
	MOVQ d+64(FP), R8
	SUBQ SI, DI
	SUBQ SI, R9
	CVTSQ2SS R8, X14
	VSHUFPS $0, X14, X14, X14
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R15
	SHRQ $2, BX

groupB:
	VXORPS X12, X12, X12
	VXORPS X13, X13, X13
	MOVQ SI, R13
	XORQ AX, AX
	MOVQ d+64(FP), CX

colsB:
	CMPQ CX, $4
	JLT  colTailB
	LEAQ (R13)(R9*1), R14
	VMOVUPS (R13), X0
	VMOVUPS (R13)(R8*1), X1
	VMOVUPS (R13)(R8*2), X2
	VMOVUPS (R13)(R15*1), X3
	VMOVUPS (R14), X4
	VMOVUPS (R14)(R8*1), X5
	VMOVUPS (R14)(R8*2), X6
	VMOVUPS (R14)(R15*1), X7
	VMOVUPS (R12)(AX*1), X8 // dBeta += dy, row after row
	VADDPS X0, X8, X8
	VADDPS X1, X8, X8
	VADDPS X2, X8, X8
	VADDPS X3, X8, X8
	VMOVUPS X8, (R12)(AX*1)
	VMOVUPS (R11)(AX*1), X9 // dGamma = h·dy + dGamma, row after row
	VMULPS X0, X4, X10
	VADDPS X9, X10, X9
	VMULPS X1, X5, X10
	VADDPS X9, X10, X9
	VMULPS X2, X6, X10
	VADDPS X9, X10, X9
	VMULPS X3, X7, X10
	VADDPS X9, X10, X9
	VMOVUPS X9, (R11)(AX*1)
	VMOVUPS (R10)(AX*1), X11 // dxh = gamma·dy
	VMULPS X0, X11, X0
	VMULPS X1, X11, X1
	VMULPS X2, X11, X2
	VMULPS X3, X11, X3
	VMULPS X0, X4, X4       // h·dxh
	VMULPS X1, X5, X5
	VMULPS X2, X6, X6
	VMULPS X3, X7, X7
	LNACC(X12, X0, X1, X2, X3)
	LNACC(X13, X4, X5, X6, X7)
	ADDQ $16, R13
	ADDQ $16, AX
	SUBQ $4, CX
	JMP  colsB

colTailB:
	TESTQ CX, CX
	JZ   rowsB
	LEAQ (R13)(R9*1), R14
	VMOVSS (R13), X0        // column of dy, one row a lane
	VINSERTPS $0x10, (R13)(R8*1), X0, X0
	VINSERTPS $0x20, (R13)(R8*2), X0, X0
	VINSERTPS $0x30, (R13)(R15*1), X0, X0
	VMOVSS (R14), X4        // column of xhat
	VINSERTPS $0x10, (R14)(R8*1), X4, X4
	VINSERTPS $0x20, (R14)(R8*2), X4, X4
	VINSERTPS $0x30, (R14)(R15*1), X4, X4
	VMOVSS (R12)(AX*1), X8
	VADDSS (R13), X8, X8
	VADDSS (R13)(R8*1), X8, X8
	VADDSS (R13)(R8*2), X8, X8
	VADDSS (R13)(R15*1), X8, X8
	VMOVSS X8, (R12)(AX*1)
	VMOVSS (R11)(AX*1), X9
	VMOVSS (R14), X10
	VMULSS (R13), X10, X10
	VADDSS X9, X10, X9
	VMOVSS (R14)(R8*1), X10
	VMULSS (R13)(R8*1), X10, X10
	VADDSS X9, X10, X9
	VMOVSS (R14)(R8*2), X10
	VMULSS (R13)(R8*2), X10, X10
	VADDSS X9, X10, X9
	VMOVSS (R14)(R15*1), X10
	VMULSS (R13)(R15*1), X10, X10
	VADDSS X9, X10, X9
	VMOVSS X9, (R11)(AX*1)
	VBROADCASTSS (R10)(AX*1), X11
	VMULPS X0, X11, X0
	VMULPS X0, X4, X4
	VADDPS X0, X12, X12
	VADDPS X4, X13, X13
	ADDQ $4, R13
	ADDQ $4, AX
	DECQ CX
	JMP  colTailB

rowsB:
	VDIVPS X14, X12, X12    // mean(dxh)
	VDIVPS X14, X13, X13    // mean(dxh·xhat)
	VMOVUPS (DX), X11
	MOVQ d+64(FP), R14
	LNDXROW(0x00, dvec0, dtail0, ddone0)
	LNDXROW(0x55, dvec1, dtail1, ddone1)
	LNDXROW(0xAA, dvec2, dtail2, ddone2)
	LNDXROW(0xFF, dvec3, dtail3, ddone3)
	ADDQ $16, DX
	DECQ BX
	JNZ  groupB
	RET

// GELU's backward in float64 pairs, operands in the compiler's order for the
// Go loop (math.go): the constants 3·0.044715 (folded to one float64, as the
// Go constant expression is), 1.0, sqrt(2/π) and 0.5.
DATA geluBK<>+0(SB)/8, $0x3fc12ba9d1f60179
DATA geluBK<>+8(SB)/8, $0x3fc12ba9d1f60179
DATA geluBK<>+16(SB)/8, $0x3ff0000000000000
DATA geluBK<>+24(SB)/8, $0x3ff0000000000000
DATA geluBK<>+32(SB)/8, $0x3fe9884533d43651
DATA geluBK<>+40(SB)/8, $0x3fe9884533d43651
DATA geluBK<>+48(SB)/8, $0x3fe0000000000000
DATA geluBK<>+56(SB)/8, $0x3fe0000000000000
GLOBL geluBK<>(SB), RODATA|NOPTR, $64

// GELUB(u, t, a, b, c) turns the float64 pair u (x) and t (the forward's
// tanh) into the pair b = 0.5·(1+t) + 0.5·u·(1−t²)·dInner with dInner =
// (3·0.044715·u·u + 1)·c; a, c, u and t are clobbered. X8-X11 hold the
// constants.
#define GELUB(u, t, a, b, c) \
	VMULPD u, X8, a; \
	VMULPD u, a, a; \
	VADDPD X9, a, a; \
	VMULPD X10, a, a; \
	VADDPD t, X9, b; \
	VMULPD X11, b, b; \
	VMULPD X11, u, u; \
	VMULPD t, t, t; \
	VSUBPD t, X9, c; \
	VMULPD u, c, c; \
	VMULPD a, c, c; \
	VADDPD c, b, b

// func geluBackwardAVX(dx, dy, x *float32, th *float64, n int)
//
// dx = float32(GELUB) · dy, four elements a step as two float64 pairs, then
// one at a time in the low lane (the high lane computes on zeros and is not
// stored). SI walks x, R8 and DI are the byte distances from x to dy and to
// dx, DX walks th, CX counts the elements left.
TEXT ·geluBackwardAVX(SB), NOSPLIT, $0-40
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ th+24(FP), DX
	MOVQ n+32(FP), CX
	SUBQ SI, DI
	SUBQ SI, R8
	VMOVUPD geluBK<>+0(SB), X8
	VMOVUPD geluBK<>+16(SB), X9
	VMOVUPD geluBK<>+32(SB), X10
	VMOVUPD geluBK<>+48(SB), X11

vec4G:
	CMPQ CX, $4
	JLT  tailG
	VMOVUPS (SI), X0
	VCVTPS2PD X0, X1
	VMOVHLPS X0, X0, X0
	VCVTPS2PD X0, X2
	VMOVUPD (DX), X3
	VMOVUPD 16(DX), X4
	GELUB(X1, X3, X5, X6, X7)
	GELUB(X2, X4, X12, X13, X14)
	VCVTPD2PSX X6, X6
	VCVTPD2PSX X13, X13
	VMOVLHPS X13, X6, X6
	VMULPS (SI)(R8*1), X6, X6   // float32(...) · dy
	VMOVUPS X6, (SI)(DI*1)
	ADDQ $16, SI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  vec4G

tailG:
	TESTQ CX, CX
	JZ   doneG
	VMOVSS (SI), X0
	VCVTPS2PD X0, X1
	VMOVSD (DX), X3
	GELUB(X1, X3, X5, X6, X7)
	VCVTPD2PSX X6, X6
	VMULSS (SI)(R8*1), X6, X6
	VMOVSS X6, (SI)(DI*1)
	ADDQ $4, SI
	ADDQ $8, DX
	DECQ CX
	JMP  tailG

doneG:
	RET

// ADAMSTEP(LOAD, STORE) is one step of the Adam update on the lanes LOAD
// fills (VMOVUPS: four; VMOVSS: one, the others zero, which leaves both
// maxima alone): SI walks p, R8-R10 are the byte distances from p to m, v
// and g. X6 and X7 hold the abs-bits maxima of m and v, X8-X15 the
// broadcast beta1, 1−beta1, beta2, 1−beta2, c1, c2, lr and eps.
#define ADAMSTEP(LOAD, STORE) \
	LOAD (SI)(R10*1), X0; \
	LOAD (SI)(R8*1), X1; \
	VMULPS X8, X1, X1; \
	VMULPS X0, X9, X2; \
	VADDPS X1, X2, X2; \
	STORE X2, (SI)(R8*1); \
	LOAD (SI)(R9*1), X3; \
	VMULPS X10, X3, X3; \
	VMULPS X0, X11, X4; \
	VMULPS X0, X4, X4; \
	VADDPS X3, X4, X4; \
	STORE X4, (SI)(R9*1); \
	VPSLLD $1, X2, X5; \
	VPSRLD $1, X5, X5; \
	VPMAXUD X5, X6, X6; \
	VPSLLD $1, X4, X5; \
	VPSRLD $1, X5, X5; \
	VPMAXUD X5, X7, X7; \
	VDIVPS X12, X2, X2; \
	VDIVPS X13, X4, X4; \
	VMULPS X14, X2, X2; \
	VSQRTPS X4, X4; \
	VADDPS X15, X4, X4; \
	VDIVPS X4, X2, X2; \
	LOAD (SI), X5; \
	VSUBPS X2, X5, X5; \
	STORE X5, (SI)

// HMAXUD leaves the unsigned maximum of x's four lanes in its low lane.
#define HMAXUD(x, t) \
	VPSHUFD $0x4E, x, t; \
	VPMAXUD t, x, x; \
	VPSHUFD $0xB1, x, t; \
	VPMAXUD t, x, x

// func adamAVX(p, m, v, grad *float32, n int, k *[8]float32) (mMax, vMax uint32)
//
// The Adam update, per lane in the Go loop's operation order (math.go):
// (1−β1)·g + m·β1, ((1−β2)·g)·g + v·β2, then (m/c1·lr) / (sqrt(v/c2) + eps)
// off p. The square root is VSQRTPS: float32(math.Sqrt(float64(v))) rounds
// to the same float32 (the compiler emits SQRTSS for it), NaN payloads
// included. Abs-bits are the lanes shifted left and back right by one.
TEXT ·adamAVX(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), SI
	MOVQ m+8(FP), R8
	MOVQ v+16(FP), R9
	MOVQ grad+24(FP), R10
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), AX
	SUBQ SI, R8
	SUBQ SI, R9
	SUBQ SI, R10
	VBROADCASTSS 0(AX), X8
	VBROADCASTSS 4(AX), X9
	VBROADCASTSS 8(AX), X10
	VBROADCASTSS 12(AX), X11
	VBROADCASTSS 16(AX), X12
	VBROADCASTSS 20(AX), X13
	VBROADCASTSS 24(AX), X14
	VBROADCASTSS 28(AX), X15
	VPXOR X6, X6, X6
	VPXOR X7, X7, X7

vec4Adam:
	CMPQ CX, $4
	JLT  tailAdam
	ADAMSTEP(VMOVUPS, VMOVUPS)
	ADDQ $16, SI
	SUBQ $4, CX
	JMP  vec4Adam

tailAdam:
	TESTQ CX, CX
	JZ   doneAdam
	ADAMSTEP(VMOVSS, VMOVSS)
	ADDQ $4, SI
	DECQ CX
	JMP  tailAdam

doneAdam:
	HMAXUD(X6, X0)
	HMAXUD(X7, X0)
	VMOVSS X6, mMax+48(FP)
	VMOVSS X7, vMax+52(FP)
	RET

// func addAbsMaxAVX(t, u *float32, n int) uint32
//
// t = t + u (t's element first, as AddInPlace) and the unsigned maximum of
// u's abs-bits, over n elements: eight a step, then four, then one in the
// low lane (the others zero). DI walks t, SI is the byte distance to u; X4
// and X5 are two running maxima.
TEXT ·addAbsMaxAVX(SB), NOSPLIT, $0-28
	MOVQ t+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ n+16(FP), CX
	SUBQ DI, SI
	VPXOR X4, X4, X4
	VPXOR X5, X5, X5

vec8M:
	CMPQ CX, $8
	JLT  vec4M
	VMOVUPS (DI)(SI*1), X0
	VMOVUPS 16(DI)(SI*1), X1
	VMOVUPS (DI), X2
	VMOVUPS 16(DI), X3
	VADDPS X0, X2, X2
	VADDPS X1, X3, X3
	VMOVUPS X2, (DI)
	VMOVUPS X3, 16(DI)
	VPSLLD $1, X0, X0
	VPSRLD $1, X0, X0
	VPSLLD $1, X1, X1
	VPSRLD $1, X1, X1
	VPMAXUD X0, X4, X4
	VPMAXUD X1, X5, X5
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  vec8M

vec4M:
	CMPQ CX, $4
	JLT  tailM
	VMOVUPS (DI)(SI*1), X0
	VMOVUPS (DI), X2
	VADDPS X0, X2, X2
	VMOVUPS X2, (DI)
	VPSLLD $1, X0, X0
	VPSRLD $1, X0, X0
	VPMAXUD X0, X4, X4
	ADDQ $16, DI
	SUBQ $4, CX

tailM:
	TESTQ CX, CX
	JZ   doneM
	VMOVSS (DI)(SI*1), X0
	VMOVSS (DI), X2
	VADDSS X0, X2, X2
	VMOVSS X2, (DI)
	VPSLLD $1, X0, X0
	VPSRLD $1, X0, X0
	VPMAXUD X0, X4, X4
	ADDQ $4, DI
	DECQ CX
	JMP  tailM

doneM:
	VPMAXUD X5, X4, X4
	HMAXUD(X4, X0)
	VMOVSS X4, ret+24(FP)
	RET

// func scaleAVX(t *float32, s float32, n int)
//
// t = t·s over n elements, t's element first (as `t[i] *= s` compiles):
// eight a step, then four, then one at a time.
TEXT ·scaleAVX(SB), NOSPLIT, $0-24
	MOVQ t+0(FP), DI
	VBROADCASTSS s+8(FP), X0
	MOVQ n+16(FP), CX

vec8S:
	CMPQ CX, $8
	JLT  vec4S
	VMOVUPS (DI), X1
	VMOVUPS 16(DI), X2
	VMULPS X0, X1, X1
	VMULPS X0, X2, X2
	VMOVUPS X1, (DI)
	VMOVUPS X2, 16(DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  vec8S

vec4S:
	CMPQ CX, $4
	JLT  tailS
	VMOVUPS (DI), X1
	VMULPS X0, X1, X1
	VMOVUPS X1, (DI)
	ADDQ $16, DI
	SUBQ $4, CX

tailS:
	TESTQ CX, CX
	JZ   doneS
	VMOVSS (DI), X1
	VMULSS X0, X1, X1
	VMOVSS X1, (DI)
	ADDQ $4, DI
	DECQ CX
	JMP  tailS

doneS:
	RET

// The column chains of columnsAVX: a tile of channels in registers, each
// position's row folded into it. COLSTEP(MOV, OP, ADD, a, t, off) loads the
// row's floats at off(AX) into t, forms t = t OP k (the element first) and
// a = t + a (t first).
#define COLSTEP(MOV, OP, ADD, a, t, off) \
	MOV off(AX), t; \
	OP X15, t, t; \
	ADD a, t, a

// COLUMNS(OP, OPS, START16, START4, START1, labels...) is columnsAVX's loop
// for one choice of the row operation (OP, and OPS on one float) and of
// where a chain starts: START16, START4 and START1 put the chains of the
// columns from R12 on — sixteen, four, one — into X0-X3, X0, X0.
#define COLUMNS(OP, OPS, START16, START4, START1, block, g16, r16, g4, r4, g1, r1, next) \
block: \
	XORQ R12, R12; \
g16: \
	LEAQ 16(R12), AX; \
	CMPQ AX, R10; \
	JGT  g4; \
	START16; \
	LEAQ (SI)(R12*4), AX; \
	MOVQ R9, CX; \
r16: \
	COLSTEP(VMOVUPS, OP, VADDPS, X0, X4, 0); \
	COLSTEP(VMOVUPS, OP, VADDPS, X1, X5, 16); \
	COLSTEP(VMOVUPS, OP, VADDPS, X2, X6, 32); \
	COLSTEP(VMOVUPS, OP, VADDPS, X3, X7, 48); \
	ADDQ R11, AX; \
	DECQ CX; \
	JNZ  r16; \
	VMOVUPS X0, (DI)(R12*4); \
	VMOVUPS X1, 16(DI)(R12*4); \
	VMOVUPS X2, 32(DI)(R12*4); \
	VMOVUPS X3, 48(DI)(R12*4); \
	ADDQ $16, R12; \
	JMP  g16; \
g4: \
	LEAQ 4(R12), AX; \
	CMPQ AX, R10; \
	JGT  g1; \
	START4; \
	LEAQ (SI)(R12*4), AX; \
	MOVQ R9, CX; \
r4: \
	COLSTEP(VMOVUPS, OP, VADDPS, X0, X4, 0); \
	ADDQ R11, AX; \
	DECQ CX; \
	JNZ  r4; \
	VMOVUPS X0, (DI)(R12*4); \
	ADDQ $4, R12; \
	JMP  g4; \
g1: \
	CMPQ R12, R10; \
	JGE  next; \
	START1; \
	LEAQ (SI)(R12*4), AX; \
	MOVQ R9, CX; \
r1: \
	COLSTEP(VMOVSS, OPS, VADDSS, X0, X4, 0); \
	ADDQ R11, AX; \
	DECQ CX; \
	JNZ  r1; \
	VMOVSS X0, (DI)(R12*4); \
	INCQ R12; \
	JMP  g1; \
next: \
	ADDQ R11, DI; \
	MOVQ R9, AX; \
	IMULQ R11, AX; \
	ADDQ AX, SI; \
	DECQ R8; \
	JNZ  block

#define ZERO16 VXORPS X0, X0, X0; VXORPS X1, X1, X1; VXORPS X2, X2, X2; VXORPS X3, X3, X3
#define ZERO4 VXORPS X0, X0, X0
#define LOAD16 VMOVUPS (DI)(R12*4), X0; VMOVUPS 16(DI)(R12*4), X1; VMOVUPS 32(DI)(R12*4), X2; VMOVUPS 48(DI)(R12*4), X3
#define LOAD4 VMOVUPS (DI)(R12*4), X0
#define LOAD1 VMOVSS (DI)(R12*4), X0

// func columnsAVX(dst, src *float32, blocks, rows, cols int, k float32, sum bool)
//
// Column chains over blocks of rows×cols floats: for each block b and
// column j, from the block's first row down,
//
//	a = (src[b, r, j] * k) + a       a from +0, stored to dst[b, j] (mean)
//	a = (src[b, r, j] + k) + a       a from dst[b, j], k = +0 (sum)
//
// the element first in the row operation and the row's term first in the
// chain's addition — SeqMean's `o[j] += v * inv` and sumRows' `sum += v;
// acc[ch] += sum` as the compiler emits them. A chain lives in one register
// lane over all the rows; the columns go sixteen, then four, then one at a
// time. blocks, rows and cols are positive.
//
// Registers: DI dst's block row, SI src's block, R8 the blocks left, R9 rows,
// R10 cols, R11 one row in bytes, R12 the column, AX the rows' pointer, CX
// the rows left, X15 the broadcast k, X0-X3 the chains, X4-X7 the terms.
TEXT ·columnsAVX(SB), NOSPLIT, $0-45
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), R8
	MOVQ rows+24(FP), R9
	MOVQ cols+32(FP), R10
	LEAQ (R10*4), R11
	VBROADCASTSS k+40(FP), X15
	CMPB sum+44(FP), $0
	JNE  sumCols
	COLUMNS(VMULPS, VMULSS, ZERO16, ZERO4, ZERO4, meanBlock, mean16, meanRow16, mean4, meanRow4, mean1, meanRow1, meanNext)
	RET

sumCols:
	COLUMNS(VADDPS, VADDSS, LOAD16, LOAD4, LOAD1, sumBlock, sum16, sumRow16, sum4, sumRow4, sum1, sumRow1, sumNext)
	RET

// func softmaxBackwardAVX(out, a, dy *float32, rows, cols int, s float32)
//
// SoftmaxRowsBackward over rows rows of cols floats (both positive), the
// operand orders of softmaxBackwardGo's compile: per row, dot = dot + a·g
// from +0, one element at a time in ascending order, a the first source of
// the product and dot of the sum; then, four elements at a time and one at a
// time for the last cols mod 4, out = ((g − dot)·a)·s, each product's first
// source the value on its left. g is at dy (g names a register here).
TEXT ·softmaxBackwardAVX(SB), NOSPLIT, $0-44
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ dy+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ cols+32(FP), R9
	VBROADCASTSS s+40(FP), X7
	MOVQ R9, R10
	ANDQ $-4, R10

sbRow:
	VXORPS X0, X0, X0
	XORQ AX, AX

sbDot:
	VMOVSS (SI)(AX*4), X1
	VMULSS (DX)(AX*4), X1, X1
	VADDSS X1, X0, X0
	INCQ AX
	CMPQ AX, R9
	JLT  sbDot
	VSHUFPS $0, X0, X0, X0
	XORQ AX, AX

sbVec:
	CMPQ AX, R10
	JGE  sbTail
	VMOVUPS (DX)(AX*4), X1
	VSUBPS X0, X1, X1
	VMULPS (SI)(AX*4), X1, X1
	VMULPS X7, X1, X1
	VMOVUPS X1, (DI)(AX*4)
	ADDQ $4, AX
	JMP  sbVec

sbTail:
	CMPQ AX, R9
	JGE  sbNext
	VMOVSS (DX)(AX*4), X1
	VSUBSS X0, X1, X1
	VMULSS (SI)(AX*4), X1, X1
	VMULSS X7, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ AX
	JMP  sbTail

sbNext:
	LEAQ (SI)(R9*4), SI
	LEAQ (DX)(R9*4), DX
	LEAQ (DI)(R9*4), DI
	DECQ R8
	JNZ  sbRow
	RET
