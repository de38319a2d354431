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
