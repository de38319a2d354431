//go:build amd64 && !purego

#include "textflag.h"

// Two-lane float64 kernels for the transformer's transcendental loops (see
// math.go): the row exponentials of a softmax and GELU's forward pass, whose
// tanh calls exp. Each lane runs the exact operation sequence of the package
// math code it replaces, so each result is bit for bit what the Go loop
// gives:
//
//   - exp is math.archExp ($GOROOT/src/math/exp_amd64.s, Shibata's method):
//     reduce by round(x·log2 e)·ln 2 in two parts, a Taylor polynomial of
//     x/16, four squarings of the form x·(x+2), then the power of two. math
//     takes a fused multiply-add branch on hosts with FMA; so do these
//     kernels, when their fma argument is set. That is the one place FMA
//     instructions appear in the kernels (ci.sh names this file as the
//     exception to its FMA grep): the reference itself fuses there, and a
//     lane that did not would differ from math.Exp in the last bit on about
//     one argument in eleven. math.go decides the argument once, at init, by
//     comparing both branches with math.Exp (probeMath).
//   - tanh is math.tanh, both of its branches in every lane and the result
//     blended: 1 − 2/(s+1) with s = exp(2|x|) for |x| ≥ 0.625, x + x·s·P(s)/Q(s)
//     with s = x² below it, x itself at ±0 and ±1 past 0.5·MAXLOG.
//
// The vector path takes only arguments on which math.archExp runs its main
// line: exp lanes in [−700, 709] (no overflow, no subnormal result) and
// finite GELU inputs (tanh's exp argument, min(2|a|, MAXLOG), then lies in
// [0, 88.03]). A pair with any other lane — NaNs, infinities, huge
// magnitudes — ends the kernel, which returns how many elements it wrote; the
// Go wrapper computes that pair with package math and calls the kernel again
// past it. Within the vector path every input lane is finite and no NaN
// reaches a result (a blended-away branch may make one), so operand order
// decides no NaN payload and follows the reference only for readability.
//
// The arithmetic is 128 bits wide, like every kernel in this package.

// Constants, each a pair of float64 (or int64) lanes.
DATA mathK<>+0(SB)/8, $1.4426950408889634073599246810018920 // log2(e)
DATA mathK<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA mathK<>+16(SB)/8, $0.69314718055966295651160180568695068359375 // ln 2, upper part
DATA mathK<>+24(SB)/8, $0.69314718055966295651160180568695068359375
DATA mathK<>+32(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // ln 2, lower part
DATA mathK<>+40(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA mathK<>+48(SB)/8, $0.0625
DATA mathK<>+56(SB)/8, $0.0625
DATA mathK<>+64(SB)/8, $2.4801587301587301587e-5 // Taylor coefficients, 1/8! down to 1/2
DATA mathK<>+72(SB)/8, $2.4801587301587301587e-5
DATA mathK<>+80(SB)/8, $1.9841269841269841270e-4
DATA mathK<>+88(SB)/8, $1.9841269841269841270e-4
DATA mathK<>+96(SB)/8, $1.3888888888888888889e-3
DATA mathK<>+104(SB)/8, $1.3888888888888888889e-3
DATA mathK<>+112(SB)/8, $8.3333333333333333333e-3
DATA mathK<>+120(SB)/8, $8.3333333333333333333e-3
DATA mathK<>+128(SB)/8, $4.1666666666666666667e-2
DATA mathK<>+136(SB)/8, $4.1666666666666666667e-2
DATA mathK<>+144(SB)/8, $1.6666666666666666667e-1
DATA mathK<>+152(SB)/8, $1.6666666666666666667e-1
DATA mathK<>+160(SB)/8, $0.5
DATA mathK<>+168(SB)/8, $0.5
DATA mathK<>+176(SB)/8, $1.0
DATA mathK<>+184(SB)/8, $1.0
DATA mathK<>+192(SB)/8, $2.0
DATA mathK<>+200(SB)/8, $2.0
DATA mathK<>+208(SB)/8, $1023 // exponent bias, int64
DATA mathK<>+216(SB)/8, $1023
DATA mathK<>+224(SB)/8, $-700.0 // the vector path's exp range
DATA mathK<>+232(SB)/8, $-700.0
DATA mathK<>+240(SB)/8, $709.0
DATA mathK<>+248(SB)/8, $709.0
DATA mathK<>+256(SB)/8, $0x7fffffffffffffff // |x| mask
DATA mathK<>+264(SB)/8, $0x7fffffffffffffff
DATA mathK<>+272(SB)/8, $0x8000000000000000 // sign mask
DATA mathK<>+280(SB)/8, $0x8000000000000000
DATA mathK<>+288(SB)/8, $8.8029691931113054295988e+01 // MAXLOG = log(2**127)
DATA mathK<>+296(SB)/8, $8.8029691931113054295988e+01
DATA mathK<>+304(SB)/8, $4.4014845965556527147994e+01 // 0.5·MAXLOG
DATA mathK<>+312(SB)/8, $4.4014845965556527147994e+01
DATA mathK<>+320(SB)/8, $0.625
DATA mathK<>+328(SB)/8, $0.625
DATA mathK<>+336(SB)/8, $-9.64399179425052238628e-1 // tanhP
DATA mathK<>+344(SB)/8, $-9.64399179425052238628e-1
DATA mathK<>+352(SB)/8, $-9.92877231001918586564e1
DATA mathK<>+360(SB)/8, $-9.92877231001918586564e1
DATA mathK<>+368(SB)/8, $-1.61468768441708447952e3
DATA mathK<>+376(SB)/8, $-1.61468768441708447952e3
DATA mathK<>+384(SB)/8, $1.12811678491632931402e2 // tanhQ
DATA mathK<>+392(SB)/8, $1.12811678491632931402e2
DATA mathK<>+400(SB)/8, $2.23548839060100448583e3
DATA mathK<>+408(SB)/8, $2.23548839060100448583e3
DATA mathK<>+416(SB)/8, $4.84406305325125486048e3
DATA mathK<>+424(SB)/8, $4.84406305325125486048e3
DATA mathK<>+432(SB)/8, $0.7978845608028654 // sqrt(2/pi), GELU's c
DATA mathK<>+440(SB)/8, $0.7978845608028654
DATA mathK<>+448(SB)/8, $0.044715
DATA mathK<>+456(SB)/8, $0.044715
DATA mathK<>+464(SB)/8, $0x7ff0000000000000 // +Inf
DATA mathK<>+472(SB)/8, $0x7ff0000000000000
GLOBL mathK<>(SB), RODATA|NOPTR, $480

#define LOG2E mathK<>+0(SB)
#define LN2U mathK<>+16(SB)
#define LN2L mathK<>+32(SB)
#define SIXTEENTH mathK<>+48(SB)
#define T8 mathK<>+64(SB)
#define T7 mathK<>+80(SB)
#define T6 mathK<>+96(SB)
#define T5 mathK<>+112(SB)
#define T4 mathK<>+128(SB)
#define T3 mathK<>+144(SB)
#define HALF mathK<>+160(SB)
#define ONE mathK<>+176(SB)
#define TWO mathK<>+192(SB)
#define BIAS mathK<>+208(SB)
#define EXPLO mathK<>+224(SB)
#define EXPHI mathK<>+240(SB)
#define ABS mathK<>+256(SB)
#define SIGN mathK<>+272(SB)
#define MAXLOG mathK<>+288(SB)
#define HALFMAXLOG mathK<>+304(SB)
#define TANHCUT mathK<>+320(SB)
#define P0 mathK<>+336(SB)
#define P1 mathK<>+352(SB)
#define P2 mathK<>+368(SB)
#define Q0 mathK<>+384(SB)
#define Q1 mathK<>+400(SB)
#define Q2 mathK<>+416(SB)
#define GELUC mathK<>+432(SB)
#define GELUA mathK<>+448(SB)
#define INF mathK<>+464(SB)

// EXPK(x, t1, t2, t3) replaces both lanes of x with exp(x), math.archExp's
// main line without FMA; t1-t3 are clobbered. t1 takes x·log2 e rounded to
// an integer (the same MXCSR rounding as CVTSD2SL), t2 keeps it as int32s
// for the power of two at the end: the biased exponent is at least 13 and at
// most 2046 on the vector path's range, so that is one exact scaling, as in
// ldexp's main line.
#define EXPK(x, t1, t2, t3) \
	VMULPD LOG2E, x, t1; \
	VCVTPD2DQX t1, t2; \
	VCVTDQ2PD t2, t1; \
	VMULPD LN2U, t1, t3; \
	VSUBPD t3, x, x; \
	VMULPD LN2L, t1, t3; \
	VSUBPD t3, x, x; \
	VMULPD SIXTEENTH, x, x; \
	VMULPD T8, x, t1; \
	VADDPD T7, t1, t1; \
	VMULPD x, t1, t1; \
	VADDPD T6, t1, t1; \
	VMULPD x, t1, t1; \
	VADDPD T5, t1, t1; \
	VMULPD x, t1, t1; \
	VADDPD T4, t1, t1; \
	VMULPD x, t1, t1; \
	VADDPD T3, t1, t1; \
	VMULPD x, t1, t1; \
	VADDPD HALF, t1, t1; \
	VMULPD x, t1, t1; \
	VADDPD ONE, t1, t1; \
	VMULPD t1, x, x; \
	VADDPD TWO, x, t1; \
	VMULPD t1, x, x; \
	VADDPD TWO, x, t1; \
	VMULPD t1, x, x; \
	VADDPD TWO, x, t1; \
	VMULPD t1, x, x; \
	VADDPD TWO, x, t1; \
	VMULPD t1, x, x; \
	VADDPD ONE, x, x; \
	VPMOVSXDQ t2, t2; \
	VPADDQ BIAS, t2, t2; \
	VPSLLQ $52, t2, t2; \
	VMULPD t2, x, x

// EXPF is EXPK on math.archExp's FMA branch: the two reduction steps and
// the polynomial's multiply-adds fused, the last squaring fused with its +1.
#define EXPF(x, t1, t2, t3) \
	VMULPD LOG2E, x, t1; \
	VCVTPD2DQX t1, t2; \
	VCVTDQ2PD t2, t1; \
	VFNMADD231PD LN2U, t1, x; \
	VFNMADD231PD LN2L, t1, x; \
	VMULPD SIXTEENTH, x, x; \
	VMOVUPD T8, t1; \
	VFMADD213PD T7, x, t1; \
	VFMADD213PD T6, x, t1; \
	VFMADD213PD T5, x, t1; \
	VFMADD213PD T4, x, t1; \
	VFMADD213PD T3, x, t1; \
	VFMADD213PD HALF, x, t1; \
	VFMADD213PD ONE, x, t1; \
	VMULPD t1, x, x; \
	VADDPD TWO, x, t1; \
	VMULPD t1, x, x; \
	VADDPD TWO, x, t1; \
	VMULPD t1, x, x; \
	VADDPD TWO, x, t1; \
	VMULPD t1, x, x; \
	VADDPD TWO, x, t1; \
	VFMADD213PD ONE, t1, x; \
	VPMOVSXDQ t2, t2; \
	VPADDQ BIAS, t2, t2; \
	VPSLLQ $52, t2, t2; \
	VMULPD t2, x, x

// EXPK2 and EXPF2 are EXPK and EXPF on two pairs, x and y, their
// instructions interleaved: the chain of one exp is about thirty dependent
// operations, and two side by side keep the scheduler fed.
#define EXPK2(x, t1, t2, t3, y, u1, u2, u3) \
	VMULPD LOG2E, x, t1; \
	VMULPD LOG2E, y, u1; \
	VCVTPD2DQX t1, t2; \
	VCVTPD2DQX u1, u2; \
	VCVTDQ2PD t2, t1; \
	VCVTDQ2PD u2, u1; \
	VMULPD LN2U, t1, t3; \
	VMULPD LN2U, u1, u3; \
	VSUBPD t3, x, x; \
	VSUBPD u3, y, y; \
	VMULPD LN2L, t1, t3; \
	VMULPD LN2L, u1, u3; \
	VSUBPD t3, x, x; \
	VSUBPD u3, y, y; \
	VMULPD SIXTEENTH, x, x; \
	VMULPD SIXTEENTH, y, y; \
	VMULPD T8, x, t1; \
	VMULPD T8, y, u1; \
	VADDPD T7, t1, t1; \
	VADDPD T7, u1, u1; \
	VMULPD x, t1, t1; \
	VMULPD y, u1, u1; \
	VADDPD T6, t1, t1; \
	VADDPD T6, u1, u1; \
	VMULPD x, t1, t1; \
	VMULPD y, u1, u1; \
	VADDPD T5, t1, t1; \
	VADDPD T5, u1, u1; \
	VMULPD x, t1, t1; \
	VMULPD y, u1, u1; \
	VADDPD T4, t1, t1; \
	VADDPD T4, u1, u1; \
	VMULPD x, t1, t1; \
	VMULPD y, u1, u1; \
	VADDPD T3, t1, t1; \
	VADDPD T3, u1, u1; \
	VMULPD x, t1, t1; \
	VMULPD y, u1, u1; \
	VADDPD HALF, t1, t1; \
	VADDPD HALF, u1, u1; \
	VMULPD x, t1, t1; \
	VMULPD y, u1, u1; \
	VADDPD ONE, t1, t1; \
	VADDPD ONE, u1, u1; \
	VMULPD t1, x, x; \
	VMULPD u1, y, y; \
	VADDPD TWO, x, t1; \
	VADDPD TWO, y, u1; \
	VMULPD t1, x, x; \
	VMULPD u1, y, y; \
	VADDPD TWO, x, t1; \
	VADDPD TWO, y, u1; \
	VMULPD t1, x, x; \
	VMULPD u1, y, y; \
	VADDPD TWO, x, t1; \
	VADDPD TWO, y, u1; \
	VMULPD t1, x, x; \
	VMULPD u1, y, y; \
	VADDPD TWO, x, t1; \
	VADDPD TWO, y, u1; \
	VMULPD t1, x, x; \
	VMULPD u1, y, y; \
	VADDPD ONE, x, x; \
	VADDPD ONE, y, y; \
	VPMOVSXDQ t2, t2; \
	VPMOVSXDQ u2, u2; \
	VPADDQ BIAS, t2, t2; \
	VPADDQ BIAS, u2, u2; \
	VPSLLQ $52, t2, t2; \
	VPSLLQ $52, u2, u2; \
	VMULPD t2, x, x; \
	VMULPD u2, y, y

#define EXPF2(x, t1, t2, t3, y, u1, u2, u3) \
	VMULPD LOG2E, x, t1; \
	VMULPD LOG2E, y, u1; \
	VCVTPD2DQX t1, t2; \
	VCVTPD2DQX u1, u2; \
	VCVTDQ2PD t2, t1; \
	VCVTDQ2PD u2, u1; \
	VFNMADD231PD LN2U, t1, x; \
	VFNMADD231PD LN2U, u1, y; \
	VFNMADD231PD LN2L, t1, x; \
	VFNMADD231PD LN2L, u1, y; \
	VMULPD SIXTEENTH, x, x; \
	VMULPD SIXTEENTH, y, y; \
	VMOVUPD T8, t1; \
	VMOVUPD T8, u1; \
	VFMADD213PD T7, x, t1; \
	VFMADD213PD T7, y, u1; \
	VFMADD213PD T6, x, t1; \
	VFMADD213PD T6, y, u1; \
	VFMADD213PD T5, x, t1; \
	VFMADD213PD T5, y, u1; \
	VFMADD213PD T4, x, t1; \
	VFMADD213PD T4, y, u1; \
	VFMADD213PD T3, x, t1; \
	VFMADD213PD T3, y, u1; \
	VFMADD213PD HALF, x, t1; \
	VFMADD213PD HALF, y, u1; \
	VFMADD213PD ONE, x, t1; \
	VFMADD213PD ONE, y, u1; \
	VMULPD t1, x, x; \
	VMULPD u1, y, y; \
	VADDPD TWO, x, t1; \
	VADDPD TWO, y, u1; \
	VMULPD t1, x, x; \
	VMULPD u1, y, y; \
	VADDPD TWO, x, t1; \
	VADDPD TWO, y, u1; \
	VMULPD t1, x, x; \
	VMULPD u1, y, y; \
	VADDPD TWO, x, t1; \
	VADDPD TWO, y, u1; \
	VMULPD t1, x, x; \
	VMULPD u1, y, y; \
	VADDPD TWO, x, t1; \
	VADDPD TWO, y, u1; \
	VFMADD213PD ONE, t1, x; \
	VFMADD213PD ONE, u1, y; \
	VPMOVSXDQ t2, t2; \
	VPMOVSXDQ u2, u2; \
	VPADDQ BIAS, t2, t2; \
	VPADDQ BIAS, u2, u2; \
	VPSLLQ $52, t2, t2; \
	VPSLLQ $52, u2, u2; \
	VMULPD t2, x, x; \
	VMULPD u2, y, y

// GELUARG(u, a) writes GELU's tanh argument c·(u + 0.044715·u·u·u) of the
// float64 pair u into a.
#define GELUARG(u, a) \
	VMULPD GELUA, u, a; \
	VMULPD u, a, a; \
	VMULPD u, a, a; \
	VADDPD u, a, a; \
	VMULPD GELUC, a, a

// GELUFINITE jumps to stop unless both lanes of the pair X0 are finite.
#define GELUFINITE(stop) \
	VANDPD ABS, X0, X1; \
	VCMPPD $0x11, INF, X1, X1; \
	VMOVMSKPD X1, AX; \
	CMPL AX, $3; \
	JNE  stop

// TANHBLEND(a, s, t, z, k1, k2, p, q, m) writes tanh of both lanes of a
// into t, given s = exp(min(2|a|, MAXLOG)): math.tanh's branches computed in
// every lane and blended — 1 − 2/(s+1), negated for a < 0, where |a| ≥
// 0.625; a + a·a²·P(a²)/Q(a²) below it; a itself at ±0; ±1 past 0.5·MAXLOG.
// a is kept, the rest clobbered.
#define TANHBLEND(a, s, t, z, k1, k2, p, q, m) \
	VANDPD ABS, a, z; \
	VADDPD ONE, s, s; \
	VMOVUPD TWO, k1; \
	VDIVPD s, k1, k1; \
	VMOVUPD ONE, s; \
	VSUBPD k1, s, s; \
	VANDPD SIGN, a, k1; \
	VXORPD k1, s, s; \
	VMULPD a, a, k2; \
	VMULPD P0, k2, p; \
	VADDPD P1, p, p; \
	VMULPD k2, p, p; \
	VADDPD P2, p, p; \
	VADDPD Q0, k2, q; \
	VMULPD k2, q, q; \
	VADDPD Q1, q, q; \
	VMULPD k2, q, q; \
	VADDPD Q2, q, q; \
	VMULPD k2, a, t; \
	VMULPD p, t, t; \
	VDIVPD q, t, t; \
	VADDPD t, a, t; \
	VXORPD m, m, m; \
	VCMPPD $0x00, m, a, m; \
	VBLENDVPD m, a, t, t; \
	VCMPPD $0x1D, TANHCUT, z, m; \
	VBLENDVPD m, s, t, t; \
	VORPD ONE, k1, k1; \
	VCMPPD $0x1E, HALFMAXLOG, z, m; \
	VBLENDVPD m, k1, t, t

// EXPRANGE(x, t, u, stop) jumps to stop unless both lanes of x lie in the
// vector path's exp range [−700, 709] (a NaN does not).
#define EXPRANGE(x, t, u, stop) \
	VCMPPD $0x1D, EXPLO, x, t; \
	VCMPPD $0x12, EXPHI, x, u; \
	VANDPD u, t, t; \
	VMOVMSKPD t, AX; \
	CMPL AX, $3; \
	JNE  stop

// EXPROW(EXP, EXP2) is the body of expRowAVX: DI walks e, SI walks x, CX
// counts the elements left, X15 holds the shift in every float32 lane. Four
// elements a step while both pairs are in range, then a pair at a time until
// one is not, then an odd last element in both lanes of a pair.
#define EXPROW(EXP, EXP2, quads, pairs, last, stop) \
quads: \
	CMPQ CX, $4; \
	JLT  pairs; \
	VMOVSD (SI), X0; \
	VMOVSD 8(SI), X4; \
	VSUBPS X15, X0, X0; \
	VSUBPS X15, X4, X4; \
	VCVTPS2PD X0, X0; \
	VCVTPS2PD X4, X4; \
	EXPRANGE(X0, X1, X2, pairs); \
	EXPRANGE(X4, X5, X6, pairs); \
	EXP2(X0, X1, X2, X3, X4, X5, X6, X7); \
	VMOVUPD X0, (DI); \
	VMOVUPD X4, 16(DI); \
	ADDQ $16, SI; \
	ADDQ $32, DI; \
	SUBQ $4, CX; \
	JMP  quads; \
pairs: \
	CMPQ CX, $2; \
	JLT  last; \
	VMOVSD (SI), X0; \
	VSUBPS X15, X0, X0; \
	VCVTPS2PD X0, X0; \
	EXPRANGE(X0, X1, X2, stop); \
	EXP(X0, X1, X2, X3); \
	VMOVUPD X0, (DI); \
	ADDQ $8, SI; \
	ADDQ $16, DI; \
	SUBQ $2, CX; \
	JMP  pairs; \
last: \
	TESTQ CX, CX; \
	JZ   stop; \
	VBROADCASTSS (SI), X0; \
	VSUBPS X15, X0, X0; \
	VCVTPS2PD X0, X0; \
	EXPRANGE(X0, X1, X2, stop); \
	EXP(X0, X1, X2, X3); \
	VMOVSD X0, (DI); \
	DECQ CX

// func expRowAVX(e *float64, x *float32, shift float32, n int, fma bool) int
//
// e[i] = math.Exp(float64(x[i] − shift)) for i < n until a pair holds an
// argument outside [−700, 709]; returns the elements written.
TEXT ·expRowAVX(SB), NOSPLIT, $0-48
	MOVQ e+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSS shift+16(FP), X15
	MOVQ n+24(FP), CX
	MOVQ CX, R8
	CMPB fma+32(FP), $0
	JNE  fused
	EXPROW(EXPK, EXPK2, plainQuads, plainPairs, plainLast, plainStop)

plainStop:
	SUBQ CX, R8
	MOVQ R8, ret+40(FP)
	RET

fused:
	EXPROW(EXPF, EXPF2, fusedQuads, fusedPairs, fusedLast, fusedStop)

fusedStop:
	SUBQ CX, R8
	MOVQ R8, ret+40(FP)
	RET

// GELUEXP(EXP, EXP2) is the second pass of geluForwardAVX: th[i] =
// exp(th[i]) over the CX elements from DX, four at a time, then a pair, then
// an odd last one in the low lane.
#define GELUEXP(EXP, EXP2, quads, pair, last, done) \
quads: \
	CMPQ CX, $4; \
	JLT  pair; \
	VMOVUPD (DX), X0; \
	VMOVUPD 16(DX), X4; \
	EXP2(X0, X1, X2, X3, X4, X5, X6, X7); \
	VMOVUPD X0, (DX); \
	VMOVUPD X4, 16(DX); \
	ADDQ $32, DX; \
	SUBQ $4, CX; \
	JMP  quads; \
pair: \
	CMPQ CX, $2; \
	JLT  last; \
	VMOVUPD (DX), X0; \
	EXP(X0, X1, X2, X3); \
	VMOVUPD X0, (DX); \
	ADDQ $16, DX; \
	SUBQ $2, CX; \
last: \
	TESTQ CX, CX; \
	JZ   done; \
	VMOVSD (DX), X0; \
	EXP(X0, X1, X2, X3); \
	VMOVSD X0, (DX); \
done:

// func geluForwardAVX(out *float32, th *float64, x *float32, n int, fma bool) int
//
// With u = float64(x[i]): th[i] = math.Tanh(c·(u + 0.044715·u·u·u)) and
// out[i] = float32(0.5·u·(1 + th[i])), for i < n until a pair holds a
// non-finite x; returns the elements written. Three passes over those
// elements, each a pair at a time (an odd last element in both lanes of a
// pair, stored from the low one), so that no one loop body carries the whole
// chain of a tanh: th = min(2|a|, MAXLOG) for the tanh argument a, th =
// exp(th), then the blend of tanh's branches from a (computed again) and th,
// and the output.
TEXT ·geluForwardAVX(SB), NOSPLIT, $0-48
	MOVQ th+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ CX, R8

argsG:
	CMPQ CX, $2
	JLT  lastArgG
	VMOVSD (SI), X0
	VCVTPS2PD X0, X0
	GELUFINITE(endArgsG)
	GELUARG(X0, X1)
	VANDPD ABS, X1, X1
	VADDPD X1, X1, X1
	VMINPD MAXLOG, X1, X1
	VMOVUPD X1, (DX)
	ADDQ $8, SI
	ADDQ $16, DX
	SUBQ $2, CX
	JMP  argsG

lastArgG:
	TESTQ CX, CX
	JZ   endArgsG
	VBROADCASTSS (SI), X0
	VCVTPS2PD X0, X0
	GELUFINITE(endArgsG)
	GELUARG(X0, X1)
	VANDPD ABS, X1, X1
	VADDPD X1, X1, X1
	VMINPD MAXLOG, X1, X1
	VMOVSD X1, (DX)
	DECQ CX

endArgsG:
	SUBQ CX, R8 // the elements every pass covers
	MOVQ R8, ret+40(FP)
	MOVQ th+8(FP), DX
	MOVQ R8, CX
	CMPB fma+32(FP), $0
	JNE  fusedG
	GELUEXP(EXPK, EXPK2, plainQuadsG, plainPairG, plainLastG, plainDoneG)
	JMP  blendG

fusedG:
	GELUEXP(EXPF, EXPF2, fusedQuadsG, fusedPairG, fusedLastG, fusedDoneG)

blendG:
	MOVQ out+0(FP), DI
	MOVQ th+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ R8, CX

pairsG:
	CMPQ CX, $2
	JLT  lastG
	VMOVSD (SI), X0
	VCVTPS2PD X0, X0
	GELUARG(X0, X1)
	VMOVUPD (DX), X5
	TANHBLEND(X1, X5, X2, X4, X6, X7, X9, X10, X11)
	VMOVUPD X2, (DX)
	VMULPD HALF, X0, X0
	VADDPD ONE, X2, X3
	VMULPD X0, X3, X3
	VCVTPD2PSX X3, X3
	VMOVSD X3, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $16, DX
	SUBQ $2, CX
	JMP  pairsG

lastG:
	TESTQ CX, CX
	JZ   doneG
	VBROADCASTSS (SI), X0
	VCVTPS2PD X0, X0
	GELUARG(X0, X1)
	VMOVSD (DX), X5
	TANHBLEND(X1, X5, X2, X4, X6, X7, X9, X10, X11)
	VMOVSD X2, (DX)
	VMULPD HALF, X0, X0
	VADDPD ONE, X2, X3
	VMULPD X0, X3, X3
	VCVTPD2PSX X3, X3
	VMOVSS X3, (DI)

doneG:
	RET
