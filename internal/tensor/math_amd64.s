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
//   - tanh is math.tanh, each lane on its own branch: the lanes are sorted by
//     branch first, then 1 − 2/(s+1) with s = exp(2|x|) runs, a pair at a
//     time, on the lanes with |x| ≥ 0.625 only (±1 past 0.5·MAXLOG), and
//     x + x·s·P(s)/Q(s) with s = x² on the others only (x itself at ±0).
//
// The vector path takes only arguments on which math.archExp runs its main
// line: exp lanes in [−700, 709] (no overflow, no subnormal result) and
// finite GELU inputs (tanh's exp argument, min(2|a|, MAXLOG), then lies in
// [0, 88.03]). A pair with any other lane — NaNs, infinities, huge
// magnitudes — ends the kernel, which returns how many elements it wrote; the
// Go wrapper computes that pair with package math and calls the kernel again
// past it. Within the vector path every input lane is finite and no NaN
// reaches a result, so operand order decides no NaN payload and follows the
// reference only for readability.
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
DATA mathK<>+480(SB)/8, $0 // the element indices of a chunk's first pair, int64
DATA mathK<>+488(SB)/8, $1
DATA mathK<>+496(SB)/8, $2 // a pair's step, int64
DATA mathK<>+504(SB)/8, $2
GLOBL mathK<>(SB), RODATA|NOPTR, $512

// The VPERMILPD controls that pack a pair's selected lanes to its front,
// indexed by the 2-bit mask of the lanes selected: lane 1 alone moves to
// lane 0; otherwise the lanes stay (a lane past the selected ones is written
// and not counted).
DATA pack<>+0(SB)/8, $0
DATA pack<>+8(SB)/8, $2
DATA pack<>+16(SB)/8, $0
DATA pack<>+24(SB)/8, $2
DATA pack<>+32(SB)/8, $2
DATA pack<>+40(SB)/8, $2
DATA pack<>+48(SB)/8, $0
DATA pack<>+56(SB)/8, $2
GLOBL pack<>(SB), RODATA|NOPTR, $64

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
#define IDX01 mathK<>+480(SB)
#define IDXSTEP mathK<>+496(SB)

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

// EXPK4 and EXPF4 are EXPK and EXPF on four pairs, their instructions
// interleaved as in EXPK2: four chains keep both vector ports busy where two
// leave each waiting on its own latency. They take all sixteen registers.
#define EXPK4(x0, a0, b0, c0, x1, a1, b1, c1, x2, a2, b2, c2, x3, a3, b3, c3) \
	VMULPD LOG2E, x0, a0; \
	VMULPD LOG2E, x1, a1; \
	VMULPD LOG2E, x2, a2; \
	VMULPD LOG2E, x3, a3; \
	VCVTPD2DQX a0, b0; \
	VCVTPD2DQX a1, b1; \
	VCVTPD2DQX a2, b2; \
	VCVTPD2DQX a3, b3; \
	VCVTDQ2PD b0, a0; \
	VCVTDQ2PD b1, a1; \
	VCVTDQ2PD b2, a2; \
	VCVTDQ2PD b3, a3; \
	VMULPD LN2U, a0, c0; \
	VMULPD LN2U, a1, c1; \
	VMULPD LN2U, a2, c2; \
	VMULPD LN2U, a3, c3; \
	VSUBPD c0, x0, x0; \
	VSUBPD c1, x1, x1; \
	VSUBPD c2, x2, x2; \
	VSUBPD c3, x3, x3; \
	VMULPD LN2L, a0, c0; \
	VMULPD LN2L, a1, c1; \
	VMULPD LN2L, a2, c2; \
	VMULPD LN2L, a3, c3; \
	VSUBPD c0, x0, x0; \
	VSUBPD c1, x1, x1; \
	VSUBPD c2, x2, x2; \
	VSUBPD c3, x3, x3; \
	VMULPD SIXTEENTH, x0, x0; \
	VMULPD SIXTEENTH, x1, x1; \
	VMULPD SIXTEENTH, x2, x2; \
	VMULPD SIXTEENTH, x3, x3; \
	VMULPD T8, x0, a0; \
	VMULPD T8, x1, a1; \
	VMULPD T8, x2, a2; \
	VMULPD T8, x3, a3; \
	VADDPD T7, a0, a0; \
	VADDPD T7, a1, a1; \
	VADDPD T7, a2, a2; \
	VADDPD T7, a3, a3; \
	VMULPD x0, a0, a0; \
	VMULPD x1, a1, a1; \
	VMULPD x2, a2, a2; \
	VMULPD x3, a3, a3; \
	VADDPD T6, a0, a0; \
	VADDPD T6, a1, a1; \
	VADDPD T6, a2, a2; \
	VADDPD T6, a3, a3; \
	VMULPD x0, a0, a0; \
	VMULPD x1, a1, a1; \
	VMULPD x2, a2, a2; \
	VMULPD x3, a3, a3; \
	VADDPD T5, a0, a0; \
	VADDPD T5, a1, a1; \
	VADDPD T5, a2, a2; \
	VADDPD T5, a3, a3; \
	VMULPD x0, a0, a0; \
	VMULPD x1, a1, a1; \
	VMULPD x2, a2, a2; \
	VMULPD x3, a3, a3; \
	VADDPD T4, a0, a0; \
	VADDPD T4, a1, a1; \
	VADDPD T4, a2, a2; \
	VADDPD T4, a3, a3; \
	VMULPD x0, a0, a0; \
	VMULPD x1, a1, a1; \
	VMULPD x2, a2, a2; \
	VMULPD x3, a3, a3; \
	VADDPD T3, a0, a0; \
	VADDPD T3, a1, a1; \
	VADDPD T3, a2, a2; \
	VADDPD T3, a3, a3; \
	VMULPD x0, a0, a0; \
	VMULPD x1, a1, a1; \
	VMULPD x2, a2, a2; \
	VMULPD x3, a3, a3; \
	VADDPD HALF, a0, a0; \
	VADDPD HALF, a1, a1; \
	VADDPD HALF, a2, a2; \
	VADDPD HALF, a3, a3; \
	VMULPD x0, a0, a0; \
	VMULPD x1, a1, a1; \
	VMULPD x2, a2, a2; \
	VMULPD x3, a3, a3; \
	VADDPD ONE, a0, a0; \
	VADDPD ONE, a1, a1; \
	VADDPD ONE, a2, a2; \
	VADDPD ONE, a3, a3; \
	VMULPD a0, x0, x0; \
	VMULPD a1, x1, x1; \
	VMULPD a2, x2, x2; \
	VMULPD a3, x3, x3; \
	VADDPD TWO, x0, a0; \
	VADDPD TWO, x1, a1; \
	VADDPD TWO, x2, a2; \
	VADDPD TWO, x3, a3; \
	VMULPD a0, x0, x0; \
	VMULPD a1, x1, x1; \
	VMULPD a2, x2, x2; \
	VMULPD a3, x3, x3; \
	VADDPD TWO, x0, a0; \
	VADDPD TWO, x1, a1; \
	VADDPD TWO, x2, a2; \
	VADDPD TWO, x3, a3; \
	VMULPD a0, x0, x0; \
	VMULPD a1, x1, x1; \
	VMULPD a2, x2, x2; \
	VMULPD a3, x3, x3; \
	VADDPD TWO, x0, a0; \
	VADDPD TWO, x1, a1; \
	VADDPD TWO, x2, a2; \
	VADDPD TWO, x3, a3; \
	VMULPD a0, x0, x0; \
	VMULPD a1, x1, x1; \
	VMULPD a2, x2, x2; \
	VMULPD a3, x3, x3; \
	VADDPD TWO, x0, a0; \
	VADDPD TWO, x1, a1; \
	VADDPD TWO, x2, a2; \
	VADDPD TWO, x3, a3; \
	VMULPD a0, x0, x0; \
	VMULPD a1, x1, x1; \
	VMULPD a2, x2, x2; \
	VMULPD a3, x3, x3; \
	VADDPD ONE, x0, x0; \
	VADDPD ONE, x1, x1; \
	VADDPD ONE, x2, x2; \
	VADDPD ONE, x3, x3; \
	VPMOVSXDQ b0, b0; \
	VPMOVSXDQ b1, b1; \
	VPMOVSXDQ b2, b2; \
	VPMOVSXDQ b3, b3; \
	VPADDQ BIAS, b0, b0; \
	VPADDQ BIAS, b1, b1; \
	VPADDQ BIAS, b2, b2; \
	VPADDQ BIAS, b3, b3; \
	VPSLLQ $52, b0, b0; \
	VPSLLQ $52, b1, b1; \
	VPSLLQ $52, b2, b2; \
	VPSLLQ $52, b3, b3; \
	VMULPD b0, x0, x0; \
	VMULPD b1, x1, x1; \
	VMULPD b2, x2, x2; \
	VMULPD b3, x3, x3

#define EXPF4(x0, a0, b0, c0, x1, a1, b1, c1, x2, a2, b2, c2, x3, a3, b3, c3) \
	VMULPD LOG2E, x0, a0; \
	VMULPD LOG2E, x1, a1; \
	VMULPD LOG2E, x2, a2; \
	VMULPD LOG2E, x3, a3; \
	VCVTPD2DQX a0, b0; \
	VCVTPD2DQX a1, b1; \
	VCVTPD2DQX a2, b2; \
	VCVTPD2DQX a3, b3; \
	VCVTDQ2PD b0, a0; \
	VCVTDQ2PD b1, a1; \
	VCVTDQ2PD b2, a2; \
	VCVTDQ2PD b3, a3; \
	VFNMADD231PD LN2U, a0, x0; \
	VFNMADD231PD LN2U, a1, x1; \
	VFNMADD231PD LN2U, a2, x2; \
	VFNMADD231PD LN2U, a3, x3; \
	VFNMADD231PD LN2L, a0, x0; \
	VFNMADD231PD LN2L, a1, x1; \
	VFNMADD231PD LN2L, a2, x2; \
	VFNMADD231PD LN2L, a3, x3; \
	VMULPD SIXTEENTH, x0, x0; \
	VMULPD SIXTEENTH, x1, x1; \
	VMULPD SIXTEENTH, x2, x2; \
	VMULPD SIXTEENTH, x3, x3; \
	VMOVUPD T8, a0; \
	VMOVUPD T8, a1; \
	VMOVUPD T8, a2; \
	VMOVUPD T8, a3; \
	VFMADD213PD T7, x0, a0; \
	VFMADD213PD T7, x1, a1; \
	VFMADD213PD T7, x2, a2; \
	VFMADD213PD T7, x3, a3; \
	VFMADD213PD T6, x0, a0; \
	VFMADD213PD T6, x1, a1; \
	VFMADD213PD T6, x2, a2; \
	VFMADD213PD T6, x3, a3; \
	VFMADD213PD T5, x0, a0; \
	VFMADD213PD T5, x1, a1; \
	VFMADD213PD T5, x2, a2; \
	VFMADD213PD T5, x3, a3; \
	VFMADD213PD T4, x0, a0; \
	VFMADD213PD T4, x1, a1; \
	VFMADD213PD T4, x2, a2; \
	VFMADD213PD T4, x3, a3; \
	VFMADD213PD T3, x0, a0; \
	VFMADD213PD T3, x1, a1; \
	VFMADD213PD T3, x2, a2; \
	VFMADD213PD T3, x3, a3; \
	VFMADD213PD HALF, x0, a0; \
	VFMADD213PD HALF, x1, a1; \
	VFMADD213PD HALF, x2, a2; \
	VFMADD213PD HALF, x3, a3; \
	VFMADD213PD ONE, x0, a0; \
	VFMADD213PD ONE, x1, a1; \
	VFMADD213PD ONE, x2, a2; \
	VFMADD213PD ONE, x3, a3; \
	VMULPD a0, x0, x0; \
	VMULPD a1, x1, x1; \
	VMULPD a2, x2, x2; \
	VMULPD a3, x3, x3; \
	VADDPD TWO, x0, a0; \
	VADDPD TWO, x1, a1; \
	VADDPD TWO, x2, a2; \
	VADDPD TWO, x3, a3; \
	VMULPD a0, x0, x0; \
	VMULPD a1, x1, x1; \
	VMULPD a2, x2, x2; \
	VMULPD a3, x3, x3; \
	VADDPD TWO, x0, a0; \
	VADDPD TWO, x1, a1; \
	VADDPD TWO, x2, a2; \
	VADDPD TWO, x3, a3; \
	VMULPD a0, x0, x0; \
	VMULPD a1, x1, x1; \
	VMULPD a2, x2, x2; \
	VMULPD a3, x3, x3; \
	VADDPD TWO, x0, a0; \
	VADDPD TWO, x1, a1; \
	VADDPD TWO, x2, a2; \
	VADDPD TWO, x3, a3; \
	VMULPD a0, x0, x0; \
	VMULPD a1, x1, x1; \
	VMULPD a2, x2, x2; \
	VMULPD a3, x3, x3; \
	VADDPD TWO, x0, a0; \
	VADDPD TWO, x1, a1; \
	VADDPD TWO, x2, a2; \
	VADDPD TWO, x3, a3; \
	VFMADD213PD ONE, a0, x0; \
	VFMADD213PD ONE, a1, x1; \
	VFMADD213PD ONE, a2, x2; \
	VFMADD213PD ONE, a3, x3; \
	VPMOVSXDQ b0, b0; \
	VPMOVSXDQ b1, b1; \
	VPMOVSXDQ b2, b2; \
	VPMOVSXDQ b3, b3; \
	VPADDQ BIAS, b0, b0; \
	VPADDQ BIAS, b1, b1; \
	VPADDQ BIAS, b2, b2; \
	VPADDQ BIAS, b3, b3; \
	VPSLLQ $52, b0, b0; \
	VPSLLQ $52, b1, b1; \
	VPSLLQ $52, b2, b2; \
	VPSLLQ $52, b3, b3; \
	VMULPD b0, x0, x0; \
	VMULPD b1, x1, x1; \
	VMULPD b2, x2, x2; \
	VMULPD b3, x3, x3

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

// TANHBIG(a, s, t, z, k) writes tanh of both lanes of a into t for lanes
// with |a| ≥ 0.625, given s = exp(min(2|a|, MAXLOG)): math.tanh's branch
// 1 − 2/(s+1), negated for a < 0, and ±1 past 0.5·MAXLOG. a is kept, the
// rest clobbered.
#define TANHBIG(a, s, t, z, k) \
	VANDPD ABS, a, z; \
	VADDPD ONE, s, s; \
	VMOVUPD TWO, k; \
	VDIVPD s, k, k; \
	VMOVUPD ONE, t; \
	VSUBPD k, t, t; \
	VANDPD SIGN, a, k; \
	VXORPD k, t, t; \
	VORPD ONE, k, k; \
	VCMPPD $0x1E, HALFMAXLOG, z, z; \
	VBLENDVPD z, k, t, t

// TANHSMALL(a, t, s, p, q, m) writes tanh of both lanes of a into t for lanes
// with |a| < 0.625: math.tanh's branch a + a·s·P(s)/Q(s) with s = a², and a
// itself at ±0. a is kept, the rest clobbered.
#define TANHSMALL(a, t, s, p, q, m) \
	VMULPD a, a, s; \
	VMULPD P0, s, p; \
	VADDPD P1, p, p; \
	VMULPD s, p, p; \
	VADDPD P2, p, p; \
	VADDPD Q0, s, q; \
	VMULPD s, q, q; \
	VADDPD Q1, q, q; \
	VMULPD s, q, q; \
	VADDPD Q2, q, q; \
	VMULPD s, a, t; \
	VMULPD p, t, t; \
	VDIVPD q, t, t; \
	VADDPD t, a, t; \
	VXORPD m, m, m; \
	VCMPPD $0x00, m, a, m; \
	VBLENDVPD m, a, t, t

// EXPRANGE(x, t, u, stop) jumps to stop unless both lanes of x lie in the
// vector path's exp range [−700, 709] (a NaN does not).
#define EXPRANGE(x, t, u, stop) \
	VCMPPD $0x1D, EXPLO, x, t; \
	VCMPPD $0x12, EXPHI, x, u; \
	VANDPD u, t, t; \
	VMOVMSKPD t, AX; \
	CMPL AX, $3; \
	JNE  stop

// EXPROW(EXP, EXP2, EXP4) is the body of expRowAVX and the exp pass of
// softmaxRowsAVX: DI walks e, SI walks x, CX counts the elements left, X15
// holds the shift in every float32 lane (EXP4 needs every register, so it is
// broadcast again after one from BX, which holds its bits). Eight
// elements a step while all four pairs are in range, then four while both
// pairs are, then a pair at a time until one is not, then an odd last
// element in both lanes of a pair.
#define EXPROW(EXP, EXP2, EXP4, octs, quads, pairs, last, stop) \
octs: \
	CMPQ CX, $8; \
	JLT  quads; \
	VMOVSD (SI), X0; \
	VMOVSD 8(SI), X4; \
	VMOVSD 16(SI), X8; \
	VMOVSD 24(SI), X12; \
	VSUBPS X15, X0, X0; \
	VSUBPS X15, X4, X4; \
	VSUBPS X15, X8, X8; \
	VSUBPS X15, X12, X12; \
	VCVTPS2PD X0, X0; \
	VCVTPS2PD X4, X4; \
	VCVTPS2PD X8, X8; \
	VCVTPS2PD X12, X12; \
	EXPRANGE(X0, X1, X2, quads); \
	EXPRANGE(X4, X5, X6, quads); \
	EXPRANGE(X8, X9, X10, quads); \
	EXPRANGE(X12, X13, X14, quads); \
	EXP4(X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, X14, X15); \
	VMOVUPD X0, (DI); \
	VMOVUPD X4, 16(DI); \
	VMOVUPD X8, 32(DI); \
	VMOVUPD X12, 48(DI); \
	VMOVD BX, X15; \
	VSHUFPS $0, X15, X15, X15; \
	ADDQ $32, SI; \
	ADDQ $64, DI; \
	SUBQ $8, CX; \
	JMP  octs; \
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

// SOFTMAXROWS(EXP, EXP2, EXP4) is the body of softmaxRowsAVX, one row at a
// time: R8 walks s and R9 out a row at a time, R11 holds cols, R12 counts the
// rows written. The row's maximum is a scalar loop of softmaxRowGo's
// `if v > max { max = v }`, without a branch: VMAXSS with v the first
// source gives v only when v > max, so a NaN neither replaces nor is
// replaced and of ±0 the first stays; it is the shift EXPROW takes in BX.
// EXPROW writes the
// exponentials to e, and a row it does not finish ends the kernel before
// anything of the row is stored. Then, element by element, out = float32(e)
// and sum = sum + e from +0, float64, ascending; inv = float32(1/sum); and
// out·inv four at a time, one at a time for the last cols mod 4. Every value
// in this stretch is finite — each exponential is at most exp(0) = 1 and the
// maximum's is exactly 1 — so no NaN payload is in play.
#define SOFTMAXROWS(EXP, EXP2, EXP4, row, maxLoop, maxNext, octs, quads, pairs, last, stop, sum, mul4, mul1, next, done) \
row: \
	CMPQ R12, rows+24(FP); \
	JGE  done; \
	VMOVSS (R8), X15; \
	MOVQ $1, DX; \
maxLoop: \
	CMPQ DX, R11; \
	JGE  maxNext; \
	VMOVSS (R8)(DX*4), X0; \
	VMAXSS X15, X0, X15; \
	INCQ DX; \
	JMP  maxLoop; \
maxNext: \
	VMOVD X15, BX; \
	VSHUFPS $0, X15, X15, X15; \
	MOVQ R8, SI; \
	MOVQ e+8(FP), DI; \
	MOVQ R11, CX; \
	EXPROW(EXP, EXP2, EXP4, octs, quads, pairs, last, stop); \
stop: \
	TESTQ CX, CX; \
	JNZ  done; \
	MOVQ e+8(FP), DI; \
	VXORPD X0, X0, X0; \
	XORQ DX, DX; \
sum: \
	VMOVSD (DI)(DX*8), X1; \
	VADDSD X1, X0, X0; \
	VCVTSD2SS X1, X1, X1; \
	VMOVSS X1, (R9)(DX*4); \
	INCQ DX; \
	CMPQ DX, R11; \
	JLT  sum; \
	VMOVSD ONE, X1; \
	VDIVSD X0, X1, X1; \
	VCVTSD2SS X1, X1, X1; \
	VSHUFPS $0, X1, X1, X1; \
	MOVQ R11, CX; \
	ANDQ $-4, CX; \
	XORQ DX, DX; \
mul4: \
	CMPQ DX, CX; \
	JGE  mul1; \
	VMOVUPS (R9)(DX*4), X2; \
	VMULPS X1, X2, X2; \
	VMOVUPS X2, (R9)(DX*4); \
	ADDQ $4, DX; \
	JMP  mul4; \
mul1: \
	CMPQ DX, R11; \
	JGE  next; \
	VMOVSS (R9)(DX*4), X2; \
	VMULSS X1, X2, X2; \
	VMOVSS X2, (R9)(DX*4); \
	INCQ DX; \
	JMP  mul1; \
next: \
	LEAQ (R8)(R11*4), R8; \
	LEAQ (R9)(R11*4), R9; \
	INCQ R12; \
	JMP  row

// func expRowAVX(e *float64, x *float32, shift float32, n int, fma bool) int
//
// e[i] = math.Exp(float64(x[i] − shift)) for i < n until a pair holds an
// argument outside [−700, 709]; returns the elements written.
TEXT ·expRowAVX(SB), NOSPLIT, $0-48
	MOVQ e+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSS shift+16(FP), X15
	MOVL shift+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ CX, R8
	CMPB fma+32(FP), $0
	JNE  fused
	EXPROW(EXPK, EXPK2, EXPK4, plainOcts, plainQuads, plainPairs, plainLast, plainStop)

plainStop:
	SUBQ CX, R8
	MOVQ R8, ret+40(FP)
	RET

fused:
	EXPROW(EXPF, EXPF2, EXPF4, fusedOcts, fusedQuads, fusedPairs, fusedLast, fusedStop)

fusedStop:
	SUBQ CX, R8
	MOVQ R8, ret+40(FP)
	RET

// func softmaxRowsAVX(out *float32, e *float64, s *float32, rows, cols int, fma bool) int
//
// SoftmaxRows over rows rows of cols floats (both positive) until a row
// leaves the exp range; returns the rows written.
TEXT ·softmaxRowsAVX(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), R9
	MOVQ s+16(FP), R8
	MOVQ cols+32(FP), R11
	XORQ R12, R12
	CMPB fma+40(FP), $0
	JNE  smFused
	SOFTMAXROWS(EXPK, EXPK2, EXPK4, smPlainRow, smPlainMax, smPlainMaxDone, smPlainOcts, smPlainQuads, smPlainPairs, smPlainLast, smPlainStop, smPlainSum, smPlainMul4, smPlainMul1, smPlainNext, smDone)

smFused:
	SOFTMAXROWS(EXPF, EXPF2, EXPF4, smFusedRow, smFusedMax, smFusedMaxDone, smFusedOcts, smFusedQuads, smFusedPairs, smFusedLast, smFusedStop, smFusedSum, smFusedMul4, smFusedMul1, smFusedNext, smDone)

smDone:
	MOVQ R12, ret+48(FP)
	RET

// GELUEXP(EXP, EXP2, EXP4) is the exp pass of geluForwardAVX: x = exp(x)
// over the CX float64s from DX, CX even, eight at a time, then four, then a
// pair.
#define GELUEXP(EXP, EXP2, EXP4, octs, quads, pair, done) \
octs: \
	CMPQ CX, $8; \
	JLT  quads; \
	VMOVUPD (DX), X0; \
	VMOVUPD 16(DX), X4; \
	VMOVUPD 32(DX), X8; \
	VMOVUPD 48(DX), X12; \
	EXP4(X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, X14, X15); \
	VMOVUPD X0, (DX); \
	VMOVUPD X4, 16(DX); \
	VMOVUPD X8, 32(DX); \
	VMOVUPD X12, 48(DX); \
	ADDQ $64, DX; \
	SUBQ $8, CX; \
	JMP  octs; \
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
pair: \
	TESTQ CX, CX; \
	JZ   done; \
	VMOVUPD (DX), X0; \
	EXP(X0, X1, X2, X3); \
	VMOVUPD X0, (DX); \
done:

// The scratch geluForwardAVX sorts a chunk of up to 64 elements into, on
// its own frame (R10 points at it): big, the exp arguments of the lanes on
// tanh's exp branch; small, the arguments a of the others; and each entry's
// element in the chunk, an int64. Each list has two entries of slack: a
// pair is stored whole wherever its first selected lane goes.
#define SORTBIG 0
#define SORTSMALL 528
#define SORTBIGAT 1056
#define SORTSMALLAT 1584

// SORTARGS writes a = GELU's tanh argument of the pair X0 into X1, the exp
// argument min(2|a|, MAXLOG) into X2, and the lanes with |a| ≥ 0.625 as the
// bits of BX.
#define SORTARGS \
	GELUARG(X0, X1); \
	VANDPD ABS, X1, X2; \
	VCMPPD $0x1D, TANHCUT, X2, X3; \
	VMOVMSKPD X3, BX; \
	VADDPD X2, X2, X2; \
	VMINPD MAXLOG, X2, X2

// SORTPAIR files a pair: the lanes BX selects, their exp arguments (X2)
// and element indices (X12), packed to the front of a vector and stored at
// big[R11], the other lanes' a (X1) and indices likewise at small[R12];
// each count moves by its lanes. R14 holds pack<>.
#define SORTPAIR \
	MOVQ BX, AX; \
	SHLQ $4, AX; \
	VMOVUPD (R14)(AX*1), X13; \
	VPERMILPD X13, X2, X3; \
	VPERMILPD X13, X12, X4; \
	VMOVUPD X3, SORTBIG(R10)(R11*8); \
	VMOVUPD X4, SORTBIGAT(R10)(R11*8); \
	XORQ $(3<<4), AX; \
	VMOVUPD (R14)(AX*1), X13; \
	VPERMILPD X13, X1, X3; \
	VPERMILPD X13, X12, X4; \
	VMOVUPD X3, SORTSMALL(R10)(R12*8); \
	VMOVUPD X4, SORTSMALLAT(R10)(R12*8); \
	MOVQ BX, AX; \
	SHRQ $1, AX; \
	ANDQ $1, BX; \
	ADDQ BX, AX; \
	ADDQ AX, R11; \
	SUBQ AX, R12; \
	ADDQ $2, R12

// PADODD(count, vals, at) repeats the last entry of a list of odd length
// once, so that the passes over it run whole pairs: the repeat computes the
// same lane again and writes the same element twice.
#define PADODD(count, vals, at, even) \
	TESTQ $1, count; \
	JZ   even; \
	VMOVSD (vals-8)(R10)(count*8), X0; \
	VMOVSD X0, vals(R10)(count*8); \
	MOVQ (at-8)(R10)(count*8), AX; \
	MOVQ AX, at(R10)(count*8); \
	INCQ count; \
even:

// func geluForwardAVX(out *float32, th *float64, x *float32, n int, fma bool) int
//
// With u = float64(x[i]): th[i] = math.Tanh(c·(u + 0.044715·u·u·u)) and
// out[i] = float32(0.5·u·(1 + th[i])), for i < n until a pair holds a
// non-finite x; returns the elements written. Chunks of up to 64 elements,
// five passes each, so that each lane computes only its own branch of tanh:
//
//  1. a pair at a time, the tanh argument a into th and, by the branch
//     |a| ≥ 0.625 picks, each lane's exp argument into big or its a into
//     small, with the element's index (branch-free: a pair's selected lanes
//     are packed to the front of a vector, the vector stored, the count
//     moved by the lanes);
//  2. exp over big;
//  3. the exp branch over big's pairs, each lane's a read back from th and
//     its tanh written there;
//  4. the polynomial branch over small's pairs, written to th likewise;
//  5. the outputs from x and th, a pair at a time.
//
// An odd list is padded with its last entry; an odd chunk's last element
// goes through the first and last pass in both lanes of a pair, filed and
// stored from the low one.
//
// The lists live on the frame, which is why this kernel is not NOSPLIT: it
// calls nothing, and its frame holds no pointer.
//
// Registers: SI and DX the chunk's x and th, R9 its length, R10 the lists,
// R11 and R12 big's and small's counts, R13 and R14 indices (R14 pack<> in
// pass 1), X12 the pair's element indices; the frame holds the elements
// done before the chunk, the chunk's sorted elements and whether a
// non-finite pair ended it, below them the lists.
TEXT ·geluForwardAVX(SB), $2136-48
	MOVQ $0, done-8(SP)
	MOVQ $0, stop-24(SP)
	LEAQ lists-2136(SP), R10

chunkG:
	MOVQ n+24(FP), R9
	MOVQ done-8(SP), AX
	SUBQ AX, R9
	JLE  retG
	CMPQ R9, $64
	JLE  baseG
	MOVQ $64, R9

baseG:
	MOVQ th+8(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ x+16(FP), SI
	LEAQ (SI)(AX*4), SI
	XORQ R11, R11
	XORQ R12, R12
	XORQ R13, R13
	VMOVDQU IDX01, X12
	LEAQ pack<>(SB), R14

sortG:
	MOVQ R9, AX
	SUBQ R13, AX
	CMPQ AX, $2
	JLT  sortLastG
	VMOVSD (SI)(R13*4), X0
	VCVTPS2PD X0, X0
	GELUFINITE(stopG)
	SORTARGS
	VMOVUPD X1, (DX)(R13*8)
	SORTPAIR
	VPADDQ IDXSTEP, X12, X12
	ADDQ $2, R13
	JMP  sortG

sortLastG:
	TESTQ AX, AX
	JZ   sortedG
	VBROADCASTSS (SI)(R13*4), X0
	VCVTPS2PD X0, X0
	GELUFINITE(stopG)
	SORTARGS
	VMOVSD X1, (DX)(R13*8)
	ANDQ $1, BX             // lane 0 only: the lane 1 copy is not filed
	VMOVSD X2, SORTBIG(R10)(R11*8)
	VMOVQ X12, SORTBIGAT(R10)(R11*8)
	VMOVSD X1, SORTSMALL(R10)(R12*8)
	VMOVQ X12, SORTSMALLAT(R10)(R12*8)
	ADDQ BX, R11
	XORQ $1, BX
	ADDQ BX, R12
	INCQ R13
	JMP  sortedG

stopG:
	MOVQ $1, stop-24(SP)

sortedG:
	MOVQ R13, sorted-16(SP)
	PADODD(R11, SORTBIG, SORTBIGAT, bigEvenG)
	PADODD(R12, SORTSMALL, SORTSMALLAT, smallEvenG)
	MOVQ R10, DX
	MOVQ R11, CX
	CMPB fma+32(FP), $0
	JNE  fusedG
	GELUEXP(EXPK, EXPK2, EXPK4, plainOctsG, plainQuadsG, plainPairG, plainDoneG)
	JMP  bigG

fusedG:
	GELUEXP(EXPF, EXPF2, EXPF4, fusedOctsG, fusedQuadsG, fusedPairG, fusedDoneG)

bigG:
	MOVQ th+8(FP), DX
	MOVQ done-8(SP), AX
	LEAQ (DX)(AX*8), DX
	XORQ R14, R14

bigPairsG:
	CMPQ R14, R11
	JGE  smallG
	MOVQ SORTBIGAT(R10)(R14*8), AX
	MOVQ (SORTBIGAT+8)(R10)(R14*8), BX
	VMOVSD (DX)(AX*8), X1
	VMOVHPD (DX)(BX*8), X1, X1
	VMOVUPD SORTBIG(R10)(R14*8), X5
	TANHBIG(X1, X5, X2, X4, X6)
	VMOVSD X2, (DX)(AX*8)
	VMOVHPD X2, (DX)(BX*8)
	ADDQ $2, R14
	JMP  bigPairsG

smallG:
	XORQ R14, R14

smallPairsG:
	CMPQ R14, R12
	JGE  outG
	MOVQ SORTSMALLAT(R10)(R14*8), AX
	MOVQ (SORTSMALLAT+8)(R10)(R14*8), BX
	VMOVUPD SORTSMALL(R10)(R14*8), X1
	TANHSMALL(X1, X2, X7, X9, X10, X11)
	VMOVSD X2, (DX)(AX*8)
	VMOVHPD X2, (DX)(BX*8)
	ADDQ $2, R14
	JMP  smallPairsG

outG:
	MOVQ out+0(FP), DI
	MOVQ done-8(SP), AX
	LEAQ (DI)(AX*4), DI
	MOVQ sorted-16(SP), CX
	ADDQ CX, AX
	MOVQ AX, done-8(SP)

outPairsG:
	CMPQ CX, $2
	JLT  outLastG
	VMOVSD (SI), X0
	VCVTPS2PD X0, X0
	VMOVUPD (DX), X2
	VMULPD HALF, X0, X0
	VADDPD ONE, X2, X3
	VMULPD X0, X3, X3
	VCVTPD2PSX X3, X3
	VMOVSD X3, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $16, DX
	SUBQ $2, CX
	JMP  outPairsG

outLastG:
	TESTQ CX, CX
	JZ   nextG
	VBROADCASTSS (SI), X0
	VCVTPS2PD X0, X0
	VMOVSD (DX), X2
	VMULPD HALF, X0, X0
	VADDPD ONE, X2, X3
	VMULPD X0, X3, X3
	VCVTPD2PSX X3, X3
	VMOVSS X3, (DI)

nextG:
	CMPQ stop-24(SP), $0
	JEQ  chunkG

retG:
	MOVQ done-8(SP), AX
	MOVQ AX, ret+40(FP)
	RET
