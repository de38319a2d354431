package tensor

import (
	"fmt"
	"math"
)

// The transformer's transcendental loops: the row exponentials of a softmax
// and GELU's forward pass. Each result is the one package math gives —
// math.Exp and math.Tanh on the same float64 argument — bit for bit; the
// kernels in math_amd64.s compute two lanes at a time with math's own
// operation sequence, and the Go loops here are the path of builds without
// them and the reference TestMathKernelMatchesMath holds them to.
//
// math.Exp is math.archExp on amd64, which takes a fused multiply-add branch
// when the CPU has FMA (and GODEBUG does not switch it off). The kernels have
// both branches; probeMath picks, once, the one that reproduces math.Exp on
// arguments where the two branches differ, and leaves the kernels off if
// neither does — a future math.archExp, or a build whose compiler fuses
// tanh's polynomial (GOAMD64=v3), falls back to the Go loops rather than
// moving a bit.

// mathMode is how a float64 kernel runs: not at all, on math.archExp's plain
// branch, or on its fused one.
type mathMode uint8

const (
	mathOff mathMode = iota
	mathPlain
	mathFused
)

// expMode and geluMode are decided once, at package init.
var expMode, geluMode = probeMath()

// probeMath tries the fused branch (where the CPU has it), then the plain
// one, on the probe arguments, and returns for each kernel the first branch
// whose every result equals the Go loop's.
func probeMath() (exp, gelu mathMode) {
	if !useAVX {
		return mathOff, mathOff
	}
	x := mathProbes()
	want, got := make([]float64, len(x)), make([]float64, len(x))
	wantOut, gotOut := make([]float32, len(x)), make([]float32, len(x))
	modes := []mathMode{mathPlain}
	if hasFMA() {
		modes = []mathMode{mathFused, mathPlain}
	}
	th := make([]float64, len(x))
	expRowGo(want, x, 0)
	geluForwardGo(wantOut, th, x)
	for _, m := range modes {
		if exp == mathOff && expRowAVX(&got[0], &x[0], 0, len(x), m == mathFused) == len(x) && sameBits64(got, want) {
			exp = m
		}
		if gelu == mathOff && geluForwardAVX(&gotOut[0], &got[0], &x[0], len(x), m == mathFused) == len(x) &&
			sameBits64(got, th) && sameBits32(gotOut, wantOut) {
			gelu = m
		}
	}
	return exp, gelu
}

// mathProbes returns the probe arguments: −20 to 20 in steps of 1/16 and
// the same shifted by a third of a step. math.archExp's two branches differ
// on 120 of the 1,282 exps and on 2 of GELU's tanhs (the rest of the tanh
// differences round away); TestMathProbesTellBranchesApart fails if either
// count drops to zero. The GELU arguments cross both of tanh's branch points.
func mathProbes() []float32 {
	x := make([]float32, 0, 2*641)
	for i := -320; i <= 320; i++ {
		x = append(x, float32(i)/16, (float32(i)+1.0/3)/16)
	}
	return x
}

func sameBits64(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameBits32(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// ExpRow writes e[i] = math.Exp(float64(x[i] − shift)) for every element of
// x: the exponentials of a numerically stable softmax row, shift its maximum.
func ExpRow(e []float64, x []float32, shift float32) {
	if len(e) != len(x) {
		panic(fmt.Sprintf("tensor: ExpRow writes %d exponentials of %d elements", len(e), len(x)))
	}
	for i := 0; i < len(x); {
		if expMode != mathOff {
			if i += expRowAVX(&e[i], &x[i], shift, len(x)-i, expMode == mathFused); i == len(x) {
				return
			}
		}
		end := min(i+2, len(x))
		expRowGo(e[i:end], x[i:end], shift)
		i = end
	}
}

func expRowGo(e []float64, x []float32, shift float32) {
	e = e[:len(x)]
	for i, v := range x {
		e[i] = math.Exp(float64(v - shift))
	}
}

// geluC is sqrt(2/π), GELU's tanh-approximation constant.
const geluC = 0.7978845608028654

// GELUForward is GELU's forward pass (tanh approximation): per element, with
// u = float64(x[i]),
//
//	th[i]  = tanh(c·(u + 0.044715·u³))
//	out[i] = float32(0.5·u·(1 + th[i]))
//
// th keeps the tanh in the float64 it was computed in, for GELUBackward.
func GELUForward(out []float32, th []float64, x []float32) {
	if len(out) != len(x) || len(th) != len(x) {
		panic(fmt.Sprintf("tensor: GELUForward output and tanh hold %d and %d elements, need %d", len(out), len(th), len(x)))
	}
	for i := 0; i < len(x); {
		if geluMode != mathOff {
			if i += geluForwardAVX(&out[i], &th[i], &x[i], len(x)-i, geluMode == mathFused); i == len(x) {
				return
			}
		}
		end := min(i+2, len(x))
		geluForwardGo(out[i:end], th[i:end], x[i:end])
		i = end
	}
}

// geluForwardGo is three loops, not one, and the middle one all float64.
// CVTSS2SD writes the low half of its destination and so waits for that
// register's last writer; with math.Tanh in the same loop that writer is
// the previous element's tanh (argument and result share X0), so the
// conversion of every element would queue behind the whole Exp chain of the
// one before, and the loop would run at the chain's latency: 37 ns an
// element at [64,8,12], against 11 with the calls left free to overlap.
// Same expressions, same bits.
func geluForwardGo(out []float32, th []float64, x []float32) {
	th, out = th[:len(x)], out[:len(x)]
	for i, v := range x {
		u := float64(v)
		th[i] = geluC * (u + 0.044715*u*u*u)
	}
	for i, a := range th {
		th[i] = math.Tanh(a)
	}
	for i, v := range x {
		out[i] = float32(0.5 * float64(v) * (1 + th[i]))
	}
}

// GELUBackward is GELU's input gradient from the forward's tanh th:
//
//	dx = dy · float32(0.5·(1+t) + 0.5·u·(1−t²)·c·(1 + 3·0.044715·u²))
//
// with u = float64(x[i]) and t = th[i].
func GELUBackward(dx, dy, x []float32, th []float64) {
	if len(dx) != len(dy) || len(x) != len(dy) || len(th) != len(dy) {
		panic(fmt.Sprintf("tensor: GELUBackward operands hold %d, %d, %d and %d elements", len(dx), len(dy), len(x), len(th)))
	}
	if len(dy) == 0 {
		return
	}
	if useAVX {
		geluBackwardAVX(&dx[0], &dy[0], &x[0], &th[0], len(dy))
		return
	}
	geluBackwardGo(dx, dy, x, th)
}

func geluBackwardGo(dx, dy, x []float32, th []float64) {
	xd, th, dx := x[:len(dy)], th[:len(dy)], dx[:len(dy)]
	for i, gv := range dy {
		u, t := float64(xd[i]), th[i]
		dInner := geluC * (1 + 3*0.044715*u*u)
		dx[i] = gv * float32(0.5*(1+t)+0.5*u*(1-t*t)*dInner)
	}
}

// AdamUpdate is one Adam step over a parameter's elements: per element,
// with the bias corrections c1 = 1−β1ᵗ and c2 = 1−β2ᵗ,
//
//	m = β1·m + (1−β1)·g
//	v = β2·v + (1−β2)·g·g
//	p = p − lr·(m/c1) / (sqrt(v/c2) + eps)
//
// and it returns the abs-bits maxima of the new m and v (see AbsBits).
func AdamUpdate(p, m, v, g []float32, beta1, beta2, c1, c2, lr, eps float32) (mMax, vMax uint32) {
	if len(m) != len(p) || len(v) != len(p) || len(g) != len(p) {
		panic(fmt.Sprintf("tensor: AdamUpdate operands hold %d, %d, %d and %d elements", len(p), len(m), len(v), len(g)))
	}
	if len(p) == 0 {
		return 0, 0
	}
	if useAVX {
		k := [8]float32{beta1, 1 - beta1, beta2, 1 - beta2, c1, c2, lr, eps}
		return adamAVX(&p[0], &m[0], &v[0], &g[0], len(p), &k)
	}
	return adamGo(p, m, v, g, beta1, beta2, c1, c2, lr, eps)
}

func adamGo(p, m, v, g []float32, beta1, beta2, c1, c2, lr, eps float32) (mb, vb uint32) {
	m, v, g = m[:len(p)], v[:len(p)], g[:len(p)]
	for i := range p {
		gv := g[i]
		mv := beta1*m[i] + (1-beta1)*gv
		vv := beta2*v[i] + (1-beta2)*gv*gv
		m[i] = mv
		v[i] = vv
		if b := AbsBits(mv); b > mb {
			mb = b
		}
		if b := AbsBits(vv); b > vb {
			vb = b
		}
		mHat := mv / c1
		vHat := vv / c2
		p[i] -= lr * mHat / (float32(math.Sqrt(float64(vHat))) + eps)
	}
	return mb, vb
}
