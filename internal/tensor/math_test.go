package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// The float64 kernels (math_amd64.s) against package math: ExpRow against
// math.Exp per element, GELUForward against the three-loop GELU with
// math.Tanh, bit for bit, NaN payloads included. Both kernels stop at a pair
// outside their range and the wrappers finish it with package math, so the
// cases put specials at every position of a pair and of a vector step.

// expEdges are the arguments around the vector path's range and math.Exp's
// own branch points: −700 and its neighbours, where a subnormal result
// starts (−708.4), where the result is 0 (−745.2), 709 and the interval
// (709.44, 709.78] where math.Exp already returns +Inf although the true
// value is finite, the overflow threshold itself, and beyond.
var expEdges = []float64{-700, math.Nextafter(-700, -800), math.Nextafter(-700, 0), -708.39, -708.4, -745.1, -745.2, -1000,
	709, math.Nextafter(709, 710), 709.43, 709.44, 709.45, 709.5, 709.78, 709.782712893384, 709.79, 710, 1e10}

// tanhEdges are GELU arguments at tanh's branch points: around |a| = 0.625,
// around 0.5·MAXLOG = 44.0148…, ±0 and the smallest subnormals.
func tanhEdges() []float32 {
	var x []float32
	for _, target := range []float64{0.625, 44.014845965556527} {
		lo, hi := 0.0, 100.0
		for i := 0; i < 200; i++ { // the x with geluC·(x + 0.044715x³) = target
			mid := (lo + hi) / 2
			if geluC*(mid+0.044715*mid*mid*mid) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		e := math.Nextafter32(float32(lo), 0)
		e = math.Nextafter32(e, 0)
		for i := 0; i < 6; i++ {
			x = append(x, e, -e)
			e = math.Nextafter32(e, 200)
		}
	}
	return append(x, 0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 1.1754942e-38, math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)))
}

// mathCase fills n float32s: normals of spread sd, and with density k NaNs
// tagged 0 and the specials (edges included) at random positions.
func mathCase(r *rng.Rand, n int, sd float64, k tailDensity, edges []float32) []float32 {
	x := make([]float32, n)
	fillTail(r, x, 0, k)
	for i := range x {
		if k.nan != 1 && math.Abs(float64(x[i])) < 1e30 && !math.IsNaN(float64(x[i])) {
			x[i] = float32(r.NormFloat64() * sd)
		}
		if k.special > 0 && r.Intn(k.special) == 0 && len(edges) > 0 {
			x[i] = edges[r.Intn(len(edges))]
		}
	}
	return x
}

// guarded64 is guarded for float64 outputs: n floats with guard elements
// behind them holding a pattern no kernel writes, and a check that they
// still do.
func guarded64(t *testing.T, name string, n int) (s []float64, check func()) {
	const guard, pattern = 4, 0x7ff8dead0000dead
	buf := make([]float64, n+guard)
	for i := range buf {
		buf[i] = math.Float64frombits(pattern)
	}
	return buf[:n:n], func() {
		t.Helper()
		for i, v := range buf[n:] {
			if math.Float64bits(v) != pattern {
				t.Fatalf("%s: element %d past the end overwritten with %#016x", name, i, math.Float64bits(v))
			}
		}
	}
}

func sameFloat64s(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %#016x (%v), package math gives %#016x (%v)", name, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func TestMathKernelMatchesMath(t *testing.T) {
	r := rng.NewFromInt(55)
	var expArgs []float32
	for _, e := range expEdges { // as x − shift with shift 0 and shift 1.5
		expArgs = append(expArgs, float32(e), float32(e+1.5))
	}
	gelu := tanhEdges()
	for _, n := range tailLengths {
		for _, k := range tailDensities {
			for _, sd := range []float64{1, 30, 400} {
				name := fmt.Sprintf("n=%d density=%v sd=%v", n, k, sd)
				x := mathCase(r, n, sd, k, expArgs)
				e, checkE := guarded64(t, "ExpRow "+name, n)
				ExpRow(e, x, 1.5)
				checkE()
				want := make([]float64, n)
				for i, v := range x {
					want[i] = math.Exp(float64(v - 1.5))
				}
				sameFloat64s(t, "ExpRow "+name, e, want)

				x = mathCase(r, n, sd/30, k, gelu)
				out, check := guarded(t, "GELUForward out "+name, n)
				th, checkTh := guarded64(t, "GELUForward tanh "+name, n)
				GELUForward(out, th, x)
				check()
				checkTh()
				wantOut, wantTh := make([]float32, n), make([]float64, n)
				geluForwardGo(wantOut, wantTh, x)
				sameFloat64s(t, "GELUForward tanh "+name, th, wantTh)
				sameFloats(t, "GELUForward out "+name, out, wantOut)
			}
		}
	}
}

// TestMathKernelMatchesMathDense runs 2²⁰ arguments through each kernel: exp
// over the softmax's range of shifted logits and beyond, GELU over inputs
// whose tanh argument spans both branches and saturation.
func TestMathKernelMatchesMathDense(t *testing.T) {
	if testing.Short() {
		t.Skip("2²⁰ arguments")
	}
	r := rng.NewFromInt(56)
	const n = 1 << 20
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(r.NormFloat64() * 60)
	}
	e, want := make([]float64, n), make([]float64, n)
	ExpRow(e, x, 0)
	for i, v := range x {
		want[i] = math.Exp(float64(v))
	}
	sameFloat64s(t, "ExpRow", e, want)
	for i := range x {
		x[i] = float32(r.NormFloat64() * 3)
	}
	out, th := make([]float32, n), make([]float64, n)
	wantOut, wantTh := make([]float32, n), make([]float64, n)
	GELUForward(out, th, x)
	geluForwardGo(wantOut, wantTh, x)
	sameFloat64s(t, "GELUForward tanh", th, wantTh)
	sameFloats(t, "GELUForward out", out, wantOut)
}

// TestMathProbesTellBranchesApart holds the init probe to its job: on a host
// with FMA, math.archExp's plain and fused branches must disagree on some
// probe argument — for exp and for GELU's tanh — or probeMath could settle on
// the wrong one.
func TestMathProbesTellBranchesApart(t *testing.T) {
	if !hasFMA() {
		t.Skip("no FMA: the kernels have one branch to run")
	}
	x := mathProbes()
	plain, fused := make([]float64, len(x)), make([]float64, len(x))
	expRowAVX(&plain[0], &x[0], 0, len(x), false)
	expRowAVX(&fused[0], &x[0], 0, len(x), true)
	if sameBits64(plain, fused) {
		t.Error("exp: the probe arguments do not tell math.archExp's two branches apart")
	}
	out := make([]float32, len(x))
	geluForwardAVX(&out[0], &plain[0], &x[0], len(x), false)
	geluForwardAVX(&out[0], &fused[0], &x[0], len(x), true)
	if sameBits64(plain, fused) {
		t.Error("tanh: the probe arguments do not tell math.archExp's two branches apart")
	}
	if expMode == mathOff || geluMode == mathOff {
		t.Errorf("probeMath left a kernel off on an FMA host (exp %d, gelu %d)", expMode, geluMode)
	}
}

func BenchmarkKernel_Exp(b *testing.B) {
	x := make([]float32, 192)
	r := rng.NewFromInt(57)
	for i := range x {
		x[i] = float32(-math.Abs(r.NormFloat64() * 3))
	}
	e := make([]float64, len(x))
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ExpRow(e, x, 0)
		}
	})
	b.Run("math", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			expRowGo(e, x, 0)
		}
	})
}

// BenchmarkKernel_Tanh is GELU's forward at the transformer's [2,8,12]: the
// kernel (argument, tanh and output in three vector passes) against the Go
// loops with one math.Tanh per element.
func BenchmarkKernel_Tanh(b *testing.B) {
	x := make([]float32, 192)
	r := rng.NewFromInt(58)
	for i := range x {
		x[i] = float32(r.NormFloat64() * 2)
	}
	out, th := make([]float32, len(x)), make([]float64, len(x))
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GELUForward(out, th, x)
		}
	})
	b.Run("math", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			geluForwardGo(out, th, x)
		}
	})
}
