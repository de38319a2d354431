package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// The float64 kernels (math_amd64.s) against Go loops, bit for bit, NaN
// payloads included, in both of math.archExp's branches whatever probeMath
// chose: expRowAVX and geluForwardAVX run through expRow and geluForward in
// each kernel mode against expRowBranch and geluForwardBranch, Go ports of
// that branch (archExpRef, tanhRef), and the dispatch (ExpRow, GELUForward)
// against package math itself. Both kernels stop at a pair outside their
// range and the wrappers finish it with package math, so the cases put
// specials at every position of a pair and of a vector step.

// archExpRef is math.archExp's main line ($GOROOT/src/math/exp_amd64.s) in
// Go, on its plain or, with fused, its FMA branch (math.FMA is the fused
// multiply-add), for x in the kernels' range [−700, 709]: x·log2 e rounded
// to the nearest integer k (CVTSD2SL's rounding), the reduction by k·ln 2 in
// two parts, the Taylor polynomial of r/16, four squarings of the form
// r·(r+2), +1, times 2^k.
func archExpRef(x float64, fused bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	taylor := [...]float64{2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0}
	k := math.RoundToEven(x * log2e)
	var r float64
	if fused {
		r = math.FMA(-ln2L, k, math.FMA(-ln2U, k, x))
	} else {
		r = (x - ln2U*k) - ln2L*k
	}
	r *= 0.0625
	p := taylor[0]
	for _, c := range taylor[1:] {
		if fused {
			p = math.FMA(p, r, c)
		} else {
			p = p*r + c
		}
	}
	r *= p
	for i := 0; i < 3; i++ {
		r *= r + 2
	}
	if fused {
		r = math.FMA(r, r+2, 1)
	} else {
		r = r*(r+2) + 1
	}
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// tanhRef is math.tanh with its exp on one branch of archExpRef.
func tanhRef(x float64, fused bool) float64 {
	const maxLog = 8.8029691931113054295988e+01
	p := [...]float64{-9.64399179425052238628e-1, -9.92877231001918586564e1, -1.61468768441708447952e3}
	q := [...]float64{1.12811678491632931402e2, 2.23548839060100448583e3, 4.84406305325125486048e3}
	z := math.Abs(x)
	switch {
	case z > 0.5*maxLog:
		return math.Copysign(1, x)
	case z >= 0.625:
		s := archExpRef(2*z, fused)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := x * x
		z = x + x*s*((p[0]*s+p[1])*s+p[2])/(((s+q[0])*s+q[1])*s+q[2])
	}
	return z
}

// expRowBranch is expRow in the kernel mode with fused, in Go: a pair of
// elements (the last alone), counted from the first, whose arguments all
// lie in [−700, 709] takes archExpRef on that branch; any other pair
// math.Exp, as the wrapper finishes a pair the kernel stops at.
func expRowBranch(e []float64, x []float32, shift float32, fused bool) {
	for i := 0; i < len(x); i += 2 {
		end := min(i+2, len(x))
		inRange := true
		for _, v := range x[i:end] {
			a := float64(v - shift)
			inRange = inRange && a >= -700 && a <= 709
		}
		for j := i; j < end; j++ {
			if a := float64(x[j] - shift); inRange {
				e[j] = archExpRef(a, fused)
			} else {
				e[j] = math.Exp(a)
			}
		}
	}
}

// geluForwardBranch is geluForward in the kernel mode with fused, in Go: a
// pair (the last alone), counted from the first, of finite inputs takes
// tanhRef on that branch; any other pair geluForwardGo.
func geluForwardBranch(out []float32, th []float64, x []float32, fused bool) {
	for i := 0; i < len(x); i += 2 {
		end := min(i+2, len(x))
		finite := true
		for _, v := range x[i:end] {
			finite = finite && !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
		}
		if !finite {
			geluForwardGo(out[i:end], th[i:end], x[i:end])
			continue
		}
		for j := i; j < end; j++ {
			u := float64(x[j])
			th[j] = tanhRef(geluC*(u+0.044715*u*u*u), fused)
			out[j] = float32(0.5 * u * (1 + th[j]))
		}
	}
}

// kernelModes are the kernel modes this host can run: none without the
// kernels, the plain branch, and the fused one on a CPU with FMA.
func kernelModes() []mathMode {
	switch {
	case !useAVX:
		return nil
	case hasFMA():
		return []mathMode{mathPlain, mathFused}
	}
	return []mathMode{mathPlain}
}

// checkMathKernels runs expRowAVX and geluForwardAVX in every kernel mode on
// x (the exp arguments shifted by shift) against their branch's Go loops,
// and the dispatch against package math. exactOut asks GELU's float32
// output for its payload too.
func checkMathKernels(t *testing.T, name string, x []float32, shift float32, exactOut bool) {
	t.Helper()
	n := len(x)
	e, want := make([]float64, n), make([]float64, n)
	out, th := make([]float32, n), make([]float64, n)
	wantOut, wantTh := make([]float32, n), make([]float64, n)
	for _, mode := range kernelModes() {
		m := fmt.Sprintf("%s mode %d", name, mode)
		expRow(e, x, shift, mode)
		expRowBranch(want, x, shift, mode == mathFused)
		sameFloat64s(t, "expRowAVX "+m, e, want)
		geluForward(out, th, x, mode)
		geluForwardBranch(wantOut, wantTh, x, mode == mathFused)
		sameFloat64s(t, "geluForwardAVX tanh "+m, th, wantTh)
		sameBits(t, "geluForwardAVX out "+m, out, wantOut, exactOut)
	}
	ExpRow(e, x, shift)
	expRowGo(want, x, shift)
	sameFloat64s(t, "ExpRow "+name, e, want)
	GELUForward(out, th, x)
	geluForwardGo(wantOut, wantTh, x)
	sameFloat64s(t, "GELUForward tanh "+name, th, wantTh)
	sameBits(t, "GELUForward out "+name, out, wantOut, exactOut)
}

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

// TestMathKernelMatchesMath: both kernels in each mode against their
// branch's Go loops and the dispatch against package math (checkMathKernels)
// on every tail length past a vector step and 64-element chunk, with the
// specials at random positions; ExpRow and GELUForward also write nothing
// past their outputs.
func TestMathKernelMatchesMath(t *testing.T) {
	r := rng.NewFromInt(55)
	var expArgs []float32
	for _, e := range expEdges { // as x − shift with shift 0 and shift 1.5
		expArgs = append(expArgs, float32(e), float32(e+1.5))
	}
	gelu := tanhEdges()
	// Past the tails: GELU's kernel sorts 64 elements a chunk, so a length on
	// either side of one and of two chunks ends on a full, a one-element
	// and a 63-element last chunk; ExpRow takes eight at a time.
	for _, n := range append(tailLengths[:len(tailLengths):len(tailLengths)], 63, 64, 65, 127, 129) {
		for _, k := range tailDensities {
			for _, sd := range []float64{1, 30, 400} {
				name := fmt.Sprintf("n=%d density=%v sd=%v", n, k, sd)
				x := mathCase(r, n, sd, k, expArgs)
				e, checkE := guarded64(t, "ExpRow "+name, n)
				ExpRow(e, x, 1.5)
				checkE()
				checkMathKernels(t, "exp args "+name, x, 1.5, true)

				x = mathCase(r, n, sd/30, k, gelu)
				out, check := guarded(t, "GELUForward out "+name, n)
				th, checkTh := guarded64(t, "GELUForward tanh "+name, n)
				GELUForward(out, th, x)
				check()
				checkTh()
				checkMathKernels(t, "GELU args "+name, x, 0, true)
			}
		}
	}
}

// TestMathKernelMatchesMathDense runs 2²⁰ arguments through each kernel in
// each mode: exp over the softmax's range of shifted logits and beyond, GELU
// over inputs whose tanh argument spans both branches and saturation.
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
	checkMathKernels(t, "exp args", x, 0, true)
	for i := range x {
		x[i] = float32(r.NormFloat64() * 3)
	}
	checkMathKernels(t, "GELU args", x, 0, true)
}

// TestProbeMathTurnsKernelsOn: on a host with the AVX kernels, probeMath
// leaves neither kernel off, and picks for both the branch whose Go port
// gives package math's exp on the probes — exactly one of the two does
// where the CPU has FMA (TestMathProbesTellBranchesApart), and without FMA
// the plain one must. A kernel the probe turned off would leave ExpRow and
// GELUForward on the Go loops, where the dispatch checks above still pass.
func TestProbeMathTurnsKernelsOn(t *testing.T) {
	if !useAVX {
		t.Skip("no kernels in this build")
	}
	if expMode == mathOff || geluMode == mathOff {
		t.Fatalf("probeMath left a kernel off (exp %d, gelu %d)", expMode, geluMode)
	}
	x := mathProbes()
	want := make([]float64, len(x))
	expRowGo(want, x, 0)
	var host []mathMode
	for _, mode := range []mathMode{mathPlain, mathFused} {
		got := make([]float64, len(x))
		expRowBranch(got, x, 0, mode == mathFused)
		if sameBits64(got, want) {
			host = append(host, mode)
		}
	}
	if len(host) != 1 {
		t.Fatalf("%d of math.archExp's branches match math.Exp on the probes, want 1", len(host))
	}
	if expMode != host[0] || geluMode != host[0] {
		t.Errorf("probeMath chose exp %d and gelu %d, package math runs branch %d", expMode, geluMode, host[0])
	}
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
// kernel (the lanes sorted by tanh branch, each branch over its own lanes)
// against the Go loops with one math.Tanh per element.
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

// FuzzMathOracle: the fuzzer picks a length from 0 to 64, the raw float32
// bits of x and of dy and the softmax shift, and the float64 kernels must
// give their Go loops' results bit for bit (checkMathKernels): expRowAVX and
// geluForwardAVX — its lanes sorted by tanh branch — in each mode against
// that branch's ports, ExpRow and GELUForward against package math, and
// GELUBackward against its Go loop on the tanh the forward kept. A float32
// NaN only has to be a NaN: the
// fuzzer's coverage build compiles the Go loops with other operand orders
// (TestMathKernelMatchesMath and TestGELUBackwardKernelBitwise hold the
// payloads in the default build). The seeds are the specials (±0, subnormals,
// ±Inf, a NaN payload, which the wrappers hand to package math), the GELU
// arguments in pairs straddling tanh's branch points 0.625 and 0.5·MAXLOG,
// and the exp arguments around the vector path's range.
func FuzzMathOracle(f *testing.F) {
	specials := []float32{0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 1.1754942e-38,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(0x7fc0f00d), 1, -2.5}
	f.Add(uint8(len(specials)), uint32(0), floatBytes(specials))
	edges := tanhEdges()
	f.Add(uint8(len(edges)), uint32(0), floatBytes(edges))
	f.Add(uint8(len(edges)-1), math.Float32bits(1.5), floatBytes(edges[1:]))
	var expArgs []float32
	for _, e := range expEdges {
		expArgs = append(expArgs, float32(e))
	}
	f.Add(uint8(len(expArgs)), uint32(0), floatBytes(expArgs))
	f.Add(uint8(64), math.Float32bits(-3), floatBytes([]float32{0.3, -0.7, 0.61, -0.64, 40, -50}))
	f.Add(uint8(0), uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, nRaw uint8, shiftBits uint32, raw []byte) {
		n := int(nRaw) % 65
		x, dy := make([]float32, n), make([]float32, n)
		at := 0
		for _, dst := range [][]float32{x, dy} {
			for i := range dst {
				var bits uint32
				for s := 0; s < 32 && len(raw) > 0; s += 8 {
					bits |= uint32(raw[at%len(raw)]) << s
					at++
				}
				dst[i] = math.Float32frombits(bits)
			}
		}
		shift := math.Float32frombits(shiftBits)
		checkMathKernels(t, "fuzz", x, shift, false)

		th, wantTh := make([]float64, n), make([]float64, n)
		GELUForward(make([]float32, n), th, x)
		geluForwardGo(make([]float32, n), wantTh, x)
		dx, wantDx := make([]float32, n), make([]float32, n)
		GELUBackward(dx, dy, x, th)
		geluBackwardGo(wantDx, dy, x, wantTh)
		sameBits(t, "GELUBackward", dx, wantDx, false)
	})
}

// floatBytes is the fuzz targets' raw input for exactly these floats: their
// bits, little-endian, as the bodies read them back.
func floatBytes(v []float32) []byte {
	var raw []byte
	for _, f := range v {
		bits := math.Float32bits(f)
		raw = append(raw, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	return raw
}

// softmaxCase fills rows rows of cols scores, each row of one kind in turn:
// normals; a NaN payload first; +Inf at a moving position; all equal; a
// spread whose exponentials underflow to 0 as float32 (about e^-104) while
// their arguments stay in the exp kernel's range; a spread past −700, which
// the kernel stops before; −Inf and ±0 among normals.
func softmaxCase(r *rng.Rand, rows, cols int) []float32 {
	s := make([]float32, rows*cols)
	for i := 0; i < rows; i++ {
		row := s[i*cols : (i+1)*cols]
		sd := []float64{1, 1, 1, 1, 60, 900, 1}[i%7]
		for j := range row {
			row[j] = float32(r.NormFloat64() * sd)
		}
		switch i % 7 {
		case 1:
			row[0] = math.Float32frombits(0x7fc0d00d)
		case 2:
			row[(i/7)%cols] = float32(math.Inf(1))
		case 3:
			for j := range row {
				row[j] = -2.75
			}
		case 6:
			row[(i/7)%cols] = float32(math.Inf(-1))
			row[(i/7+1)%cols] = float32(math.Copysign(0, -1))
			row[(i/7+2)%cols] = 0
		}
	}
	return s
}

// TestSoftmaxKernelsBitwise holds SoftmaxRows — every row in one
// softmaxRowsAVX call, a row it stops before through softmaxRowGo — in each
// kernel mode to softmaxRowGo row by row in the same mode, which shares only
// the exponentials with it, and the dispatch to the Go loop on math.Exp; and
// SoftmaxRowsBackward (softmaxBackwardAVX) to softmaxBackwardGo, on rows of
// every length 1 to 17 (vector steps and single elements) of every kind
// softmaxCase makes, bit for bit, NaN payloads included. Under the race
// detector a backward NaN has only to be a NaN: the instrumented build
// commutes the Go loop's multiplies. The test fails unless the forward
// kernel took every row of a matrix without a row it stops before.
func TestSoftmaxKernelsBitwise(t *testing.T) {
	r := rng.NewFromInt(60)
	nan := func(bits uint32) float32 { return math.Float32frombits(bits) }
	specials := []float32{nan(0x7fc00a01), nan(0xffc00b02), nan(0x7f800c03), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), 1e-40, 3e38}
	for cols := 1; cols <= 17; cols++ {
		for _, rows := range []int{1, 7, 15} {
			name := fmt.Sprintf("%dx%d", rows, cols)
			s := softmaxCase(r, rows, cols)
			e := make([]float64, cols)
			want, got := make([]float32, len(s)), make([]float32, len(s))
			for _, mode := range kernelModes() {
				softmaxRows(got, s, cols, e, mode)
				for i := 0; i < rows; i++ {
					softmaxRowGo(want[i*cols:(i+1)*cols], s[i*cols:(i+1)*cols], e, mode)
				}
				sameBits(t, fmt.Sprintf("softmaxRowsAVX %s mode %d", name, mode), got, want, true)
				clean := make([]float32, len(s))
				for i := range clean {
					clean[i] = float32(r.NormFloat64())
				}
				if n := softmaxRowsAVX(&got[0], &e[0], &clean[0], rows, cols, mode == mathFused); n != rows {
					t.Fatalf("%s mode %d: the kernel took %d rows of normals, want %d", name, mode, n, rows)
				}
			}
			SoftmaxRows(got, s, cols, e)
			softmaxRows(want, s, cols, e, mathOff)
			sameBits(t, "SoftmaxRows "+name, got, want, true)

			a, g := make([]float32, len(s)), make([]float32, len(s))
			for i := range a {
				a[i] = float32(r.NormFloat64())
				g[i] = float32(r.NormFloat64())
				if r.Intn(9) == 0 {
					a[i] = specials[r.Intn(len(specials))]
				}
				if r.Intn(9) == 0 {
					g[i] = specials[r.Intn(len(specials))]
				}
			}
			for _, sc := range []float32{float32(1 / math.Sqrt(12)), -1.5} {
				SoftmaxRowsBackward(got, a, g, cols, sc)
				softmaxBackwardGo(want, a, g, cols, sc)
				sameBits(t, fmt.Sprintf("SoftmaxRowsBackward %s scale %v", name, sc), got, want, !raceEnabled)
			}
		}
	}
}
