package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// The float kernels added for the transformer's element-wise tail — LayerNorm
// rows side by side, GELU's backward, the Adam update and the abs-max add —
// against the Go loops they replaced, bit for bit, NaN payloads included.
// Under -tags purego both sides are the Go loop and the tests check only
// that the wrappers split the work correctly.

// tailDensity is how often fillTail draws a NaN and a special (±0,
// subnormal, ±Inf); the rest are normals. Rows of 12 drawn at 1/4 NaN are
// almost all NaN rows, so the cases run at three densities: none (the
// arithmetic), sparse (a NaN meets finite values) and every element (two
// NaNs meet in every operation).
type tailDensity struct{ nan, special int }

var tailDensities = []tailDensity{{0, 0}, {0, 8}, {32, 8}, {1, 0}}

// fillTail fills s at density k, NaNs tagged pos (elemNaNs).
func fillTail(r *rng.Rand, s []float32, pos uint32, k tailDensity) {
	nans := elemNaNs(pos)
	for i := range s {
		switch {
		case k.nan == 1 || (k.nan > 0 && r.Intn(k.nan) == 0):
			s[i] = math.Float32frombits(nans[r.Intn(len(nans))])
		case k.special > 0 && r.Intn(k.special) == 0:
			s[i] = math.Float32frombits(blockSpecials[r.Intn(len(blockSpecials))])
		default:
			s[i] = float32(r.NormFloat64() * 2)
		}
	}
}

// sameFloats fails t at the first element whose bits differ. Under the
// race detector it asks only for a NaN where the Go loop gives one: the
// instrumented build allocates the loop's registers differently, and which
// operand of a commutative multiply comes first — so which of two NaN
// payloads survives — is the register allocator's choice (the LayerNorm
// backward's dy·gamma and GELU's backward dy·f both turn round there).
func sameFloats(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if raceEnabled && got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %#08x, the Go loop gives %#08x", name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func clone32(s []float32) []float32 { return append([]float32(nil), s...) }

// layerNormShapes are the LayerNorm cases: rows 1–5 (no group, one group and
// a remainder) and the campaign's 16 and 17, at d = 1, the transformer's 12
// and 13 (a column tail of one).
var layerNormShapes = func() (s [][2]int) {
	for _, rows := range []int{1, 2, 3, 4, 5, 8, 16, 17} {
		for _, d := range []int{1, 12, 13} {
			s = append(s, [2]int{rows, d})
		}
	}
	return s
}()

func TestLayerNormKernelsBitwise(t *testing.T) {
	r := rng.NewFromInt(51)
	for _, sh := range layerNormShapes {
		for _, k := range tailDensities {
			rows, d := sh[0], sh[1]
			name := fmt.Sprintf("rows=%d d=%d density=%v", rows, d, k)
			x, gamma, beta, dy := make([]float32, rows*d), make([]float32, d), make([]float32, d), make([]float32, rows*d)
			fillTail(r, x, 0, k)
			fillTail(r, gamma, 1, k)
			fillTail(r, beta, 2, k)
			fillTail(r, dy, 3, k)

			out, checkOut := guarded(t, "out "+name, rows*d)
			xhat, checkXhat := guarded(t, "xhat "+name, rows*d)
			invStd, checkInv := guarded(t, "invStd "+name, rows)
			LayerNormRows(out, xhat, invStd, x, gamma, beta, 1e-5)
			checkOut()
			checkXhat()
			checkInv()
			wantOut, wantXhat, wantInv := make([]float32, rows*d), make([]float32, rows*d), make([]float32, rows)
			layerNormGo(wantOut, wantXhat, wantInv, x, gamma, beta, 1e-5)
			sameFloats(t, "LayerNormRows invStd "+name, invStd, wantInv)
			sameFloats(t, "LayerNormRows xhat "+name, xhat, wantXhat)
			sameFloats(t, "LayerNormRows out "+name, out, wantOut)

			dGamma, dBeta := make([]float32, d), make([]float32, d)
			fillTail(r, dGamma, 4, k)
			fillTail(r, dBeta, 5, k)
			wantDGamma, wantDBeta := clone32(dGamma), clone32(dBeta)
			dx, checkDx := guarded(t, "dx "+name, rows*d)
			LayerNormRowsBackward(dx, dGamma, dBeta, dy, xhat, invStd, gamma)
			checkDx()
			wantDx := make([]float32, rows*d)
			layerNormBackwardGo(wantDx, wantDGamma, wantDBeta, dy, xhat, invStd, gamma)
			sameFloats(t, "LayerNormRowsBackward dx "+name, dx, wantDx)
			sameFloats(t, "LayerNormRowsBackward dGamma "+name, dGamma, wantDGamma)
			sameFloats(t, "LayerNormRowsBackward dBeta "+name, dBeta, wantDBeta)
		}
	}
}

// tailLengths are the element counts of the flat kernels' cases: every
// length through two vectors and a tail, the transformer's [2,8,12] and a
// long one.
var tailLengths = func() []int {
	var ns []int
	for n := 0; n <= 17; n++ {
		ns = append(ns, n)
	}
	return append(ns, 192, 6144)
}()

func TestGELUBackwardKernelBitwise(t *testing.T) {
	r := rng.NewFromInt(52)
	for _, n := range tailLengths {
		for _, k := range tailDensities {
			name := fmt.Sprintf("n=%d density=%v", n, k)
			x, dy := make([]float32, n), make([]float32, n)
			fillTail(r, x, 0, k)
			fillTail(r, dy, 1, k)
			th, out := make([]float64, n), make([]float32, n)
			geluForwardGo(out, th, x)
			dx, check := guarded(t, "dx "+name, n)
			GELUBackward(dx, dy, x, th)
			check()
			want := make([]float32, n)
			geluBackwardGo(want, dy, x, th)
			sameFloats(t, "GELUBackward "+name, dx, want)
		}
	}
}

func TestAdamKernelBitwise(t *testing.T) {
	r := rng.NewFromInt(53)
	for _, n := range tailLengths {
		for _, k := range tailDensities {
			for _, step := range []int{1, 7} {
				name := fmt.Sprintf("n=%d density=%v step=%d", n, k, step)
				p, m, v, g := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
				fillTail(r, p, 0, k)
				fillTail(r, m, 1, k)
				fillTail(r, v, 2, k)
				fillTail(r, g, 3, k)
				for i := range v {
					if r.Intn(2) == 0 { // a second moment is non-negative in a run; both signs here
						v[i] = float32(math.Abs(float64(v[i])))
					}
				}
				wp, wm, wv := clone32(p), clone32(m), clone32(v)
				const beta1, beta2 = 0.9, 0.999
				c1 := 1 - float32(math.Pow(beta1, float64(step)))
				c2 := 1 - float32(math.Pow(beta2, float64(step)))
				mb, vb := AdamUpdate(p, m, v, g, beta1, beta2, c1, c2, 1e-3, 1e-8)
				wmb, wvb := adamGo(wp, wm, wv, g, beta1, beta2, c1, c2, 1e-3, 1e-8)
				sameFloats(t, "AdamUpdate p "+name, p, wp)
				sameFloats(t, "AdamUpdate m "+name, m, wm)
				sameFloats(t, "AdamUpdate v "+name, v, wv)
				if mb != wmb || vb != wvb {
					t.Fatalf("AdamUpdate %s: maxima %#08x, %#08x; the Go loop gives %#08x, %#08x", name, mb, vb, wmb, wvb)
				}
			}
		}
	}
}

func TestAddInPlaceAbsMaxKernelBitwise(t *testing.T) {
	r := rng.NewFromInt(54)
	for _, n := range tailLengths {
		for _, k := range tailDensities {
			name := fmt.Sprintf("n=%d density=%v", n, k)
			td, ud := make([]float32, n), make([]float32, n)
			fillTail(r, td, 0, k)
			fillTail(r, ud, 1, k)
			want := clone32(td)
			wantMax := addInPlaceAbsMaxGo(want, ud)
			got, check := guarded(t, "t "+name, n)
			copy(got, td)
			m := (&Tensor{Shape: []int{n}, Data: got}).AddInPlaceAbsMax(&Tensor{Shape: []int{n}, Data: ud})
			check()
			sameFloats(t, "AddInPlaceAbsMax "+name, got, want)
			if math.Float32bits(m) != wantMax {
				t.Fatalf("AddInPlaceAbsMax %s: maximum %#08x, the Go loop gives %#08x", name, math.Float32bits(m), wantMax)
			}
			// u aliasing t: t += t.
			alias, want2 := clone32(td), clone32(td)
			wantMax = addInPlaceAbsMaxGo(want2, clone32(td))
			at := &Tensor{Shape: []int{n}, Data: alias}
			m = at.AddInPlaceAbsMax(at)
			sameFloats(t, "AddInPlaceAbsMax t+=t "+name, alias, want2)
			if math.Float32bits(m) != wantMax {
				t.Fatalf("AddInPlaceAbsMax t+=t %s: maximum %#08x, want %#08x", name, math.Float32bits(m), wantMax)
			}
		}
	}
}

func TestScaleKernelBitwise(t *testing.T) {
	r := rng.NewFromInt(59)
	for _, n := range tailLengths {
		for _, k := range tailDensities {
			name := fmt.Sprintf("n=%d density=%v", n, k)
			td, sv := make([]float32, n), make([]float32, 1)
			fillTail(r, td, 0, k)
			fillTail(r, sv, 1, k)
			want := clone32(td)
			scaleGo(want, sv[0])
			got, check := guarded(t, "t "+name, n)
			copy(got, td)
			(&Tensor{Shape: []int{n}, Data: got}).Scale(sv[0])
			check()
			sameFloats(t, "Scale "+name, got, want)
		}
	}
}
