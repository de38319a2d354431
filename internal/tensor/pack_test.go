package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/numerics"
	"repro/internal/rng"
)

func TestRoundPanelBF16MatchesScalar(t *testing.T) {
	r := rng.NewFromInt(41)
	src := New(513) // odd length: exercises the tail of any unrolling
	src.FillNormal(r, 0, 10)
	src.Data[0] = 0
	src.Data[7] = float32(math.Inf(1))
	src.Data[8] = float32(math.NaN())
	dst := make([]float32, src.Len())
	roundPanelBF16(dst, src.Data)
	for i, v := range src.Data {
		want := numerics.RoundBF16(v)
		if math.Float32bits(dst[i]) != math.Float32bits(want) {
			t.Fatalf("element %d: packed %v (%#x), scalar %v (%#x)",
				i, dst[i], math.Float32bits(dst[i]), want, math.Float32bits(want))
		}
	}
}

// TestPackedGEMMBitwise: the panel-packed bf16 kernels must be
// bitwise-identical to matmulRef's per-element re-rounding loop for every
// transpose variant, from a single output row up, across M/N/K remainders of
// 1, 2 and 3 past the 4-wide register block, a few panels of campaign size
// and beyond, and worker counts, serial and parallel.
func TestPackedGEMMBitwise(t *testing.T) {
	r := rng.NewFromInt(42)
	dims := []int{1, 2, 3, 5, 6, 7, 8, 9, 17}
	var shapes [][3]int
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	shapes = append(shapes, [3]int{9, 72, 72}, [3]int{17, 23, 301}, [3]int{3, 2, 4100}, [3]int{1, 72, 2304})
	workerSet := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		at := Transpose2D(a)
		bt := Transpose2D(b)
		want := matmulRef(a, b, true)
		for _, w := range workerSet {
			restoreW := forceParallel(w)
			gotNN := MatMulMixed(a, b)
			gotTA := MatMulTA(at, b, true)
			gotTB := MatMulTB(a, bt, true)
			restoreW()

			tag := fmt.Sprintf("m=%d k=%d n=%d w=%d", m, k, n, w)
			bitsEqual(t, "packed NN "+tag, gotNN, want)
			bitsEqual(t, "packed TA "+tag, gotTA, want)
			bitsEqual(t, "packed TB "+tag, gotTB, want)
		}
	}
}

// TestPackedEpBitwise checks the fused-epilogue GEMM in mixed precision:
// the result must match matmulRef bit for bit and the fused reductions
// (Sum, ColSums, AbsMax) the standalone sweeps over it, serial and parallel,
// for a single row and for more rows than one epilogue block.
func TestPackedEpBitwise(t *testing.T) {
	r := rng.NewFromInt(44)
	for _, m := range []int{1, 33} { // 33 > epRowBlock exercises the blocked loop
		a := randMat(r, m, 17)
		b := randMat(r, 17, 9)
		want := matmulRef(a, b, true)
		wantCols := make([]float64, 9)
		for i := 0; i < m; i++ {
			for j := range wantCols {
				wantCols[j] += float64(want.Data[i*9+j])
			}
		}
		for _, w := range []int{1, 4} {
			restoreW := forceParallel(w)
			ep := &Epilogue{WantSum: true, WantColSums: true, WantAbsMax: true}
			got := MatMulIntoEp(New(m, 9), a, b, true, ep)
			restoreW()

			tag := fmt.Sprintf("m=%d w=%d", m, w)
			bitsEqual(t, "Ep dst "+tag, got, want)
			if ep.Sum != want.Sum() {
				t.Fatalf("%s: Sum %v != %v", tag, ep.Sum, want.Sum())
			}
			if math.Float32bits(ep.AbsMax) != math.Float32bits(want.AbsMax()) {
				t.Fatalf("%s: AbsMax %v != %v", tag, ep.AbsMax, want.AbsMax())
			}
			for j := range wantCols {
				if ep.ColSums[j] != wantCols[j] {
					t.Fatalf("%s: ColSums[%d] %v != %v", tag, j, ep.ColSums[j], wantCols[j])
				}
			}
		}
	}
}

// TestPackedZeroSkipRule pins the skip rule on the packed path: the zero
// test reads the RAW A element, before bf16 rounding — a subnormal that
// rounds to zero in bf16 must still contribute (rounded) products, exactly
// as the reference loop does.
func TestPackedZeroSkipRule(t *testing.T) {
	a := New(2, 2)
	b := New(2, 3)
	// Tiny but nonzero raw values; RoundBF16 may flush them, but the skip
	// decision must not depend on that.
	a.Data = []float32{1e-40, 2, 0, 3}
	for i := range b.Data {
		b.Data[i] = float32(i + 1)
	}
	bitsEqual(t, "raw-zero skip", MatMulMixed(a, b), matmulRef(a, b, true))
}
