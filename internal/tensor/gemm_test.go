package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/numerics"
	"repro/internal/rng"
)

// The fp32 GEMM kernels against two oracles. TestSIMDGEMMBitwise holds
// whichever inner loops this build runs — the AVX micro-kernels, or the Go
// loops under -tags purego and off amd64 — to matmulRef, the seed's serial
// ikj kernel that defines the bitwise contract; ci.sh runs it both ways.
// FuzzGEMMOracle holds them, and the bf16 kernels of pack.go, to a triple
// loop that shares nothing with the kernels, not even the loop order.

// Special values seeded into the operands. The two NaN sets are disjoint, so
// a result's payload says which operand it came from.
var (
	gemmSubnormals = []uint32{0x00000001, 0x80000001, 0x007fffff, 0x807fffff, 0x00400000}
	gemmNaNsA      = []uint32{0x7fc00001, 0xffc0a0a0, 0x7f800001, 0xffa00a0a} // last two are signaling
	gemmNaNsB      = []uint32{0x7fc00b0b, 0xffc0beef, 0x7f80b001, 0xff8b0b0b}
	gemmInfs       = []uint32{0x7f800000, 0xff800000}
)

// gemmOperands builds A [m,k] and B [k,n] for one table entry. A comes out
// without a single zero; the caller lays a zero structure over it
// (zeroPatterns, zeroRuns) or leaves it dense.
//
// Values: normals, plus ±0 (B only) and subnormals in both operands. With
// poison, also ±Inf and NaNs of distinct payloads. A's NaNs and B's NaNs sit
// at different k, so every NaN×number product is formed, and accumulators
// that already hold one operand's NaN meet products carrying the other's in
// both orders — the case that pins the order of the addition's operands. A
// NaN×NaN product is never formed: which payload survives one is decided by
// the register allocator, and the Go loops do not agree among themselves.
func gemmOperands(r *rng.Rand, m, k, n int, poison bool) (a, b *Tensor) {
	a, b = New(m, k), New(k, n)
	a.FillNormal(r, 0, 1)
	b.FillNormal(r, 0, 1)
	pick := func(set []uint32) float32 { return math.Float32frombits(set[r.Intn(len(set))]) }
	for i := range b.Data {
		switch r.Intn(12) {
		case 0:
			b.Data[i] = 0
		case 1:
			b.Data[i] = float32(math.Copysign(0, -1))
		case 2:
			b.Data[i] = pick(gemmSubnormals)
		}
	}
	for i := range a.Data {
		if r.Intn(12) == 0 || a.Data[i] == 0 {
			a.Data[i] = pick(gemmSubnormals)
		}
	}
	if poison {
		// Even k carry A's NaNs, odd k carry B's.
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				switch r.Intn(24) {
				case 0:
					a.Data[i*k+kk] = pick(gemmInfs)
				case 1:
					if kk%2 == 0 {
						a.Data[i*k+kk] = pick(gemmNaNsA)
					}
				}
			}
		}
		for kk := 0; kk < k; kk++ {
			for j := 0; j < n; j++ {
				switch r.Intn(24) {
				case 0:
					b.Data[kk*n+j] = pick(gemmInfs)
				case 1:
					if kk%2 == 1 {
						b.Data[kk*n+j] = pick(gemmNaNsB)
					}
				}
			}
		}
	}
	return a, b
}

// gemmZero is the zero the structures below write at (i,kk): -0 a third of
// the time, which the skip rule must treat like +0.
func gemmZero(i, kk int) float32 {
	if (i+kk)%3 == 0 {
		return float32(math.Copysign(0, -1))
	}
	return 0
}

// zeroPatterns: within every 4-row block of A, column kk is zero in exactly
// the rows named by the bits of (kk+salt) mod 16, so a block with k >= 16
// meets all 16 zero/non-zero patterns — the dense step, the all-zero skip and
// every mixed pattern in between — and dense steps only ever come singly.
func zeroPatterns(a *Tensor, salt int) {
	m, k := a.Shape[0], a.Shape[1]
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			if (kk+salt)%16>>(i%4)&1 == 1 {
				a.Data[i*k+kk] = gemmZero(i, kk)
			}
		}
	}
}

// zeroRuns gives every 4-row block of A dense stretches of 1, 2, 7, 8, 9 and
// k steps (cut off at k; salt and the block pick the first), each followed
// by one step that is not dense — mixed, all-zero or a single -0 in turn —
// so runs of every tile-kernel loop count begin and end at every kind of
// step, and C is stored and reloaded around each.
func zeroRuns(a *Tensor, salt int) {
	m, k := a.Shape[0], a.Shape[1]
	lengths := []int{1, 2, 7, 8, 9, k}
	for i0 := 0; i0 < m; i0 += 4 {
		s := salt + i0/4
		for kk := lengths[s%len(lengths)]; kk < k; kk += 1 + lengths[s%len(lengths)] {
			rows := 1 + s%14 // mixed: some rows zero, never all, never none
			switch s % 3 {
			case 1:
				rows = 15
			case 2:
				rows = 1 << (s % 4)
			}
			for r := 0; r < 4 && i0+r < m; r++ {
				if rows>>r&1 == 1 {
					a.Data[(i0+r)*k+kk] = gemmZero(i0+r, kk)
					if s%3 == 2 {
						a.Data[(i0+r)*k+kk] = float32(math.Copysign(0, -1))
					}
				}
			}
			s++
		}
	}
}

// sameBits compares got with want element by element. exactNaN demands the
// same NaN payload; without it any NaN matches any NaN.
func sameBits(t *testing.T, name string, got, want []float32, exactNaN bool) {
	t.Helper()
	for i := range want {
		g, w := math.Float32bits(got[i]), math.Float32bits(want[i])
		if g == w || (!exactNaN && got[i] != got[i] && want[i] != want[i]) {
			continue
		}
		t.Fatalf("%s: element %d = %#08x (%v), want %#08x (%v)", name, i, g, got[i], w, want[i])
	}
}

func TestSIMDGEMMBitwise(t *testing.T) {
	ns := []int{72, 128}
	for n := 1; n <= 17; n++ { // every vector-tail length, twice over
		ns = append(ns, n)
	}
	// One worker keeps these shapes serial; 2 and 8 with the threshold at
	// zero force the row-parallel path — row ranges that start off a
	// multiple of 4 — 8 with more workers than rows.
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			defer forceParallel(workers)()
			r := rng.NewFromInt(77)
			salt := 0
			for m := 1; m <= 9; m++ {
				for _, n := range ns {
					for _, k := range []int{1, 2, 8, 9, 72} {
						for _, poison := range []bool{false, true} {
							salt++
							a, b := gemmOperands(r, m, k, n, poison)
							checkGEMMVariants(t, a, b) // dense: one run of k steps per block
							runs := a.Clone()
							zeroRuns(runs, salt)
							checkGEMMVariants(t, runs, b)
							zeroPatterns(a, salt)
							checkGEMMVariants(t, a, b)
						}
					}
				}
			}
		})
	}
}

// checkGEMMVariants runs NN, TA, TB and the epilogue GEMM on A×B and holds
// each to matmulRef(a, b). Destinations are pre-filled with a NaN so a
// kernel that fails to overwrite (or start its chains from +0) shows.
func checkGEMMVariants(t *testing.T, a, b *Tensor) {
	t.Helper()
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	want := matmulRef(a, b, false).Data
	dst := New(m, n)
	stale := math.Float32frombits(0x7fc0dead)

	dst.Fill(stale)
	sameBits(t, "MatMulInto", MatMulInto(dst, a, b, false).Data, want, true)

	dst.Fill(stale)
	sameBits(t, "MatMulTAInto", MatMulTAInto(dst, Transpose2D(a), b, false).Data, want, true)

	// The NN row kernel has one addition order for every element. The
	// portable dot-product loop does not: three of its four accumulators add
	// product+acc and the fourth (and the column tail) acc+product, so where
	// a NaN accumulator meets a different NaN product no single reference
	// matches it payload for payload.
	dst.Fill(stale)
	sameBits(t, "MatMulTBInto", MatMulTBInto(dst, a, Transpose2D(b), false).Data, want, useAVX)

	dst.Fill(stale)
	ep := &Epilogue{WantSum: true, WantColSums: true, WantAbsMax: true}
	sameBits(t, "MatMulIntoEp", MatMulIntoEp(dst, a, b, false, ep).Data, want, true)
	if got, sweep := math.Float64bits(ep.Sum), math.Float64bits(dst.Sum()); got != sweep {
		t.Fatalf("MatMulIntoEp [%d,%d]x[%d,%d]: Sum bits %#x, sweep %#x", m, k, k, n, got, sweep)
	}
	if got, sweep := math.Float32bits(ep.AbsMax), math.Float32bits(dst.AbsMax()); got != sweep {
		t.Fatalf("MatMulIntoEp [%d,%d]x[%d,%d]: AbsMax bits %#x, sweep %#x", m, k, k, n, got, sweep)
	}
	for j := 0; j < n; j++ {
		var col float64
		for i := 0; i < m; i++ {
			col += float64(dst.Data[i*n+j])
		}
		if math.Float64bits(ep.ColSums[j]) != math.Float64bits(col) && !(ep.ColSums[j] != ep.ColSums[j] && col != col) {
			t.Fatalf("MatMulIntoEp [%d,%d]x[%d,%d]: ColSums[%d] = %v, sweep %v", m, k, k, n, j, ep.ColSums[j], col)
		}
	}
}

// TestDenseRun4 holds the vectorized prescan to a scalar `== 0` loop in both
// layouts, from every starting step. The values that are not zero are the
// ones a compare could get wrong — subnormals of either sign, NaNs quiet and
// signaling, Inf — and the zeros come in both signs, in every row, at every
// step, alone and in pairs.
func TestDenseRun4(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX kernels in this build")
	}
	var nonZero []float32
	for _, set := range [][]uint32{gemmSubnormals, gemmNaNsA, gemmNaNsB, gemmInfs, {0x3f800000, 0x80800000}} {
		for _, bits := range set {
			nonZero = append(nonZero, math.Float32frombits(bits))
		}
	}
	negZero := float32(math.Copysign(0, -1))
	scalar := func(a []float32, kLen, aRow, aK int) int {
		for kk := 0; kk < kLen; kk++ {
			for r := 0; r < 4; r++ {
				if a[r*aRow+kk*aK] == 0 {
					return kk
				}
			}
		}
		return kLen
	}
	for k := 1; k <= 19; k++ {
		for _, layout := range []struct {
			name           string
			aRow, aK, size int
		}{
			{"rows", k + 3, 1, 4 * (k + 3)}, // row-major [4,k], padding between the rows
			{"adjacent", 1, 7, 7 * k},       // transposed view of a row-major [k,7]
		} {
			a := make([]float32, layout.size)
			check := func(what string) {
				t.Helper()
				for from := 0; from < k; from++ {
					sub := a[from*layout.aK:]
					got := denseRun4(sub, k-from, layout.aRow, layout.aK)
					if want := scalar(sub, k-from, layout.aRow, layout.aK); got != want {
						t.Fatalf("%s k=%d from=%d, %s: got %d, want %d", layout.name, k, from, what, got, want)
					}
				}
			}
			refill := func() {
				for i := range a {
					a[i] = nonZero[(i*7+k)%len(nonZero)]
				}
			}
			refill()
			check("no zero")
			for kk := 0; kk < k; kk++ {
				for r := 0; r < 4; r++ {
					refill()
					a[r*layout.aRow+kk*layout.aK] = 0
					check(fmt.Sprintf("+0 at row %d step %d", r, kk))
					a[r*layout.aRow+kk*layout.aK] = negZero
					a[(r+1)%4*layout.aRow+(kk+2)%k*layout.aK] = 0
					check(fmt.Sprintf("-0 at row %d step %d and +0 two steps on", r, kk))
				}
			}
		}
	}
}

// TestGEMMBoundsPanics: the tile kernel and the prescan take addresses, so
// their wrappers check every extent first; and the entry points refuse an
// operand whose Data does not hold what its Shape says, which the kernels
// would otherwise find out by indexing.
func TestGEMMBoundsPanics(t *testing.T) {
	c, b, a := make([]float32, 4*8), make([]float32, 5*8), make([]float32, 4*5)
	mustPanicWith(t, "gemmTile4 needs 4×8 elements of C, slice holds 31", func() { gemmTile4(c[:31], b, a, 8, 5, 5, 1) })
	mustPanicWith(t, "gemmTile4 needs 5×8 elements of B, slice holds 39", func() { gemmTile4(c, b[:39], a, 8, 5, 5, 1) })
	mustPanicWith(t, "gemmTile4 reaches element 19 of A, slice holds 19", func() { gemmTile4(c, b, a[:19], 8, 5, 5, 1) })
	mustPanicWith(t, "gemmTile4 reaches element 19 of A, slice holds 19", func() { gemmTile4(c, b, a[:19], 8, 5, 1, 4) })
	mustPanicWith(t, "gemmTile4 with 8 columns, 0 k-steps, A row step 5, A k step 1", func() { gemmTile4(c, b, a, 8, 0, 5, 1) })
	mustPanicWith(t, "gemmTile4 with 8 columns, 5 k-steps, A row step -5, A k step 1", func() { gemmTile4(c, b, a, 8, 5, -5, 1) })
	gemmTile4(nil, nil, nil, 0, 5, 5, 1) // no columns: nothing to do, nothing to check
	mustPanicWith(t, "denseRun4 reaches element 19 of A, slice holds 19", func() { denseRun4(a[:19], 5, 5, 1) })
	mustPanicWith(t, "denseRun4 reaches element 19 of A, slice holds 19", func() { denseRun4(a[:19], 5, 1, 4) })
	mustPanicWith(t, "denseRun4 with 0 k-steps, A row step 5, A k step 1", func() { denseRun4(a, 0, 5, 1) })
	mustPanicWith(t, "denseRun4 with 2 k-steps, A row step 5, A k step 2", func() { denseRun4(a, 2, 5, 2) })

	good, dst := New(4, 5), New(4, 4)
	short := &Tensor{Shape: []int{5, 4}, Data: make([]float32, 19)}
	shortT := &Tensor{Shape: []int{4, 5}, Data: make([]float32, 19)}
	mustPanicWith(t, "MatMul right operand holds 19 elements for shape [5 4]", func() { MatMulInto(dst, good, short, false) })
	mustPanicWith(t, "MatMul left operand holds 19 elements for shape [4 5]", func() { MatMulInto(dst, shortT, New(5, 4), false) })
	mustPanicWith(t, "MatMul right operand holds 19 elements for shape [5 4]", func() {
		MatMulIntoEp(dst, good, short, false, &Epilogue{WantSum: true})
	})
	mustPanicWith(t, "MatMulTA left operand holds 19 elements for shape [5 4]", func() { MatMulTAInto(dst, short, New(5, 4), false) })
	mustPanicWith(t, "MatMulTA right operand holds 19 elements for shape [5 4]", func() { MatMulTAInto(dst, New(5, 4), short, false) })
	mustPanicWith(t, "MatMulTB left operand holds 19 elements for shape [4 5]", func() { MatMulTBInto(dst, shortT, good, false) })
	mustPanicWith(t, "MatMulTB right operand holds 19 elements for shape [4 5]", func() { MatMulTBInto(dst, good, shortT, false) })
}

// TestTransposeInto covers the 8x8 block kernel's edges: every mix of whole
// blocks and remainder strips, with bit patterns (signaling NaNs included)
// that arithmetic would not preserve — the transpose must only move data.
func TestTransposeInto(t *testing.T) {
	for rows := 1; rows <= 19; rows++ {
		for cols := 1; cols <= 19; cols++ {
			src := make([]float32, rows*cols)
			for i := range src {
				src[i] = math.Float32frombits(0x7f800001 + uint32(i)*0x01000193)
			}
			dst := make([]float32, rows*cols)
			transposeInto(dst, src, rows, cols)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					if g, w := math.Float32bits(dst[j*rows+i]), math.Float32bits(src[i*cols+j]); g != w {
						t.Fatalf("[%d,%d]: dst[%d][%d] = %#08x, want %#08x", rows, cols, j, i, g, w)
					}
				}
			}
		}
	}
}

// naiveGEMM is the independent oracle: one dot product per output element,
// ijk order, +0 start, ascending k, a == 0 skipped. With mixed every product
// is the accelerator's MAC, RoundBF16(RoundBF16(a)·RoundBF16(b)), and the
// zero test still reads the raw a.
func naiveGEMM(a, b []float32, m, k, n int, mixed bool) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for kk := 0; kk < k; kk++ {
				av := a[i*k+kk]
				if av == 0 {
					continue
				}
				if mixed {
					acc += numerics.RoundBF16(numerics.RoundBF16(av) * numerics.RoundBF16(b[kk*n+j]))
					continue
				}
				acc += av * b[kk*n+j]
			}
			c[i*n+j] = acc
		}
	}
	return c
}

// FuzzGEMMOracle: the fuzzer chooses the shape and the raw bit patterns of
// both operands — payloads, signaling NaNs, subnormals, whatever it finds —
// and the precision, and every GEMM entry point must agree with naiveGEMM
// bit for bit, serial and forced-parallel. NaN results only have to be NaN:
// the oracle's own payload choice belongs to the compiler (see gemmOperands).
func FuzzGEMMOracle(f *testing.F) {
	// No zero anywhere in A: every block is one run of k dense steps.
	f.Add(uint8(8), uint8(22), uint8(39), false, []byte{0, 0, 0x80, 0x3f, 0xdb, 0x0f, 0x49, 0xc0, 1, 0, 0, 0, 0, 0, 0xc0, 0x7f, 0xff, 0xff, 0x7f, 0x80})
	f.Add(uint8(3), uint8(8), uint8(16), true, []byte{0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x40})
	f.Add(uint8(8), uint8(71), uint8(71), false, []byte{0xdb, 0x0f, 0x49, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x01, 0, 0x80, 0x7f})
	f.Add(uint8(4), uint8(15), uint8(8), true, []byte{0, 0, 0x80, 0x7f, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 1, 0, 0, 0, 0, 0, 0xc0, 0x7f})
	f.Add(uint8(0), uint8(0), uint8(0), false, []byte{})
	f.Add(uint8(0), uint8(0), uint8(0), true, []byte{}) // one row: the packed kernels at m = 1
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint8, mixed bool, raw []byte) {
		m, k, n := int(mRaw)%13+1, int(kRaw)%24+1, int(nRaw)%41+1
		if len(raw) > 1<<12 {
			raw = raw[:1<<12]
		}
		fill := func(dst []float32, at int) int {
			for i := range dst {
				var bits uint32
				for s := 0; s < 32 && len(raw) > 0; s += 8 {
					bits |= uint32(raw[at%len(raw)]) << s
					at++
				}
				dst[i] = math.Float32frombits(bits)
			}
			return at
		}
		a, b := New(m, k), New(k, n)
		fill(b.Data, fill(a.Data, 0))
		want := naiveGEMM(a.Data, b.Data, m, k, n, mixed)
		at, bt := Transpose2D(a), Transpose2D(b)
		dst := New(m, n)
		for _, workers := range []int{0, 3} {
			restore := func() {}
			if workers > 0 {
				restore = forceParallel(workers)
			}
			sameBits(t, "MatMulInto", MatMulInto(dst, a, b, mixed).Data, want, false)
			sameBits(t, "MatMulTAInto", MatMulTAInto(dst, at, b, mixed).Data, want, false)
			sameBits(t, "MatMulTBInto", MatMulTBInto(dst, a, bt, mixed).Data, want, false)
			sameBits(t, "MatMulIntoEp", MatMulIntoEp(dst, a, b, mixed, &Epilogue{WantSum: true}).Data, want, false)
			restore()
		}
	})
}
