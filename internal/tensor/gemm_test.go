package tensor

import (
	"fmt"
	"math"
	"strings"
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

// sparseRows makes A sparse enough for gemmSparse (three zeros in four at
// k >= 4), row by row in turn: one-hot at a column that moves with the row
// and salt; all zero; a lone non-zero at the first k; a lone non-zero at the
// last k. Each kept value is A's own (a NaN, an Inf or a subnormal stays
// one), except that every fifth row keeps a subnormal, the non-zero a test on
// the bits must not mistake for zero.
func sparseRows(a *Tensor, salt int) {
	m, k := a.Shape[0], a.Shape[1]
	for i := 0; i < m; i++ {
		keep := -1
		switch (i + salt) % 4 {
		case 0:
			keep = (i + salt) % k
		case 2:
			keep = 0
		case 3:
			keep = k - 1
		}
		for kk := 0; kk < k; kk++ {
			if kk != keep {
				a.Data[i*k+kk] = gemmZero(i, kk)
			} else if (i+salt)%5 == 0 {
				a.Data[i*k+kk] = math.Float32frombits(gemmSubnormals[(i+salt)%len(gemmSubnormals)])
			}
		}
	}
}

// TestSIMDGEMMBitwise runs every row remainder against every column tail
// and the k of one, a few and many steps, then the campaign's shapes. Each
// shape comes with a dense A and three sparse ones (zeroRuns, zeroPatterns
// and sparseRows), so A meets all three sides of gemmPath's dispatch — the
// whole-matrix tile kernel for a dense A, gemmSparse for one with three
// zeros in four or more, gemmRows between — and TB meets both sides of its
// own: the transposed product for a dense A where tbTransposesA holds (the
// conv weight gradient 8×72×72, the head's 4×108×10), B transposed for the
// tie 8×72×9 (conv1's weight gradient), a C narrower than four rows
// (2×72×72), a sparse A and everything else. The test fails unless it
// reached every side of both. B transposed is one tbTileAVX call for a dense
// A where Bᵀ fits its frame (k·n ≤ tbPanel: k 1 to 13 against n 1 to 17, k
// mod 4 ≠ 0 among them), a transposeAVX call into a pooled scratch
// otherwise. The kernels under it: gemmTileAVX, gemmSparseAVX and zerosAVX,
// which picks between them, tbTileAVX and transposeAVX, and axpy1AVX,
// gemmRows' mixed step.
func TestSIMDGEMMBitwise(t *testing.T) {
	ns := []int{72, 128}
	for n := 1; n <= 17; n++ { // every vector-tail length, twice over
		ns = append(ns, n)
	}
	var shapes [][3]int
	for m := 1; m <= 9; m++ {
		for _, n := range ns {
			for _, k := range []int{1, 2, 3, 5, 8, 9, 13, 72} {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	shapes = append(shapes, [3]int{8, 72, 72}, [3]int{8, 72, 9}, [3]int{2, 72, 72}, [3]int{4, 108, 10}, [3]int{16, 72, 72}, [3]int{13, 40, 21},
		[3]int{16, 6, 12}, [3]int{6, 16, 12}, [3]int{5, 130, 7}) // the embedding's one-hot NN and TA; a row past one 64-step mask
	r := rng.NewFromInt(77)
	salt := 0
	reached := map[[2]bool]bool{}
	paths := map[gemmKind]bool{}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		for _, poison := range []bool{false, true} {
			salt++
			a, b := gemmOperands(r, m, k, n, poison)
			checkGEMMVariants(t, a, b) // dense: one run of k steps per block
			runs := a.Clone()
			zeroRuns(runs, salt)
			checkGEMMVariants(t, runs, b)
			sparse := a.Clone()
			sparseRows(sparse, salt)
			checkGEMMVariants(t, sparse, b)
			for _, a := range []*Tensor{a, runs, sparse} {
				paths[gemmPath(a.Data, k)] = true
			}
			zeroPatterns(a, salt)
			checkGEMMVariants(t, a, b)
			for _, a := range []*Tensor{a, runs} {
				reached[[2]bool{tbTransposesA(m, k, n), allNonZero(a.Data)}] = true
			}
		}
	}
	for _, side := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
		if !reached[side] {
			t.Errorf("no shape with tbTransposesA %v and a dense A %v", side[0], side[1])
		}
	}
	if useAVX {
		for _, p := range []gemmKind{pathDense, pathSparse, pathRows} {
			if !paths[p] {
				t.Errorf("no A took gemmPath %d", p)
			}
		}
	}
}

// TestAddMatMulTABitwise holds AddMatMulTABlocks at one block to the two
// calls it replaces, dst.AddInPlace(MatMulTAInto(scratch, a, b)), bit for
// bit, NaN payloads
// included, on both of its paths: the tile kernel adding each chain to dst
// as it stores (a dense A, fp32) and the scratch product (an A with a zero,
// or bf16). The accumulators dst starts from hold ±0, normals and NaNs of a
// third payload set, so wherever a NaN product meets a NaN accumulator the
// payload that survives says which operand the addition took first: dst's,
// as in AddInPlace.
func TestAddMatMulTABitwise(t *testing.T) {
	r := rng.NewFromInt(79)
	accNaNs := []uint32{0x7fc0acc1, 0xffc0acc2, 0x7f80acc3}
	for _, s := range [][3]int{{12, 16, 12}, {6, 16, 12}, {12, 2, 6}, {1, 1, 1}, {5, 9, 13}, {9, 72, 17}, {12, 8, 4}} {
		m, k, n := s[0], s[1], s[2]
		for _, poison := range []bool{false, true} {
			a, b := gemmOperands(r, m, k, n, poison)
			sparse := a.Clone()
			sparseRows(sparse, m+k)
			for _, a := range []*Tensor{Transpose2D(a), Transpose2D(sparse)} { // [k,m], as AddMatMulTABlocks takes it
				for _, mixed := range []bool{false, true} {
					dst := New(m, n)
					for i := range dst.Data {
						switch r.Intn(5) {
						case 0:
							dst.Data[i] = float32(math.Copysign(0, -1))
						case 1:
							dst.Data[i] = math.Float32frombits(accNaNs[r.Intn(len(accNaNs))])
						case 2:
							dst.Data[i] = 0
						default:
							dst.Data[i] = float32(r.NormFloat64())
						}
					}
					want := dst.Clone()
					want.AddInPlace(MatMulTAInto(New(m, n), a, b, mixed))
					AddMatMulTABlocks([]*Tensor{dst}, a, b, []int{k}, -1, mixed)
					name := fmt.Sprintf("%dx%dx%d poison=%v dense=%v mixed=%v", m, k, n, poison, allNonZero(a.Data), mixed)
					sameBits(t, "AddMatMulTABlocks "+name, dst.Data, want.Data, true)
				}
			}
		}
	}
}

// TestTBFrameMatchesNN holds the A×Bᵀ products on tbTileAVX — MatMulTBInto
// and AddMatMulTB, whose Bᵀ the kernel transposes into its own frame — to
// the NN product on a transposed B, bit for bit, where their operands meet
// in every way: k 1 to 13 (k mod 4 ≠ 0 too) against n 1 to 17 and m 1 to
// 9, NaNs of disjoint payload sets in both operands, so NaN×NaN products
// are formed and their payload says which operand each multiply took
// first; the same A with a −0 or a +0 (the pooled-scratch path, whose skip
// rule leaves the zero's products out); and AddMatMulTB onto a C of ±0,
// normals and NaNs of a third payload set, which each chain must be added
// to, C first (tileAddToC). The test fails unless tbTileAVX took the dense
// products. Without the AVX kernels TB is gemmTB's dot products, whose
// accumulators disagree on NaN payloads (checkGEMMVariants): there a NaN
// has only to be a NaN.
func TestTBFrameMatchesNN(t *testing.T) {
	r := rng.NewFromInt(54)
	pick := func(set []uint32) float32 { return math.Float32frombits(set[r.Intn(len(set))]) }
	accNaNs := []uint32{0x7fc0acc1, 0xffc0acc2, 0x7f80acc3}
	framed := 0
	for m := 1; m <= 9; m++ {
		for k := 1; k <= 13; k++ {
			for n := 1; n <= 17; n++ {
				a, b := gemmOperands(r, m, k, n, true)
				bt := Transpose2D(b)
				for i := range a.Data {
					if r.Intn(5) == 0 {
						a.Data[i] = pick(gemmNaNsA)
					}
				}
				for i := range bt.Data {
					if r.Intn(5) == 0 {
						bt.Data[i] = pick(gemmNaNsB)
					}
				}
				zeroed := a.Clone()
				zeroed.Data[r.Intn(len(zeroed.Data))] = [2]float32{0, float32(math.Copysign(0, -1))}[r.Intn(2)]
				for _, a := range []*Tensor{a, zeroed} {
					name := fmt.Sprintf("%dx%dx%d dense=%v", m, k, n, allNonZero(a.Data))
					want := MatMulInto(New(m, n), a, Transpose2D(bt), false)
					got := New(m, n)
					got.Fill(math.Float32frombits(0x7fc0dead))
					sameBits(t, "MatMulTBInto "+name, MatMulTBInto(got, a, bt, false).Data, want.Data, useAVX)

					acc := New(m, n)
					for i := range acc.Data {
						switch r.Intn(4) {
						case 0:
							acc.Data[i] = float32(math.Copysign(0, -1))
						case 1:
							acc.Data[i] = pick(accNaNs)
						default:
							acc.Data[i] = float32(r.NormFloat64())
						}
					}
					sum := acc.Clone()
					sum.AddInPlace(want)
					AddMatMulTB(acc, a, bt, false)
					sameBits(t, "AddMatMulTB "+name, acc.Data, sum.Data, useAVX)
					if useAVX && allNonZero(a.Data) && !tbTransposesA(m, k, n) {
						if !tbTile(got.Data, a.Data, bt.Data, 1, m, k, n, tileFromZero, 0) {
							t.Fatalf("%s: tbTile refused a dense A", name)
						}
						framed++
					}
				}
			}
		}
	}
	if useAVX && framed == 0 {
		t.Error("no product took tbTileAVX")
	}
}

// batchPoison writes into A's block blk only: a −0 (zero), a NaN (nan) or
// three zeros in four (sparse), so one block alone sends the whole batched
// call down another path.
func batchPoison(a []float32, blocks, blk int, kind string) {
	size := len(a) / blocks
	block := a[blk*size : (blk+1)*size]
	switch kind {
	case "zero":
		block[size/2] = float32(math.Copysign(0, -1))
	case "nan":
		block[size/3] = math.Float32frombits(gemmNaNsA[1])
	case "sparse":
		for i := range a {
			if i%4 != 0 {
				a[i] = 0
			}
		}
	}
}

// TestBatchGEMMBitwise holds the batched products to their single forms
// element by element, bit for bit, NaN payloads included: MatMulBatchInto
// to MatMulInto, MatMulTABatchInto to MatMulTAInto, MatMulTBBatchInto to
// MatMulTBInto without a scale and followed by Scale with one, and
// AddMatMulTABlocks to AddInPlace(MatMulTAInto) block by block onto C's holding ±0 and
// NaNs, one block an element over two destinations and two unequal blocks —
// at 1, 2, 3 and 64 elements, the attention's shapes and odd ones,
// with every block dense, a −0 or a NaN in one block only, and three zeros
// in four (the sparse path), in FP32 and bf16 (an FP32 TB without the AVX
// kernels is held to NaN-ness where NaNs meet, as in checkGEMMVariants).
// The kernels under it:
// gemmBatch's tile, sparse and row paths, tbTileAVX for a dense TB and
// transposeAVX into a pooled scratch for the others.
func TestBatchGEMMBitwise(t *testing.T) {
	r := rng.NewFromInt(58)
	shapes := [][3]int{{8, 12, 8}, {8, 8, 12}, {12, 8, 12}, {3, 5, 7}, {1, 13, 1}, {5, 1, 17}, {9, 40, 9}}
	for _, batch := range []int{1, 2, 3, 64} {
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			if batch == 64 && m*k*n > 1000 {
				continue
			}
			for _, kind := range []string{"dense", "zero", "nan", "sparse"} {
				for _, mixed := range []bool{false, true} {
					name := fmt.Sprintf("batch %d %dx%dx%d %s mixed=%v", batch, m, k, n, kind, mixed)
					stack := func(rows, cols int, poison bool) *Tensor {
						t := New(batch*rows, cols)
						for e := 0; e < batch; e++ {
							a, _ := gemmOperands(r, rows, cols, 1, true)
							copy(t.Data[e*rows*cols:], a.Data)
						}
						if poison {
							batchPoison(t.Data, batch, batch/2, kind)
						}
						return t
					}
					block := func(t *Tensor, e int) *Tensor {
						rows, cols := t.Shape[0]/batch, t.Shape[1]
						return FromSlice(t.Data[e*rows*cols:(e+1)*rows*cols], rows, cols)
					}
					check := func(op string, got *Tensor, want func(e int) *Tensor) {
						t.Helper()
						exact := useAVX || mixed || !strings.HasPrefix(op, "MatMulTB")
						for e := 0; e < batch; e++ {
							sameBits(t, fmt.Sprintf("%s %s element %d", op, name, e), block(got, e).Data, want(e).Data, exact)
						}
					}
					a, b := stack(m, k, true), stack(k, n, false)
					got := New(batch*m, n)
					MatMulBatchInto(got, a, b, batch, mixed)
					check("MatMulBatchInto", got, func(e int) *Tensor { return MatMulInto(New(m, n), block(a, e), block(b, e), mixed) })

					at := stack(k, m, true)
					MatMulTABatchInto(got, at, b, batch, mixed)
					check("MatMulTABatchInto", got, func(e int) *Tensor { return MatMulTAInto(New(m, n), block(at, e), block(b, e), mixed) })

					bt := stack(n, k, false)
					for _, s := range []float32{1, float32(1 / math.Sqrt(float64(k)))} {
						MatMulTBBatchInto(got, a, bt, batch, s, mixed)
						check(fmt.Sprintf("MatMulTBBatchInto s=%v", s), got, func(e int) *Tensor {
							want := MatMulTBInto(New(m, n), block(a, e), block(bt, e), mixed)
							if s != 1 {
								want.Scale(s)
							}
							return want
						})
					}

					// AddMatMulTABlocks: one block an element, elements
					// alternating between two destinations, then two blocks
					// of unequal size; zeros counted by the caller or not.
					accs, wants := [2]*Tensor{New(m, n), New(m, n)}, [2]*Tensor{}
					for j := range accs {
						for i := range accs[j].Data {
							accs[j].Data[i] = [...]float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc0acc1), 1.5}[(i+j)%4]
						}
						wants[j] = accs[j].Clone()
					}
					var dsts []*Tensor
					var rows []int
					for e := 0; e < batch; e++ {
						wants[e%2].AddInPlace(MatMulTAInto(New(m, n), block(at, e), block(b, e), mixed))
						dsts, rows = append(dsts, accs[e%2]), append(rows, k)
					}
					AddMatMulTABlocks(dsts, at, b, rows, CountZeros(at), mixed)
					if split := (batch + 1) / 2 * k; batch > 1 {
						wants[0].AddInPlace(MatMulTAInto(New(m, n), FromSlice(at.Data[:split*m], split, m), FromSlice(b.Data[:split*n], split, n), mixed))
						wants[1].AddInPlace(MatMulTAInto(New(m, n), FromSlice(at.Data[split*m:], batch*k-split, m), FromSlice(b.Data[split*n:], batch*k-split, n), mixed))
						AddMatMulTABlocks(accs[:], at, b, []int{split, batch*k - split}, -1, mixed)
					}
					for j := range accs {
						sameBits(t, fmt.Sprintf("AddMatMulTABlocks %s destination %d", name, j), accs[j].Data, wants[j].Data, true)
					}
				}
			}
		}
	}
}

// checkGEMMVariants runs NN, TA and TB on A×B and holds each to
// matmulRef(a, b). Destinations are pre-filled with a NaN so a
// kernel that fails to overwrite (or start its chains from +0) shows.
func checkGEMMVariants(t *testing.T, a, b *Tensor) {
	t.Helper()
	want := matmulRef(a, b, false).Data
	dst := New(a.Shape[0], b.Shape[1])
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
}

// TestTBTransposedMatchesNN holds the transposed TB product to the NN
// product on a transposed B — MatMul(a, Transpose2D(b)), MatMulTB's
// contract and its other path — bit for bit, NaN payloads included, where
// the two are allowed to meet: both operands carry NaNs of disjoint payload
// sets at any k, so NaN×NaN products are formed too, and only the multiply's
// operand order decides which payload such a product keeps. gemmTBviaTN
// must form each product B first, as the NN kernel does. The shapes include
// ones tbTransposesA refuses; gemmTBviaTN computes any shape.
func TestTBTransposedMatchesNN(t *testing.T) {
	if !useAVX {
		t.Skip("the transposed product runs on the AVX tile kernel only")
	}
	r := rng.NewFromInt(53)
	pick := func(set []uint32) float32 { return math.Float32frombits(set[r.Intn(len(set))]) }
	campaign := [][3]int{{8, 72, 72}, {8, 72, 9}, {4, 108, 10}}
	for trial := 0; trial < 400; trial++ {
		m, k, n := 1+r.Intn(20), 1+r.Intn(80), 1+r.Intn(80)
		if trial < len(campaign) {
			m, k, n = campaign[trial][0], campaign[trial][1], campaign[trial][2]
		}
		a, b := gemmOperands(r, m, k, n, true)
		bt := Transpose2D(b)
		for i := range a.Data {
			if r.Intn(6) == 0 {
				a.Data[i] = pick(gemmNaNsA)
			}
		}
		for i := range bt.Data {
			if r.Intn(6) == 0 {
				bt.Data[i] = pick(gemmNaNsB)
			}
		}
		if !allNonZero(a.Data) {
			t.Fatalf("%dx%dx%d: gemmOperands left a zero in A", m, k, n)
		}
		want := MatMulInto(New(m, n), a, Transpose2D(bt), false).Data
		got := make([]float32, m*n)
		for i := range got {
			got[i] = math.Float32frombits(0x7fc0dead)
		}
		gemmTBviaTN(got, a.Data, bt.Data, m, k, n)
		sameBits(t, fmt.Sprintf("gemmTBviaTN %dx%dx%d", m, k, n), got, want, true)
	}
}

// TestDenseRun4 holds the vectorized prescan, denseRun4AVX, to a scalar
// `== 0` loop in both layouts, from every starting step. The values that are
// not zero are the ones a compare could get wrong — subnormals of either
// sign, NaNs quiet and signaling, Inf — and the zeros come in both signs, in
// every row, at every step, alone and in pairs.
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

// TestGEMMBoundsPanics: the tile kernel, the sparse-row kernel and the
// prescans take addresses, so their wrappers check every extent first; and
// the entry points refuse an operand whose Data does not hold what its Shape
// says, which the kernels would otherwise find out by indexing.
func TestGEMMBoundsPanics(t *testing.T) {
	c, b, a := make([]float32, 4*8), make([]float32, 5*8), make([]float32, 4*5)
	mustPanicWith(t, "gemmTile needs 4×8 elements of C, slice holds 31", func() { gemmTile(c[:31], b, a, 4, 8, 5, 5, 1, tileFromC, false) })
	mustPanicWith(t, "gemmTile needs 5×8 elements of B, slice holds 39", func() { gemmTile(c, b[:39], a, 4, 8, 5, 5, 1, tileFromZero, false) })
	mustPanicWith(t, "gemmTile reaches element 19 of A, slice holds 19", func() { gemmTile(c, b, a[:19], 4, 8, 5, 5, 1, tileFromC, false) })
	mustPanicWith(t, "gemmTile reaches element 19 of A, slice holds 19", func() { gemmTile(c, b, a[:19], 4, 8, 5, 1, 4, tileFromZero, false) })
	mustPanicWith(t, "gemmTile reaches element 19 of A, slice holds 19", func() { gemmTile(c, b, a[:19], 2, 8, 5, 15, 1, tileFromZero, false) })
	mustPanicWith(t, "gemmTile with 4 rows, 8 columns, 0 k-steps, A row step 5, A k step 1", func() { gemmTile(c, b, a, 4, 8, 0, 5, 1, tileFromC, false) })
	mustPanicWith(t, "gemmTile with 4 rows, 8 columns, 5 k-steps, A row step -5, A k step 1", func() { gemmTile(c, b, a, 4, 8, 5, -5, 1, tileFromC, false) })
	mustPanicWith(t, "gemmTile with -1 rows, 0 columns, 5 k-steps, A row step 5, A k step 1", func() { gemmTile(c, b, a, -1, 0, 5, 5, 1, tileFromC, false) })
	gemmTile(nil, nil, nil, 4, 0, 5, 5, 1, tileFromC, false)    // no columns: nothing to do, nothing to check
	gemmTile(nil, nil, nil, 0, 8, 5, 5, 1, tileFromZero, false) // no rows either
	mustPanicWith(t, "gemmSparse reaches element 19 of A, slice holds 19", func() { gemmSparse(c, b, a[:19], 4, 8, 5, 5, 1) })
	mustPanicWith(t, "gemmSparse needs 4×8 elements of C, slice holds 31", func() { gemmSparse(c[:31], b, a, 4, 8, 5, 5, 1) })
	mustPanicWith(t, "denseRun4 reaches element 19 of A, slice holds 19", func() { denseRun4(a[:19], 5, 5, 1) })
	mustPanicWith(t, "denseRun4 reaches element 19 of A, slice holds 19", func() { denseRun4(a[:19], 5, 1, 4) })
	mustPanicWith(t, "denseRun4 with 0 k-steps, A row step 5, A k step 1", func() { denseRun4(a, 0, 5, 1) })
	mustPanicWith(t, "denseRun4 with 2 k-steps, A row step 5, A k step 2", func() { denseRun4(a, 2, 5, 2) })

	good, dst := New(4, 5), New(4, 4)
	short := &Tensor{Shape: []int{5, 4}, Data: make([]float32, 19)}
	shortT := &Tensor{Shape: []int{4, 5}, Data: make([]float32, 19)}
	mustPanicWith(t, "MatMul right operand holds 19 elements for shape [5 4]", func() { MatMulInto(dst, good, short, false) })
	mustPanicWith(t, "MatMul left operand holds 19 elements for shape [4 5]", func() { MatMulInto(dst, shortT, New(5, 4), false) })
	mustPanicWith(t, "MatMulTA left operand holds 19 elements for shape [5 4]", func() { MatMulTAInto(dst, short, New(5, 4), false) })
	mustPanicWith(t, "MatMulTA right operand holds 19 elements for shape [5 4]", func() { MatMulTAInto(dst, New(5, 4), short, false) })
	mustPanicWith(t, "MatMulTB left operand holds 19 elements for shape [4 5]", func() { MatMulTBInto(dst, shortT, good, false) })
	mustPanicWith(t, "MatMulTB right operand holds 19 elements for shape [4 5]", func() { MatMulTBInto(dst, good, shortT, false) })
}

// TestTransposeBlocks covers transposeAVX's edges: every mix of 8x8 blocks,
// 4x4 blocks and single elements in rows and columns 1 to 19, one matrix and
// three in one call, with bit patterns (signaling NaNs included) that
// arithmetic would not preserve — the transpose must only move data — and a
// guard past the last matrix that must stay untouched.
func TestTransposeBlocks(t *testing.T) {
	const guard = 0x7fc0beef
	for rows := 1; rows <= 19; rows++ {
		for cols := 1; cols <= 19; cols++ {
			for _, blocks := range []int{1, 3} {
				size := rows * cols
				src := make([]float32, blocks*size)
				for i := range src {
					src[i] = math.Float32frombits(0x7f800001 + uint32(i)*0x01000193)
				}
				dst := make([]float32, blocks*size+5)
				for i := range dst {
					dst[i] = math.Float32frombits(guard)
				}
				transposeBlocks(dst[:blocks*size], src, rows, cols, blocks)
				for blk := 0; blk < blocks; blk++ {
					for i := 0; i < rows; i++ {
						for j := 0; j < cols; j++ {
							g, w := math.Float32bits(dst[blk*size+j*rows+i]), math.Float32bits(src[blk*size+i*cols+j])
							if g != w {
								t.Fatalf("%d of [%d,%d]: matrix %d dst[%d][%d] = %#08x, want %#08x", blocks, rows, cols, blk, j, i, g, w)
							}
						}
					}
				}
				for i, v := range dst[blocks*size:] {
					if math.Float32bits(v) != guard {
						t.Fatalf("%d of [%d,%d]: guard %d overwritten", blocks, rows, cols, i)
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
// and the precision, and every GEMM entry point, AddMatMulTABlocks and AddMatMulTB
// included, must agree with naiveGEMM bit for bit, and so must each element
// of the batched products over three: the operands, both reversed, and A
// with one zero (the scaled TB times s, as Scale rounds it). NaN results only have to be NaN:
// the oracle's own payload choice belongs to the compiler (see gemmOperands).
func FuzzGEMMOracle(f *testing.F) {
	// No zero anywhere in A: every block is one run of k dense steps.
	f.Add(uint8(8), uint8(22), uint8(39), false, []byte{0, 0, 0x80, 0x3f, 0xdb, 0x0f, 0x49, 0xc0, 1, 0, 0, 0, 0, 0, 0xc0, 0x7f, 0xff, 0xff, 0x7f, 0x80})
	f.Add(uint8(3), uint8(8), uint8(16), true, []byte{0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x40})
	f.Add(uint8(8), uint8(71), uint8(71), false, []byte{0xdb, 0x0f, 0x49, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x01, 0, 0x80, 0x7f})
	f.Add(uint8(4), uint8(15), uint8(8), true, []byte{0, 0, 0x80, 0x7f, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 1, 0, 0, 0, 0, 0, 0xc0, 0x7f})
	f.Add(uint8(0), uint8(0), uint8(0), false, []byte{})
	f.Add(uint8(0), uint8(0), uint8(0), true, []byte{}) // one row: the packed kernels at m = 1
	// Both sides of the dense-A dispatch, at every row remainder of the
	// whole-matrix kernel (m = 1, 2, 3, 5) and every column tile (n = 1, 4,
	// 6, 12): A dense; the same A against a B of ±Inf and NaN payloads, which
	// the whole-matrix kernel must carry as naiveGEMM does; and that B with
	// one -0 in A, which sends A down the skip path. The -0 meets B's +Inf at
	// step 0: had it been multiplied rather than skipped, a NaN would show.
	inf, negInf := float32(math.Inf(1)), float32(math.Inf(-1))
	nan := math.Float32frombits(gemmNaNsB[0])
	for _, m := range []int{1, 2, 3, 5} {
		for _, n := range []int{1, 4, 6, 12} {
			k := 3 + m%2
			a, b := make([]float32, m*k), make([]float32, k*n)
			for i := range a {
				a[i] = float32(i%7) - 2.5
			}
			for i := range b {
				b[i] = float32(i%5)*0.75 - 1
			}
			f.Add(uint8(m-1), uint8(k-1), uint8(n-1), false, gemmSeed(a, b))
			for i := range b {
				b[i] = [...]float32{inf, 2, negInf, nan, -0.5}[i%5]
			}
			f.Add(uint8(m-1), uint8(k-1), uint8(n-1), false, gemmSeed(a, b))
			a[m/2*k] = float32(math.Copysign(0, -1))
			f.Add(uint8(m-1), uint8(k-1), uint8(n-1), false, gemmSeed(a, b))
		}
	}
	// Both sides of TB's dispatch for a dense A (tbTransposesA): the
	// transposed product at 4×13×7, 8×24×41 and 13×24×41, B transposed at the
	// tie 4×12×6, at 8×8×12 and below four rows at 2×12×6 — each dense, then
	// against B's infinities and NaNs, then with a -0 in A.
	for _, s := range [][3]int{{4, 13, 7}, {8, 24, 41}, {13, 24, 41}, {4, 12, 6}, {8, 8, 12}, {2, 12, 6}} {
		m, k, n := s[0], s[1], s[2]
		a, b := make([]float32, m*k), make([]float32, k*n)
		for i := range a {
			a[i] = float32(i%9) - 3.5
		}
		for i := range b {
			b[i] = float32(i%7)*0.5 - 1.25
		}
		f.Add(uint8(m-1), uint8(k-1), uint8(n-1), false, gemmSeed(a, b))
		for i := range b {
			b[i] = [...]float32{nan, 1.5, inf, -3, negInf, 0}[i%6]
		}
		f.Add(uint8(m-1), uint8(k-1), uint8(n-1), false, gemmSeed(a, b))
		a[(m-1)*k+k/2] = float32(math.Copysign(0, -1))
		f.Add(uint8(m-1), uint8(k-1), uint8(n-1), false, gemmSeed(a, b))
	}
	// gemmSparse, in the NN and the TA layout the body runs each A in: the
	// embedding's one-hot 16×6×12 (and 6×16×12, its weight gradient's
	// shape); all-zero rows; a lone non-zero at the first and at the last
	// k — a subnormal, then a NaN — each against B's infinities and NaNs,
	// which a product the skip rule should have skipped would turn into a
	// NaN, and one the kernel wrongly skipped would leave out.
	sub := math.Float32frombits(gemmSubnormals[0])
	for _, s := range [][3]int{{16, 6, 12}, {6, 16, 12}, {5, 24, 7}, {13, 4, 41}} {
		m, k, n := s[0], s[1], s[2]
		b := make([]float32, k*n)
		for i := range b {
			b[i] = [...]float32{inf, 1.5, negInf, nan, -0.5, 2}[i%6]
		}
		for _, lone := range []float32{1, sub, nan} {
			a := make([]float32, m*k)
			for i := 0; i < m; i++ {
				switch i % 4 {
				case 0:
					a[i*k+i%k] = lone * 0.75
				case 2:
					a[i*k] = lone
				case 3:
					a[i*k+k-1] = -lone
				}
			}
			f.Add(uint8(m-1), uint8(k-1), uint8(n-1), false, gemmSeed(a, b))
		}
	}
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
		sameBits(t, "MatMulInto", MatMulInto(dst, a, b, mixed).Data, want, false)
		sameBits(t, "MatMulTAInto", MatMulTAInto(dst, at, b, mixed).Data, want, false)
		sameBits(t, "MatMulTBInto", MatMulTBInto(dst, a, bt, mixed).Data, want, false)
		// AddMatMulTABlocks onto a C of the fuzzer's bits: C + product, C first.
		acc := New(m, n)
		fill(acc.Data, 7)
		sum := make([]float32, m*n)
		for i, v := range acc.Data {
			sum[i] = v + want[i]
		}
		AddMatMulTABlocks([]*Tensor{acc}, at, b, []int{k}, -1, mixed)
		sameBits(t, "AddMatMulTABlocks", acc.Data, sum, false)
		acc = New(m, n)
		fill(acc.Data, 7)
		AddMatMulTB(acc, a, bt, mixed)
		sameBits(t, "AddMatMulTB", acc.Data, sum, false)

		// Three elements in one batched call of each kind: A and B as the
		// fuzzer gave them, both reversed, and A with its middle element
		// zeroed — that block alone takes the call off the tile path.
		rev := func(s []float32) []float32 {
			out := make([]float32, len(s))
			for i, v := range s {
				out[len(s)-1-i] = v
			}
			return out
		}
		a3 := append(append(append([]float32(nil), a.Data...), rev(a.Data)...), a.Data...)
		a3[2*m*k+m*k/2] = 0
		b3 := append(append(append([]float32(nil), b.Data...), rev(b.Data)...), b.Data...)
		wants := make([][]float32, 3)
		for e := range wants {
			wants[e] = naiveGEMM(a3[e*m*k:(e+1)*m*k], b3[e*k*n:(e+1)*k*n], m, k, n, mixed)
		}
		stacked := func(blocks [][]float32, rows, cols int, transpose bool) *Tensor {
			t := New(3*rows, cols)
			for e, blk := range blocks {
				src := FromSlice(blk, cols, rows)
				if !transpose {
					src = FromSlice(blk, rows, cols)
				} else {
					src = Transpose2D(src)
				}
				copy(t.Data[e*rows*cols:], src.Data)
			}
			return t
		}
		aBlocks := [][]float32{a3[:m*k], a3[m*k : 2*m*k], a3[2*m*k:]}
		bBlocks := [][]float32{b3[:k*n], b3[k*n : 2*k*n], b3[2*k*n:]}
		a3t, b3t := stacked(aBlocks, m, k, false), stacked(bBlocks, k, n, false)
		checkBlocks := func(op string, got *Tensor, scale float32) {
			t.Helper()
			for e := range wants {
				want := wants[e]
				if scale != 1 {
					want = append([]float32(nil), want...)
					for i := range want {
						want[i] *= scale
					}
				}
				sameBits(t, fmt.Sprintf("%s element %d", op, e), got.Data[e*m*n:(e+1)*m*n], want, false)
			}
		}
		out := New(3*m, n)
		checkBlocks("MatMulBatchInto", MatMulBatchInto(out, a3t, b3t, 3, mixed), 1)
		checkBlocks("MatMulTABatchInto", MatMulTABatchInto(out, stacked(aBlocks, k, m, true), b3t, 3, mixed), 1)
		bt3 := stacked(bBlocks, n, k, true)
		checkBlocks("MatMulTBBatchInto", MatMulTBBatchInto(out, a3t, bt3, 3, 1, mixed), 1)
		s := float32(1 / math.Sqrt(float64(k)))
		checkBlocks("MatMulTBBatchInto scaled", MatMulTBBatchInto(out, a3t, bt3, 3, s, mixed), s)
	})
}

// gemmSeed is FuzzGEMMOracle's raw input for exactly these A and B: their
// bits, little-endian, A first, as the fuzz body reads them back.
func gemmSeed(a, b []float32) []byte {
	var raw []byte
	for _, v := range append(append([]float32(nil), a...), b...) {
		bits := math.Float32bits(v)
		raw = append(raw, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	return raw
}

// TestDenseAPredicate: the whole-matrix kernel applies no skip rule, so the
// predicate that sends A to it must refuse every A holding a +0 or a -0, at
// every position of every length the vector scan splits differently, and
// admit the non-zero values a compare could mistake for zero — subnormals,
// NaNs quiet and signaling, infinities. The zero count zerosAVX returns,
// which also picks between gemmSparse and gemmRows, must be exact: one zero
// at each position, then one at every third from each start.
func TestDenseAPredicate(t *testing.T) {
	var nonZero []float32
	for _, set := range [][]uint32{gemmSubnormals, gemmNaNsA, gemmNaNsB, gemmInfs, {0x3f800000, 0x80800000}} {
		for _, bits := range set {
			nonZero = append(nonZero, math.Float32frombits(bits))
		}
	}
	negZero := float32(math.Copysign(0, -1))
	for n := 1; n <= 37; n++ {
		a := make([]float32, n)
		refill := func() {
			for i := range a {
				a[i] = nonZero[(i*5+n)%len(nonZero)]
			}
		}
		refill()
		if !allNonZero(a) || countZeros(a) != 0 {
			t.Fatalf("length %d without a zero: refused, %d zeros counted", n, countZeros(a))
		}
		for i := 0; i < n; i++ {
			for _, z := range []float32{0, negZero} {
				keep := a[i]
				a[i] = z
				name := fmt.Sprintf("length %d, %v at %d", n, math.Float32bits(z), i)
				if allNonZero(a) || countZeros(a) != 1 {
					t.Fatalf("%s: admitted, or %d zeros counted", name, countZeros(a))
				}
				if gemmPath(a, 1) == pathDense {
					t.Fatalf("%s: gemmPath admitted it", name)
				}
				a[i] = keep
			}
		}
		for from := 0; from < 3; from++ {
			refill()
			want := 0
			for i := from; i < n; i += 3 {
				a[i] = [2]float32{0, negZero}[i%2]
				want++
			}
			if got := countZeros(a); got != want {
				t.Fatalf("length %d, a zero at every third from %d: %d counted, want %d", n, from, got, want)
			}
		}
	}
}

// TestGEMMSmallNoAllocs: the fp32 entry points allocate nothing at the
// transformer's shapes, on either side of the dense-A dispatch — TB's
// transposed B included, which lives on the stack at these sizes — nor at a
// head layer's 4×108×10 and the convolution weight gradients 8×72×72 and
// 8×72×9, whose TB panels are past the stack panel: with a dense A, the
// first two take the transposed product and the tie 8×72×9 transposes B.
//
// Those panels come from a sync.Pool, which under the race detector drops a
// quarter of what is put back at random, so a call there allocates a panel
// (two objects) one time in four. AllocsPerRun reports whole allocations per
// call, rounded down: over 100 runs that chance reads 0 all but never (20
// runs read 1 in a few percent of passes), and a call that allocates every
// time still reads at least 1, with the race detector or without.
func TestGEMMSmallNoAllocs(t *testing.T) {
	r := rng.NewFromInt(41)
	for _, s := range [][3]int{{8, 12, 8}, {8, 8, 12}, {16, 12, 12}, {16, 6, 12}, {12, 8, 12}, {2, 12, 6}, {4, 108, 10}, {8, 72, 72}, {8, 72, 9}} {
		m, k, n := s[0], s[1], s[2]
		a, b := gemmOperands(r, m, k, n, false)
		sparse := a.Clone()
		zeroPatterns(sparse, 1)
		dst := New(m, n)
		for _, a := range []*Tensor{a, sparse} {
			at, bt := Transpose2D(a), Transpose2D(b)
			for name, run := range map[string]func(){
				"MatMulInto":   func() { MatMulInto(dst, a, b, false) },
				"MatMulTAInto": func() { MatMulTAInto(dst, at, b, false) },
				"MatMulTBInto": func() { MatMulTBInto(dst, a, bt, false) },
			} {
				if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
					t.Errorf("%s %dx%dx%d, dense A %v: %v allocations a call", name, m, k, n, allNonZero(a.Data), allocs)
				}
			}
		}
	}
}
