package tensor

import (
	"math"
	"testing"

	"repro/internal/numerics"
	"repro/internal/rng"
)

// randMat returns an [r, c] tensor with normal entries plus a sprinkling of
// exact zeros, so the kernels' zero-skip fast path is exercised (the skip
// rule is part of the bitwise-determinism contract).
func randMat(r *rng.Rand, rows, cols int) *Tensor {
	t := New(rows, cols)
	t.FillNormal(r, 0, 1)
	for i := 0; i < t.Len(); i += 7 {
		t.Data[i] = 0
	}
	return t
}

func bitsEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length %d vs %d", name, got.Len(), want.Len())
	}
	sameBits(t, name, got.Data, want.Data, true)
}

// forceParallel routes every matmul through the parallel blocked path with n
// workers for the duration of the returned restore func.
func forceParallel(n int) (restore func()) {
	oldW := SetWorkers(n)
	oldT := SetParallelThreshold(0)
	return func() { SetWorkers(oldW); SetParallelThreshold(oldT) }
}

func TestMatMulTAMatchesTranspose(t *testing.T) {
	r := rng.NewFromInt(21)
	for _, mixed := range []bool{false, true} {
		a := randMat(r, 17, 9)  // [k, m]
		b := randMat(r, 17, 13) // [k, n]
		want := matmulRef(Transpose2D(a), b, mixed)
		got := MatMulTA(a, b, mixed)
		bitsEqual(t, "MatMulTA", got, want)
	}
}

func TestMatMulTBMatchesTranspose(t *testing.T) {
	r := rng.NewFromInt(22)
	for _, mixed := range []bool{false, true} {
		a := randMat(r, 11, 19) // [m, k]
		b := randMat(r, 8, 19)  // [n, k]
		want := matmulRef(a, Transpose2D(b), mixed)
		got := MatMulTB(a, b, mixed)
		bitsEqual(t, "MatMulTB", got, want)
	}
}

func TestMatMulParallelBitwiseIdentical(t *testing.T) {
	r := rng.NewFromInt(23)
	a := randMat(r, 33, 27)
	b := randMat(r, 27, 21)
	at := randMat(r, 27, 33) // TA operand [k, m]
	bt := randMat(r, 21, 27) // TB operand [n, k]

	for _, mixed := range []bool{false, true} {
		serialNN := matmulRef(a, b, mixed)
		serialTA := MatMulTA(at, b, mixed)
		serialTB := MatMulTB(a, bt, mixed)

		for _, workers := range []int{1, 2, 8} {
			restore := forceParallel(workers)
			bitsEqual(t, "parallel NN", MatMulInto(New(33, 21), a, b, mixed), serialNN)
			bitsEqual(t, "parallel TA", MatMulTA(at, b, mixed), serialTA)
			bitsEqual(t, "parallel TB", MatMulTB(a, bt, mixed), serialTB)
			restore()
		}
	}
}

// matmulRef is the seed repository's serial ikj matmul, kept verbatim as the
// bitwise reference the blocked kernels must reproduce.
func matmulRef(a, b *Tensor, mixed bool) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		ci := out.Data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := a.Data[i*k+kk]
			if av == 0 {
				continue
			}
			bk := b.Data[kk*n : (kk+1)*n]
			if mixed {
				avr := numerics.RoundBF16(av)
				for j, bv := range bk {
					ci[j] += numerics.RoundBF16(avr * numerics.RoundBF16(bv))
				}
			} else {
				for j, bv := range bk {
					ci[j] += av * bv
				}
			}
		}
	}
	return out
}

func TestMatMulIntoOverwritesDst(t *testing.T) {
	r := rng.NewFromInt(24)
	a := randMat(r, 5, 6)
	b := randMat(r, 6, 4)
	want := matmulRef(a, b, false)

	dst := New(5, 4)
	dst.Fill(float32(math.NaN())) // garbage prefill must not leak through
	bitsEqual(t, "MatMulInto", MatMulInto(dst, a, b, false), want)

	// TB assigns rather than accumulates; garbage must not leak either.
	bt := Transpose2D(b)
	dst.Fill(float32(math.Inf(1)))
	bitsEqual(t, "MatMulTBInto", MatMulTBInto(dst, a, bt, false), want)
}

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	t1 := ws.Get("buf", 4, 5)
	t1.Fill(3)
	t2 := ws.Get("buf", 5, 4) // same element count → same backing array
	if &t1.Data[0] != &t2.Data[0] {
		t.Fatal("same-size Get did not reuse the backing array")
	}
	if t2.Shape[0] != 5 || t2.Shape[1] != 4 {
		t.Fatalf("reused buffer shape = %v, want [5 4]", t2.Shape)
	}
	t3 := ws.Get("buf", 6, 6) // beyond the capacity → grows, once
	if t3.Len() != 36 {
		t.Fatalf("grown buffer has %d elements, want 36", t3.Len())
	}
	// Buffers only grow: a shape swing (training shard ↔ test batch) must
	// reslice the larger backing array both ways, never reallocate.
	t3.Fill(7)
	small := ws.Get("buf", 2, 5)
	if small.Len() != 10 || &small.Data[0] != &t3.Data[0] {
		t.Fatalf("shrinking Get did not reslice the grown buffer (len %d)", small.Len())
	}
	big := ws.Get("buf", 6, 6)
	if big.Len() != 36 || &big.Data[0] != &small.Data[0] {
		t.Fatalf("re-growing Get within capacity did not reslice (len %d)", big.Len())
	}
	if allocs := testing.AllocsPerRun(10, func() {
		ws.Get("buf", 2, 5)
		ws.Get("buf", 6, 6)
	}); allocs != 0 {
		t.Fatalf("alternating shapes allocate %v times per swing, want 0", allocs)
	}
	z := ws.GetZeroed("buf", 6, 6)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("GetZeroed element %d = %v, want 0", i, v)
		}
	}
	// A nil workspace must behave like plain allocation.
	var nilWS *Workspace
	fresh := nilWS.Get("x", 2, 3)
	if fresh.Len() != 6 {
		t.Fatalf("nil-workspace Get returned %d elements, want 6", fresh.Len())
	}
}

func TestBiasHelpersMatchNaive(t *testing.T) {
	r := rng.NewFromInt(25)
	x := New(3, 4, 2, 2)
	x.FillNormal(r, 0, 1)
	bias := New(4)
	bias.FillNormal(r, 0, 1)

	want := x.Clone()
	n, c, spatial := 3, 4, 4
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			for i := 0; i < spatial; i++ {
				want.Data[(b*c+ch)*spatial+i] += bias.Data[ch]
			}
		}
	}
	got := x.Clone()
	AddBiasNCHW(got, bias)
	bitsEqual(t, "AddBiasNCHW", got, want)

	wantSum := New(4)
	wantSum.Fill(1) // accumulation semantics: += onto existing contents
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			var sum float32
			for i := 0; i < spatial; i++ {
				sum += x.Data[(b*c+ch)*spatial+i]
			}
			wantSum.Data[ch] += sum
		}
	}
	gotSum := New(4)
	gotSum.Fill(1)
	SumPerChannelNCHW(x, gotSum)
	bitsEqual(t, "SumPerChannelNCHW", gotSum, wantSum)

	// Rank-2 (Dense) path: spatial = 1.
	d := randMat(r, 6, 5)
	db := New(5)
	db.FillNormal(r, 0, 1)
	wantD := d.Clone()
	for b := 0; b < 6; b++ {
		for j := 0; j < 5; j++ {
			wantD.Data[b*5+j] += db.Data[j]
		}
	}
	gotD := d.Clone()
	AddBiasNCHW(gotD, db)
	bitsEqual(t, "AddBiasNCHW rank-2", gotD, wantD)
}

func TestConvWorkspaceBitwiseStable(t *testing.T) {
	r := rng.NewFromInt(26)
	in := New(2, 3, 6, 6)
	in.FillNormal(r, 0, 1)
	kernel := New(4, 3, 3, 3)
	kernel.FillNormal(r, 0, 0.5)
	gradOut := New(2, 4, 6, 6)
	gradOut.FillNormal(r, 0, 1)
	p := ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}

	wantOut := Conv2D(in, kernel, p, false)
	wantGI, wantGK := Conv2DBackward(in, kernel, gradOut, p, false)

	// Repeated iterations through one workspace must stay bitwise-identical
	// to the allocating path, including the cols handoff from forward to
	// backward.
	ws := NewWorkspace()
	for iter := 0; iter < 3; iter++ {
		out, cols := Conv2DForwardWS(ws, in, kernel, p, false)
		bitsEqual(t, "Conv2DForwardWS", out, wantOut)
		gi, gk := Conv2DBackwardWS(ws, in, kernel, gradOut, cols, p, false)
		bitsEqual(t, "Conv2DBackwardWS gradIn", gi, wantGI)
		bitsEqual(t, "Conv2DBackwardWS gradKernel", gk, wantGK)
	}
}
