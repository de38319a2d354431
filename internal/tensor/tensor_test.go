package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewAndIndexing(t *testing.T) {
	a := New(2, 3)
	if a.Len() != 6 {
		t.Fatalf("Len = %d", a.Len())
	}
	a.Set(5, 1, 2)
	if a.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v", a.At(1, 2))
	}
	if a.At(0, 0) != 0 {
		t.Fatal("fresh tensor not zeroed")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(2, 0) did not panic")
		}
	}()
	New(2, 0)
}

func TestIndexPanics(t *testing.T) {
	a := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", idx)
				}
			}()
			a.At(idx...)
		}()
	}
}

func TestFromSlice(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if a.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", a.At(1, 0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched FromSlice did not panic")
		}
	}()
	FromSlice([]float32{1}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(42, 0, 0)
	if a.At(0, 0) != 42 {
		t.Fatal("Reshape does not share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape did not panic")
		}
	}()
	a.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{10, 20, 30}, 3)
	a.AddInPlace(b)
	if a.Data[2] != 33 {
		t.Fatalf("AddInPlace: %v", a.Data)
	}
	a.Scale(0.5)
	if a.Data[1] != 11 {
		t.Fatalf("Scale: %v", a.Data)
	}
	a.AxpyInPlace(2, b)
	if a.Data[0] != 5.5+20 {
		t.Fatalf("Axpy: %v", a.Data)
	}
}

func TestSumAbsMax(t *testing.T) {
	a := FromSlice([]float32{1, -5, 3}, 3)
	if a.Sum() != -1 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.AbsMax() != 5 {
		t.Fatalf("AbsMax = %v", a.AbsMax())
	}
	nan := FromSlice([]float32{1, float32(math.NaN())}, 2)
	if !math.IsNaN(float64(nan.AbsMax())) {
		t.Fatal("AbsMax should propagate NaN")
	}
}

func TestFirstNonFinite(t *testing.T) {
	a := FromSlice([]float32{1, 2, float32(math.Inf(1))}, 3)
	if a.FirstNonFinite() != 2 {
		t.Fatalf("FirstNonFinite = %d", a.FirstNonFinite())
	}
	b := New(4)
	if b.FirstNonFinite() != -1 {
		t.Fatal("zero tensor should be finite")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched MatMul did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulMixedCloseToExact(t *testing.T) {
	r := rng.NewFromInt(7)
	a := New(8, 16)
	b := New(16, 8)
	a.FillNormal(r, 0, 1)
	b.FillNormal(r, 0, 1)
	exact := MatMul(a, b)
	mixed := MatMulMixed(a, b)
	for i := range exact.Data {
		diff := math.Abs(float64(exact.Data[i] - mixed.Data[i]))
		scale := math.Abs(float64(exact.Data[i])) + 1
		if diff/scale > 0.05 {
			t.Fatalf("mixed precision diverged at %d: %v vs %v", i, mixed.Data[i], exact.Data[i])
		}
	}
}

func TestMatMulMixedActuallyRounds(t *testing.T) {
	// 1 + 2^-10 is not representable in bfloat16; a mixed MAC must lose it.
	a := FromSlice([]float32{1 + 1.0/1024}, 1, 1)
	b := FromSlice([]float32{1}, 1, 1)
	mixed := MatMulMixed(a, b)
	if mixed.Data[0] != 1 {
		t.Fatalf("MatMulMixed did not round through bfloat16: %v", mixed.Data[0])
	}
	exact := MatMul(a, b)
	if exact.Data[0] == 1 {
		t.Fatal("FP32 MatMul should keep full precision")
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose2D(a)
	if at.Shape[0] != 3 || at.Shape[1] != 2 {
		t.Fatalf("shape = %v", at.Shape)
	}
	if at.At(2, 1) != a.At(1, 2) {
		t.Fatal("transpose wrong")
	}
}

func TestConvOutSize(t *testing.T) {
	p := ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}
	oh, ow := p.OutSize(8, 8)
	if oh != 8 || ow != 8 {
		t.Fatalf("same-padding conv out = %dx%d", oh, ow)
	}
	p2 := ConvParams{KH: 2, KW: 2, Stride: 2, Padding: 0}
	oh, ow = p2.OutSize(8, 8)
	if oh != 4 || ow != 4 {
		t.Fatalf("stride-2 conv out = %dx%d", oh, ow)
	}
}

// naiveConv is an independent direct-loop reference implementation.
func naiveConv(in, kernel *Tensor, p ConvParams) *Tensor {
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	k := kernel.Shape[0]
	oh, ow := p.OutSize(h, w)
	out := New(n, k, oh, ow)
	for b := 0; b < n; b++ {
		for kk := 0; kk < k; kk++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					for ch := 0; ch < c; ch++ {
						for kh := 0; kh < p.KH; kh++ {
							for kw := 0; kw < p.KW; kw++ {
								iy := oy*p.Stride + kh - p.Padding
								ix := ox*p.Stride + kw - p.Padding
								if iy < 0 || iy >= h || ix < 0 || ix >= w {
									continue
								}
								acc += in.At(b, ch, iy, ix) * kernel.At(kk, ch, kh, kw)
							}
						}
					}
					out.Set(acc, b, kk, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	r := rng.NewFromInt(11)
	in := New(2, 3, 5, 5)
	kernel := New(4, 3, 3, 3)
	in.FillNormal(r, 0, 1)
	kernel.FillNormal(r, 0, 0.5)
	p := ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}
	got := Conv2D(in, kernel, p, false)
	want := naiveConv(in, kernel, p)
	if !got.SameShape(want) {
		t.Fatalf("shape %v vs %v", got.Shape, want.Shape)
	}
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("Conv2D[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestConv2DStride2MatchesNaive(t *testing.T) {
	r := rng.NewFromInt(12)
	in := New(1, 2, 6, 6)
	kernel := New(3, 2, 2, 2)
	in.FillNormal(r, 0, 1)
	kernel.FillNormal(r, 0, 1)
	p := ConvParams{KH: 2, KW: 2, Stride: 2, Padding: 0}
	got := Conv2D(in, kernel, p, false)
	want := naiveConv(in, kernel, p)
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("stride-2 Conv2D[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestConv2DBackwardNumerical checks both gradients against central finite
// differences of a scalar loss L = sum(conv(in, kernel)).
func TestConv2DBackwardNumerical(t *testing.T) {
	r := rng.NewFromInt(13)
	in := New(1, 2, 4, 4)
	kernel := New(2, 2, 3, 3)
	in.FillNormal(r, 0, 1)
	kernel.FillNormal(r, 0, 0.5)
	p := ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}

	out := Conv2D(in, kernel, p, false)
	gradOut := New(out.Shape...)
	gradOut.Fill(1) // dL/dout = 1 for L = sum(out)
	gradIn, gradK := Conv2DBackward(in, kernel, gradOut, p, false)

	const eps = 1e-2
	sumConv := func() float64 {
		return Conv2D(in, kernel, p, false).Sum()
	}
	// Check a sample of input gradient entries.
	for _, idx := range []int{0, 5, 17, 31} {
		orig := in.Data[idx]
		in.Data[idx] = orig + eps
		up := sumConv()
		in.Data[idx] = orig - eps
		down := sumConv()
		in.Data[idx] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-float64(gradIn.Data[idx])) > 1e-2 {
			t.Errorf("gradIn[%d] = %v, numeric %v", idx, gradIn.Data[idx], numeric)
		}
	}
	// Check a sample of kernel gradient entries.
	for _, idx := range []int{0, 7, 20, 35} {
		orig := kernel.Data[idx]
		kernel.Data[idx] = orig + eps
		up := sumConv()
		kernel.Data[idx] = orig - eps
		down := sumConv()
		kernel.Data[idx] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-float64(gradK.Data[idx])) > 1e-2 {
			t.Errorf("gradK[%d] = %v, numeric %v", idx, gradK.Data[idx], numeric)
		}
	}
}

// scalarIm2Col / scalarCol2Im are the per-element definition of the lowering
// — clip every (iy, ix) against the image, one element at a time — and the
// bitwise reference for the padded-plane block kernels (lowering_test.go).
func scalarIm2Col(in *Tensor, p ConvParams) *Tensor {
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := p.OutSize(h, w)
	cols := New(c*p.KH*p.KW, n*oh*ow)
	colW := n * oh * ow
	for ch := 0; ch < c; ch++ {
		for kh := 0; kh < p.KH; kh++ {
			for kw := 0; kw < p.KW; kw++ {
				dst := cols.Data[((ch*p.KH+kh)*p.KW+kw)*colW:]
				for b := 0; b < n; b++ {
					for oy := 0; oy < oh; oy++ {
						iy := oy*p.Stride + kh - p.Padding
						for ox := 0; ox < ow; ox++ {
							ix := ox*p.Stride + kw - p.Padding
							var v float32
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								v = in.Data[((b*c+ch)*h+iy)*w+ix]
							}
							dst[(b*oh+oy)*ow+ox] = v
						}
					}
				}
			}
		}
	}
	return cols
}

func scalarCol2Im(cols *Tensor, n, c, h, w int, p ConvParams) *Tensor {
	out := New(n, c, h, w)
	oh, ow := p.OutSize(h, w)
	colW := n * oh * ow
	for ch := 0; ch < c; ch++ {
		for kh := 0; kh < p.KH; kh++ {
			for kw := 0; kw < p.KW; kw++ {
				src := cols.Data[((ch*p.KH+kh)*p.KW+kw)*colW:]
				for b := 0; b < n; b++ {
					for oy := 0; oy < oh; oy++ {
						iy := oy*p.Stride + kh - p.Padding
						if iy < 0 || iy >= h {
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*p.Stride + kw - p.Padding
							if ix < 0 || ix >= w {
								continue
							}
							out.Data[((b*c+ch)*h+iy)*w+ix] += src[(b*oh+oy)*ow+ox]
						}
					}
				}
			}
		}
	}
	return out
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint property that
	// makes the backward pass correct.
	r := rng.NewFromInt(14)
	p := ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}
	x := New(1, 2, 4, 4)
	x.FillNormal(r, 0, 1)
	cols := Im2Col(x, p)
	y := New(cols.Shape...)
	y.FillNormal(r, 0, 1)

	var lhs float64
	for i := range cols.Data {
		lhs += float64(cols.Data[i]) * float64(y.Data[i])
	}
	folded := Col2Im(y, 1, 2, 4, 4, p)
	var rhs float64
	for i := range x.Data {
		rhs += float64(x.Data[i]) * float64(folded.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-3*math.Abs(lhs)+1e-3 {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestChannelMoments(t *testing.T) {
	// Channel 0 all 2s → mean 2, var 0. Channel 1 is {0,4} repeated → mean 2, var 4.
	in := New(2, 2, 1, 2)
	for b := 0; b < 2; b++ {
		in.Set(2, b, 0, 0, 0)
		in.Set(2, b, 0, 0, 1)
		in.Set(0, b, 1, 0, 0)
		in.Set(4, b, 1, 0, 1)
	}
	mean, variance := make([]float32, 2), make([]float32, 2)
	ChannelMoments(in, mean, variance)
	if mean[0] != 2 || variance[0] != 0 {
		t.Fatalf("channel 0 moments = %v, %v", mean[0], variance[0])
	}
	if mean[1] != 2 || variance[1] != 4 {
		t.Fatalf("channel 1 moments = %v, %v", mean[1], variance[1])
	}
}

func TestQuickMatMulLinearity(t *testing.T) {
	// (A + A') × B == A×B + A'×B for random small matrices.
	f := func(seed int64) bool {
		r := rng.NewFromInt(seed)
		a1 := New(3, 4)
		a2 := New(3, 4)
		b := New(4, 2)
		a1.FillNormal(r, 0, 1)
		a2.FillNormal(r, 0, 1)
		b.FillNormal(r, 0, 1)
		sum := a1.Clone()
		sum.AddInPlace(a2)
		left := MatMul(sum, b)
		right := MatMul(a1, b)
		right.AddInPlace(MatMul(a2, b))
		for i := range left.Data {
			if math.Abs(float64(left.Data[i]-right.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.NewFromInt(seed)
		a := New(3, 5)
		a.FillNormal(r, 0, 1)
		b := Transpose2D(Transpose2D(a))
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := rng.NewFromInt(1)
	x := New(64, 64)
	y := New(64, 64)
	x.FillNormal(r, 0, 1)
	y.FillNormal(r, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(x, y)
	}
}

func BenchmarkMatMulMixed64(b *testing.B) {
	r := rng.NewFromInt(1)
	x := New(64, 64)
	y := New(64, 64)
	x.FillNormal(r, 0, 1)
	y.FillNormal(r, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMulMixed(x, y)
	}
}

func BenchmarkConv2D(b *testing.B) {
	r := rng.NewFromInt(1)
	in := New(4, 8, 8, 8)
	kernel := New(16, 8, 3, 3)
	in.FillNormal(r, 0, 1)
	kernel.FillNormal(r, 0, 1)
	p := ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Conv2D(in, kernel, p, false)
	}
}
