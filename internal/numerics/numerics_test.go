package numerics

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestBF16RoundTripExact(t *testing.T) {
	// Values exactly representable in bfloat16 survive the round trip.
	for _, f := range []float32{0, 1, -1, 0.5, 2, -3, 1024, -0.25, 3.140625} {
		if got := RoundBF16(f); got != f {
			t.Errorf("RoundBF16(%v) = %v, want exact", f, got)
		}
	}
}

func TestBF16Rounding(t *testing.T) {
	// 1 + 2^-8 is exactly halfway between bfloat16 neighbors 1.0 and
	// 1+2^-7; round-to-nearest-even resolves to 1.0 (even mantissa).
	f := float32(1) + float32(1)/256
	if got := RoundBF16(f); got != 1 {
		t.Errorf("RoundBF16(1+2^-8) = %v, want 1 (round to even)", got)
	}
	// Slightly above the midpoint rounds up.
	f = float32(1) + float32(1)/256 + float32(1)/65536
	want := float32(1) + float32(1)/128
	if got := RoundBF16(f); got != want {
		t.Errorf("RoundBF16 above midpoint = %v, want %v", got, want)
	}
}

func TestBF16SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	if got := RoundBF16(inf); !IsInf32(got) || got < 0 {
		t.Errorf("RoundBF16(+Inf) = %v", got)
	}
	if got := RoundBF16(float32(math.Inf(-1))); !IsInf32(got) || got > 0 {
		t.Errorf("RoundBF16(-Inf) = %v", got)
	}
	nan := float32(math.NaN())
	if got := RoundBF16(nan); !IsNaN32(got) {
		t.Errorf("RoundBF16(NaN) = %v, want NaN", got)
	}
}

func TestBF16LargeValuesDoNotOverflowSpuriously(t *testing.T) {
	// bfloat16 shares float32's exponent range, so MaxFloat32 rounds to
	// +Inf only because its mantissa rounds up past the largest bf16.
	big := float32(3e38)
	got := RoundBF16(big)
	if IsNaN32(got) {
		t.Errorf("RoundBF16(3e38) = NaN")
	}
}

func TestIsNaNInfFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	if !IsNaN32(nan) || IsNaN32(1) {
		t.Error("IsNaN32 wrong")
	}
	if !IsInf32(inf) || IsInf32(1) || IsInf32(nan) {
		t.Error("IsInf32 wrong")
	}
	if IsFinite32(nan) || IsFinite32(inf) || !IsFinite32(42) {
		t.Error("IsFinite32 wrong")
	}
}

func TestHasNonFinite(t *testing.T) {
	if got := HasNonFinite([]float32{1, 2, 3}); got != -1 {
		t.Errorf("HasNonFinite finite slice = %d", got)
	}
	if got := HasNonFinite([]float32{1, float32(math.NaN()), 3}); got != 1 {
		t.Errorf("HasNonFinite NaN at 1 = %d", got)
	}
	if got := HasNonFinite([]float32{float32(math.Inf(-1))}); got != 0 {
		t.Errorf("HasNonFinite Inf at 0 = %d", got)
	}
	if got := HasNonFinite(nil); got != -1 {
		t.Errorf("HasNonFinite(nil) = %d", got)
	}
}

// TestHasNonFiniteKernel holds firstNonFinite to hasNonFiniteGo on every
// length 0 to 17 (the eight-float step, the four-float step and single
// floats in every mix) and 576 (the conv weight gradient): finite runs of
// ±0, subnormals and the largest finite magnitudes, which share bits with a
// non-finite value but not all eight exponent bits; then a NaN (quiet,
// signaling, negative) or an infinity of either sign at each position in
// turn, alone and with a second one behind it.
func TestHasNonFiniteKernel(t *testing.T) {
	finite := []uint32{0, 0x80000000, 0x00000001, 0x807fffff, 0x7f7fffff, 0xff7fffff, 0x3f800000, 0x00800000}
	bad := []uint32{0x7fc00000, 0x7f800001, 0xffc0beef, 0x7f800000, 0xff800000}
	for _, n := range append([]int{576}, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17) {
		xs := make([]float32, n)
		fill := func() {
			for i := range xs {
				xs[i] = math.Float32frombits(finite[(i*3+n)%len(finite)])
			}
		}
		check := func(what string) {
			t.Helper()
			if got, want := HasNonFinite(xs), hasNonFiniteGo(xs); got != want {
				t.Fatalf("length %d, %s: %d, the loop gives %d", n, what, got, want)
			}
		}
		fill()
		check("all finite")
		for i := 0; i < n; i++ {
			for j, b := range bad {
				fill()
				xs[i] = math.Float32frombits(b)
				check(fmt.Sprintf("%#08x at %d", b, i))
				xs[(i+1+j)%n] = math.Float32frombits(bad[(j+1)%len(bad)])
				check(fmt.Sprintf("%#08x at %d and another at %d", b, i, (i+1+j)%n))
			}
		}
	}
}

func TestFlipBit32(t *testing.T) {
	// Flipping the sign bit negates.
	if got := FlipBit32(1.5, 31); got != -1.5 {
		t.Errorf("sign flip of 1.5 = %v", got)
	}
	// Flipping bit 30 (top exponent bit) of 1.0 produces a huge value:
	// exponent 0x7f -> 0xff... actually 0x7f ^ 0x80 = 0xff -> Inf-adjacent.
	got := FlipBit32(1.0, 30)
	if !(IsNaN32(got) || IsInf32(got) || math.Abs(float64(got)) > 1e30) {
		t.Errorf("upper exponent flip of 1.0 = %v, want huge/non-finite", got)
	}
	// Double flip restores the original.
	if got := FlipBit32(FlipBit32(3.25, 7), 7); got != 3.25 {
		t.Errorf("double flip = %v, want 3.25", got)
	}
}

func TestFlipBit32Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FlipBit32(.., 32) did not panic")
		}
	}()
	FlipBit32(1, 32)
}

func TestIsUpperExponentBit(t *testing.T) {
	if !IsUpperExponentBit(30) || !IsUpperExponentBit(29) {
		t.Error("bits 30/29 should be upper exponent bits")
	}
	for _, pos := range []uint{0, 22, 23, 28, 31} {
		if IsUpperExponentBit(pos) {
			t.Errorf("bit %d wrongly classified as upper exponent", pos)
		}
	}
}

// TestExponentBits: float32's exponent field is bits 23–30, biased by 127,
// between the mantissa (bits 0–22) and the sign (bit 31): FlipBit32 at its
// lowest bit halves or doubles a normal value.
func TestExponentBits(t *testing.T) {
	for _, c := range []struct {
		f    float32
		pos  uint
		want float32
	}{
		{1.5, 23, 0.75},               // exponent 127 → 126
		{2, 23, 4},                    // exponent 128 → 129
		{1, 22, 1.5},                  // the mantissa's top bit
		{1, 30, float32(math.Inf(1))}, // exponent 127 → 255
		{2, 30, 0},                    // exponent 128 → 0
	} {
		if got := FlipBit32(c.f, c.pos); got != c.want {
			t.Errorf("FlipBit32(%v, %d) = %v, want %v", c.f, c.pos, got, c.want)
		}
	}
}

func TestQuickBF16MonotoneError(t *testing.T) {
	// Property: bf16 rounding error is bounded by half a ULP, i.e. the
	// relative error for normal values is <= 2^-8.
	f := func(raw uint32) bool {
		x := math.Float32frombits(raw)
		if !IsFinite32(x) || x == 0 {
			return true
		}
		if raw>>23&0xff == 0 { // skip subnormals: error bound differs
			return true
		}
		r := RoundBF16(x)
		if IsInf32(r) {
			// Rounding up past max bf16 is allowed near the top of range.
			return math.Abs(float64(x)) > 3.3e38
		}
		rel := math.Abs(float64(r-x)) / math.Abs(float64(x))
		return rel <= 1.0/256+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFlipBitInvolution(t *testing.T) {
	f := func(raw uint32, pos uint8) bool {
		p := uint(pos) % 32
		x := math.Float32frombits(raw)
		y := FlipBit32(FlipBit32(x, p), p)
		return math.Float32bits(x) == math.Float32bits(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRoundBF16(b *testing.B) {
	var acc float32
	for i := 0; i < b.N; i++ {
		acc += RoundBF16(float32(i) * 0.001)
	}
	_ = acc
}

func BenchmarkHasNonFinite(b *testing.B) {
	xs := make([]float32, 4096)
	for i := range xs {
		xs[i] = float32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if HasNonFinite(xs) != -1 {
			b.Fatal("unexpected non-finite")
		}
	}
}
