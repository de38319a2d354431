package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// The element-wise layer kernels against two oracles. TestElemKernelsBitwise
// holds each exported entry point — the assembly on amd64, the Go loop under
// -tags purego; ci.sh runs both — to the Go loop beside it, NaN payload for
// NaN payload: the two must take the same operand where two NaNs meet.
// FuzzElemOracle holds them to per-element loops that share no structure with
// either, on fuzzer-chosen shapes and bit patterns.

// elemNaNs returns four NaN patterns tagged with an operand position, two
// quiet and two signaling, one of each negative, so a result's payload says
// which operand it came from.
func elemNaNs(pos uint32) []uint32 {
	tag := pos << 8
	return []uint32{0x7fc00001 | tag, 0xffc000a0 | tag, 0x7f800001 | tag, 0xffa0000a | tag}
}

// fillElemOperand fills s with normals, the block specials (±0, subnormals,
// ±Inf) and NaNs tagged pos. With allNaN every element is a NaN, so every
// operation of every lane and tail meets NaNs on both sides.
func fillElemOperand(r *rng.Rand, s []float32, pos uint32, allNaN bool) {
	fillBlockOperand(r, s, elemNaNs(pos), allNaN)
}

// guarded returns a slice of n floats with guard elements behind it holding
// a pattern no kernel writes, and a check that they still do.
func guarded(t *testing.T, name string, n int) (s []float32, check func()) {
	const guard, pattern = 8, 0x7fdead00
	buf := make([]float32, n+guard)
	for i := range buf {
		buf[i] = math.Float32frombits(pattern)
	}
	return buf[:n:n], func() {
		t.Helper()
		for i, v := range buf[n:] {
			if math.Float32bits(v) != pattern {
				t.Fatalf("%s: element %d past the end overwritten with %#08x", name, i, math.Float32bits(v))
			}
		}
	}
}

func TestElemKernelsBitwise(t *testing.T) {
	r := rng.NewFromInt(20)
	for _, n := range []int{1, 2, 64} {
		for _, c := range []int{1, 3, 8} {
			for _, spatial := range []int{1, 3, 4, 36, 37, 2304} {
				for trial := 0; trial < 3; trial++ {
					elemKernelsCase(t, r, n, c, spatial, trial == 2)
				}
			}
		}
	}
}

func elemKernelsCase(t *testing.T, r *rng.Rand, n, c, spatial int, allNaN bool) {
	t.Helper()
	name := fmt.Sprintf("n=%d c=%d spatial=%d allNaN=%v", n, c, spatial, allNaN)
	total := n * c * spatial
	shaped := func(data []float32) *Tensor { return &Tensor{Shape: []int{n, c, spatial}, Data: data} }
	perChannel := func(pos uint32) []float32 {
		s := make([]float32, c)
		fillElemOperand(r, s, pos, allNaN)
		return s
	}
	x, dy := make([]float32, total), make([]float32, total)
	fillElemOperand(r, x, 0, allNaN)
	fillElemOperand(r, dy, 1, allNaN)
	sameMax := func(op string, got float32, want uint32) {
		t.Helper()
		if math.Float32bits(got) != want {
			t.Fatalf("%s %s: abs-max %#08x, want %#08x", op, name, math.Float32bits(got), want)
		}
	}

	// BatchNorm normalize, then its input gradient from the kernel's own xhat.
	mean, invStd, gamma, beta := perChannel(2), perChannel(3), perChannel(4), perChannel(5)
	out, checkOut := guarded(t, "NormalizeNCHW out "+name, total)
	xhat, checkXhat := guarded(t, "NormalizeNCHW xhat "+name, total)
	wantOut, wantXhat := make([]float32, total), make([]float32, total)
	wantMax := normalizeGo(wantOut, wantXhat, x, mean, invStd, gamma, beta, n, c, spatial)
	gotMax := NormalizeNCHW(shaped(out), shaped(xhat), shaped(x), mean, invStd, gamma, beta)
	sameBits(t, "NormalizeNCHW xhat "+name, xhat, wantXhat, true)
	sameBits(t, "NormalizeNCHW out "+name, out, wantOut, true)
	sameMax("NormalizeNCHW", gotMax, wantMax)
	checkOut()
	checkXhat()
	if sweep := absMaxBits(out, 0); sweep != wantMax {
		t.Fatalf("NormalizeNCHW %s: tracked abs-max %#08x, a sweep of the output gives %#08x", name, wantMax, sweep)
	}

	scale, meanDy, meanDyXhat := perChannel(6), perChannel(7), perChannel(8)
	dx, checkDx := guarded(t, "NormalizeBackwardNCHW "+name, total)
	wantDx := make([]float32, total)
	normalizeBackwardGo(wantDx, dy, xhat, scale, meanDy, meanDyXhat, n, c, spatial)
	NormalizeBackwardNCHW(shaped(dx), shaped(dy), shaped(xhat), scale, meanDy, meanDyXhat)
	sameBits(t, "NormalizeBackwardNCHW "+name, dx, wantDx, true)
	checkDx()

	// ReLU forward and backward: the mask is part of the contract.
	mask, wantMask := make([]uint32, total), make([]uint32, total)
	wantMax = reluForwardGo(wantOut, wantMask, x)
	gotMax = ReLUForward(out, mask, x)
	sameBits(t, "ReLUForward "+name, out, wantOut, true)
	sameMax("ReLUForward", gotMax, wantMax)
	for i := range mask {
		if mask[i] != wantMask[i] {
			t.Fatalf("ReLUForward %s: mask[%d] for x=%#08x is %#08x, want %#08x", name, i, math.Float32bits(x[i]), mask[i], wantMask[i])
		}
	}
	checkOut()
	reluBackwardGo(wantDx, dy, wantMask)
	ReLUBackward(dx, dy, mask)
	sameBits(t, "ReLUBackward "+name, dx, wantDx, true)
	checkDx()

	// The bias add: whole, and as two chunks that split inside a batch
	// element, so the second starts at a channel other than 0.
	bias := perChannel(9)
	acc, checkAcc := guarded(t, "addBiasRows "+name, total)
	copy(acc, x)
	copy(wantOut, x)
	addBiasRowsGo(wantOut, bias, c, spatial, 0, n*c)
	addBiasRows(acc, bias, c, spatial, 0, n*c)
	sameBits(t, "addBiasRows "+name, acc, wantOut, true)
	copy(acc, x)
	split := (n*c + 1) / 2
	addBiasRows(acc, bias, c, spatial, split, n*c)
	addBiasRows(acc, bias, c, spatial, 0, split)
	sameBits(t, "addBiasRows in two chunks "+name, acc, wantOut, true)
	copy(acc, x)
	addBias(acc, bias, n, c, spatial)
	sameBits(t, "addBias "+name, acc, wantOut, true)
	checkAcc()
}

// TestElemBoundsPanics: the kernels take addresses, so every extent is
// checked, with a message naming the operation, before one is formed.
func TestElemBoundsPanics(t *testing.T) {
	x, out, xhat := New(2, 3, 4), New(2, 3, 4), New(2, 3, 4)
	short := &Tensor{Shape: []int{2, 3, 4}, Data: make([]float32, 23)}
	flat := New(24)
	c3, c2 := make([]float32, 3), make([]float32, 2)
	mustPanicWith(t, "NormalizeNCHW operand holds 23 elements, need 24", func() { NormalizeNCHW(short, xhat, x, c3, c3, c3, c3) })
	mustPanicWith(t, "NormalizeNCHW operand holds 23 elements, need 24", func() { NormalizeNCHW(out, short, x, c3, c3, c3, c3) })
	mustPanicWith(t, "NormalizeNCHW shape [2 3 4] does not describe 23 elements", func() { NormalizeNCHW(out, xhat, short, c3, c3, c3, c3) })
	mustPanicWith(t, "NormalizeNCHW requires rank ≥ 2", func() { NormalizeNCHW(flat, flat, flat, c3, c3, c3, c3) })
	for i := 0; i < 4; i++ {
		pc := [4][]float32{c3, c3, c3, c3}
		pc[i] = c2
		mustPanicWith(t, "NormalizeNCHW per-channel operand holds 2 elements for 3 channels", func() {
			NormalizeNCHW(out, xhat, x, pc[0], pc[1], pc[2], pc[3])
		})
	}
	mustPanicWith(t, "NormalizeBackwardNCHW operand holds 23 elements, need 24", func() { NormalizeBackwardNCHW(out, short, xhat, c3, c3, c3) })
	mustPanicWith(t, "NormalizeBackwardNCHW operand holds 23 elements, need 24", func() { NormalizeBackwardNCHW(out, x, short, c3, c3, c3) })
	mustPanicWith(t, "NormalizeBackwardNCHW shape [2 3 4] does not describe 23 elements", func() { NormalizeBackwardNCHW(short, x, xhat, c3, c3, c3) })
	for i := 0; i < 3; i++ {
		pc := [3][]float32{c3, c3, c3}
		pc[i] = c2
		mustPanicWith(t, "NormalizeBackwardNCHW per-channel operand holds 2 elements for 3 channels", func() {
			NormalizeBackwardNCHW(out, x, xhat, pc[0], pc[1], pc[2])
		})
	}

	f24, f23, m24, m23 := make([]float32, 24), make([]float32, 23), make([]uint32, 24), make([]uint32, 23)
	mustPanicWith(t, "ReLUForward output and mask hold 23 and 24 elements, need 24", func() { ReLUForward(f23, m24, f24) })
	mustPanicWith(t, "ReLUForward output and mask hold 24 and 23 elements, need 24", func() { ReLUForward(f24, m23, f24) })
	mustPanicWith(t, "ReLUBackward input gradient and mask hold 23 and 24 elements, need 24", func() { ReLUBackward(f23, f24, m24) })
	mustPanicWith(t, "ReLUBackward input gradient and mask hold 24 and 23 elements, need 24", func() { ReLUBackward(f24, f24, m23) })
	if got := ReLUForward(nil, nil, nil); got != 0 {
		t.Fatalf("ReLUForward of nothing returned %v", got)
	}
	ReLUBackward(nil, nil, nil)

	mustPanicWith(t, "bias add over rows [0,6) of 3×4 floats reaches past 23 elements or 3 biases", func() { addBiasRows(f23, c3, 3, 4, 0, 6) })
	mustPanicWith(t, "bias add over rows [0,6) of 3×4 floats reaches past 24 elements or 2 biases", func() { addBiasRows(f24, c2, 3, 4, 0, 6) })
	mustPanicWith(t, "bias add over rows [-1,6)", func() { addBiasRows(f24, c3, 3, 4, -1, 6) })
	mustPanicWith(t, "bias add over rows [0,6) of 0×4", func() { addBiasRows(f24, c3, 0, 4, 0, 6) })
	addBiasRows(f24, c3, 3, 4, 6, 6) // no rows: nothing to do
	mustPanicWith(t, "AddBiasNCHW bias has 2 elements for 3 channels", func() { AddBiasNCHW(x, FromSlice(c2, 2)) })
	mustPanicWith(t, "addBlocks destination needs 6 elements", func() { addBias(f24[:5], c3, 2, 3, 1) })
}

// FuzzElemOracle: the five element-wise kernels, through their exported entry
// points, against one-element-at-a-time loops with their own index
// arithmetic, on a fuzzer-chosen [n, c, spatial] and fuzzer-chosen bit
// patterns in every operand. NaN results only have to be NaN — the oracle's
// payload choice belongs to the compiler — but the ReLU pair and the masks
// move bits and must match exactly. The abs-max a kernel returns is held to
// a per-element maximum over the output it wrote, and AddBiasNCHWEp's sum to
// Tensor.Sum of its output.
func FuzzElemOracle(f *testing.F) {
	f.Add(uint8(1), uint8(7), uint8(35), uint8(3), []byte{0, 0, 0x80, 0x3f, 0xdb, 0x0f, 0x49, 0xc0, 1, 0, 0, 0, 0, 0, 0xc0, 0x7f, 0xff, 0xff, 0x7f, 0x80})
	f.Add(uint8(3), uint8(2), uint8(0), uint8(1), []byte{0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x40, 0, 0, 0x80, 0xff})
	f.Add(uint8(0), uint8(4), uint8(36), uint8(2), []byte{0xdb, 0x0f, 0x49, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x01, 0, 0x80, 0x7f, 0x01, 0, 0xa0, 0xff})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, nRaw, cRaw, spRaw, splitRaw uint8, raw []byte) {
		n, c, spatial := int(nRaw)%4+1, int(cRaw)%9+1, int(spRaw)%41+1
		total := n * c * spatial
		if len(raw) > 1<<12 {
			raw = raw[:1<<12]
		}
		at := 0
		fill := func(k int) []float32 {
			dst := make([]float32, k)
			for i := range dst {
				var bits uint32
				for s := 0; s < 32 && len(raw) > 0; s += 8 {
					bits |= uint32(raw[at%len(raw)]) << s
					at++
				}
				dst[i] = math.Float32frombits(bits)
			}
			return dst
		}
		shape := []int{n, c, spatial}
		if spatial == 1 {
			shape = shape[:2] // Dense's [B, Out]
		}
		shaped := func(data []float32) *Tensor { return &Tensor{Shape: shape, Data: data} }
		naiveMax := func(s []float32) (m uint32) {
			for _, v := range s {
				if b := math.Float32bits(v) &^ (1 << 31); b > m {
					m = b
				}
			}
			return m
		}
		x, dy := fill(total), fill(total)
		mean, invStd, gamma, beta := fill(c), fill(c), fill(c), fill(c)
		scale, meanDy, meanDyXhat, bias := fill(c), fill(c), fill(c), fill(c)

		out, xhat, dx := make([]float32, total), make([]float32, total), make([]float32, total)
		gotMax := NormalizeNCHW(shaped(out), shaped(xhat), shaped(x), mean, invStd, gamma, beta)
		NormalizeBackwardNCHW(shaped(dx), shaped(dy), shaped(xhat), scale, meanDy, meanDyXhat)
		want, wantXhat, wantDx := make([]float32, total), make([]float32, total), make([]float32, total)
		for b := 0; b < n; b++ {
			for ch := 0; ch < c; ch++ {
				for i := 0; i < spatial; i++ {
					at := (b*c+ch)*spatial + i
					xh := (x[at] - mean[ch]) * invStd[ch]
					wantXhat[at] = xh
					want[at] = gamma[ch]*xh + beta[ch]
					wantDx[at] = scale[ch] * (dy[at] - meanDy[ch] - xhat[at]*meanDyXhat[ch])
				}
			}
		}
		sameBits(t, "NormalizeNCHW xhat", xhat, wantXhat, false)
		sameBits(t, "NormalizeNCHW out", out, want, false)
		sameBits(t, "NormalizeBackwardNCHW", dx, wantDx, false)
		if m := naiveMax(out); math.Float32bits(gotMax) != m {
			t.Fatalf("NormalizeNCHW abs-max %#08x, the output's is %#08x", math.Float32bits(gotMax), m)
		}

		mask := make([]uint32, total)
		gotMax = ReLUForward(out, mask, x)
		ReLUBackward(dx, dy, mask)
		for i, v := range x {
			want[i], wantDx[i] = 0, 0
			var wantMask uint32
			if v > 0 {
				want[i], wantDx[i], wantMask = v, dy[i], 0xffffffff
			}
			if mask[i] != wantMask {
				t.Fatalf("ReLUForward mask[%d] for x=%#08x is %#08x, want %#08x", i, math.Float32bits(v), mask[i], wantMask)
			}
		}
		sameBits(t, "ReLUForward", out, want, true)
		sameBits(t, "ReLUBackward", dx, wantDx, true)
		if m := naiveMax(out); math.Float32bits(gotMax) != m {
			t.Fatalf("ReLUForward abs-max %#08x, the output's is %#08x", math.Float32bits(gotMax), m)
		}

		for b := 0; b < n; b++ {
			for ch := 0; ch < c; ch++ {
				for i := 0; i < spatial; i++ {
					want[(b*c+ch)*spatial+i] = x[(b*c+ch)*spatial+i] + bias[ch]
				}
			}
		}
		copy(out, x)
		AddBiasNCHW(shaped(out), FromSlice(bias, c))
		sameBits(t, "AddBiasNCHW", out, want, false)
		copy(out, x)
		sum, absMax := AddBiasNCHWEp(shaped(out), FromSlice(bias, c))
		sameBits(t, "AddBiasNCHWEp", out, want, false)
		if m := naiveMax(out); math.Float32bits(absMax) != m {
			t.Fatalf("AddBiasNCHWEp abs-max %#08x, the output's is %#08x", math.Float32bits(absMax), m)
		}
		if s := shaped(out).Sum(); math.Float64bits(sum) != math.Float64bits(s) {
			t.Fatalf("AddBiasNCHWEp sum %v, Tensor.Sum of the output %v", sum, s)
		}
		// The pool's chunking: rows [split, n·c) start at a channel other than 0.
		split := int(splitRaw) % (n*c + 1)
		copy(out, x)
		addBiasRows(out, bias, c, spatial, split, n*c)
		addBiasRows(out, bias, c, spatial, 0, split)
		sameBits(t, "addBiasRows in two chunks", out, want, false)
	})
}
