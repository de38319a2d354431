package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// The convolution lowering against its per-element definition.
// TestBlockKernelsBitwise holds moveBlocks / addBlocks — the assembly on amd64,
// the Go loops under -tags purego; ci.sh runs both — to element-at-a-time
// loops over every vector-tail length. TestLoweringBitwise and
// FuzzLoweringOracle hold Im2Col / Col2Im built on them to scalarIm2Col /
// scalarCol2Im (tensor_test.go), which clip instead of padding and share no
// structure with the production code, and a stride-1 lowering's one-call tap
// walk to tapByTapIm2Col / tapByTapCol2Im, one block move or add per tap.

// blockSpecials are the values a block kernel must carry or add exactly:
// ±0, subnormals, ±Inf. NaNs come from gemmNaNsA (accumulator side) and
// gemmNaNsB (addend side), disjoint payload sets with signaling members.
var blockSpecials = append(append([]uint32{0x00000000, 0x80000000}, gemmSubnormals...), gemmInfs...)

// fillBlockOperand fills s with normals, specials and NaNs from nans. With
// allNaN every element is a NaN, so every lane of every tail adds two NaNs.
func fillBlockOperand(r *rng.Rand, s []float32, nans []uint32, allNaN bool) {
	for i := range s {
		switch k := r.Intn(4); {
		case allNaN || k == 0:
			s[i] = math.Float32frombits(nans[r.Intn(len(nans))])
		case k == 1:
			s[i] = math.Float32frombits(blockSpecials[r.Intn(len(blockSpecials))])
		default:
			s[i] = float32(r.NormFloat64())
		}
	}
}

func TestBlockKernelsBitwise(t *testing.T) {
	colsSet := []int{36, 72}
	for c := 0; c <= 17; c++ { // every vector-tail length, and the narrow rows
		colsSet = append(colsSet, c)
	}
	r := rng.NewFromInt(41)
	for rows := 0; rows <= 9; rows++ {
		for _, cols := range colsSet {
			// Row strides: unequal on the two sides, either one tight. Block
			// steps: blocks apart (0 extra), and interleaved — the next block
			// starts one row down, as in the NCHW↔matrix rearrangement.
			for _, st := range [][2]int{{cols, cols + 3}, {cols + 5, cols}, {cols + 1, cols + 2}} {
				for n := 0; n <= 3; n++ {
					sh := blockShape{n: n, rows: rows, cols: cols, dstStride: st[0], srcStride: st[1]}
					sh.dstBlock, sh.srcBlock = rows*sh.dstStride+1, rows*sh.srcStride+2
					if n == 3 {
						sh.dstStride *= n
						sh.dstBlock = st[0]
					}
					for trial := 0; trial < 3; trial++ {
						// Two guard elements past each side: a last vector
						// that stores too wide lands in them.
						dst := make([]float32, max(sh.extent(sh.dstBlock, sh.dstStride), 0)+2)
						src := make([]float32, max(sh.extent(sh.srcBlock, sh.srcStride), 0)+2)
						fillBlockOperand(r, dst, gemmNaNsA, trial == 2)
						fillBlockOperand(r, src, gemmNaNsB, trial == 2)
						name := fmt.Sprintf("%+v trial %d", sh, trial)

						want := append([]float32(nil), dst...)
						got := append([]float32(nil), dst...)
						eachBlockElement(sh, func(d, s int) { want[d] = src[s] })
						moveBlocks(got, src, &sh)
						sameBits(t, "moveBlocks "+name, got, want, true)

						want = append(want[:0], dst...)
						got = append(got[:0], dst...)
						eachBlockElement(sh, func(d, s int) { want[d] += src[s] })
						addBlocks(got, src, &sh)
						sameBits(t, "addBlocks "+name, got, want, true)
					}
				}
			}
		}
	}
}

// TestAddInPlaceBitwise: AddInPlace is one row of addBlocks, and must still
// be the element-at-a-time `t[i] += u[i]` bit for bit — every vector-tail
// length, NaNs from disjoint payload sets on the two sides (sparse, then in
// every element), and t added to itself. Zero and Fill(0) clear through the
// runtime and must leave +0 everywhere and the dirty flag down. The add
// runs on blockTapsAVX, as the lowering does (TestLoweringBitwise).
func TestAddInPlaceBitwise(t *testing.T) {
	r := rng.NewFromInt(91)
	lengths := []int{36, 576}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, allNaN := range []bool{false, true} {
			acc := &Tensor{Shape: []int{n}, Data: make([]float32, n)}
			u := &Tensor{Shape: []int{n}, Data: make([]float32, n)}
			fillBlockOperand(r, acc.Data, gemmNaNsA, allNaN)
			fillBlockOperand(r, u.Data, gemmNaNsB, allNaN)
			want := append([]float32(nil), acc.Data...)
			for i := range want {
				want[i] += u.Data[i]
			}
			acc.AddInPlace(u)
			sameBits(t, fmt.Sprintf("AddInPlace n=%d allNaN=%v", n, allNaN), acc.Data, want, true)

			for i := range want {
				want[i] += want[i]
			}
			acc.AddInPlace(acc)
			sameBits(t, fmt.Sprintf("AddInPlace(self) n=%d allNaN=%v", n, allNaN), acc.Data, want, true)

			acc.MarkDirty()
			acc.Zero()
			for i, v := range acc.Data {
				if math.Float32bits(v) != 0 {
					t.Fatalf("Zero n=%d: element %d = %#08x", n, i, math.Float32bits(v))
				}
			}
			if acc.Dirty() {
				t.Fatalf("Zero n=%d left the dirty flag up", n)
			}
		}
	}
	negZero := float32(math.Copysign(0, -1))
	x := New(5)
	x.Fill(negZero)
	if math.Float32bits(x.Data[4]) != 0x80000000 {
		t.Fatalf("Fill(-0) wrote %#08x", math.Float32bits(x.Data[4]))
	}
}

// eachBlockElement visits the destination and source offsets of every element
// of sh, one at a time, in block, row, column order.
func eachBlockElement(sh blockShape, fn func(d, s int)) {
	for i := 0; i < sh.n; i++ {
		for r := 0; r < sh.rows; r++ {
			for j := 0; j < sh.cols; j++ {
				fn(i*sh.dstBlock+r*sh.dstStride+j, i*sh.srcBlock+r*sh.srcStride+j)
			}
		}
	}
}

// loweringCases are the geometries of TestLoweringBitwise: edge spans wider
// than the kernel offset, kernels wider than the image, asymmetric H/W, 1×1
// kernels with padding (whole rows of the matrix are padding), strides that
// do and do not divide the padded extent, and the campaign's own shape.
var loweringCases = []struct {
	n, c, h, w int
	p          ConvParams
}{
	{2, 3, 5, 5, ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}},
	{1, 2, 4, 7, ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 2}},
	{1, 1, 3, 3, ConvParams{KH: 5, KW: 5, Stride: 1, Padding: 2}},
	{1, 2, 6, 2, ConvParams{KH: 1, KW: 1, Stride: 1, Padding: 1}},
	{1, 1, 1, 1, ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}},
	{2, 8, 6, 6, ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}}, // the campaign shape
	{2, 2, 6, 6, ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 0}},
	{1, 2, 4, 4, ConvParams{KH: 2, KW: 2, Stride: 1, Padding: 3}}, // padding ≥ kernel
	{2, 1, 5, 9, ConvParams{KH: 2, KW: 4, Stride: 1, Padding: 1}}, // non-square kernel
	{1, 3, 7, 4, ConvParams{KH: 4, KW: 1, Stride: 1, Padding: 2}},
	{2, 3, 6, 6, ConvParams{KH: 3, KW: 3, Stride: 2, Padding: 1}},
	{1, 2, 7, 8, ConvParams{KH: 3, KW: 2, Stride: 2, Padding: 0}},
	{2, 2, 9, 7, ConvParams{KH: 3, KW: 3, Stride: 3, Padding: 1}},
	{1, 1, 8, 8, ConvParams{KH: 2, KW: 2, Stride: 3, Padding: 2}},
	{3, 4, 16, 16, ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}}, // 16-wide rows: vector steps only
	// Tap sets of 1, 9, 72 and at least 400 taps, with rows narrower than a
	// vector and paddings 0 to 2.
	{2, 1, 5, 3, ConvParams{KH: 1, KW: 1, Stride: 1, Padding: 0}},
	{1, 1, 4, 4, ConvParams{KH: 1, KW: 1, Stride: 1, Padding: 2}},
	{1, 1, 5, 2, ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}},
	{2, 8, 5, 3, ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 0}},
	{2, 48, 4, 3, ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}},
	{1, 16, 6, 6, ConvParams{KH: 5, KW: 5, Stride: 1, Padding: 2}},
}

// TestLoweringBitwise pins Im2Col and Col2Im, through the allocating entry
// points and through a reused (and poisoned) Workspace, to the per-element
// oracles. The inputs carry every special value; col2im sums them, so NaNs of
// different payloads meet in the overlaps.
func TestLoweringBitwise(t *testing.T) {
	r := rng.NewFromInt(15)
	ws := NewWorkspace()
	for _, tc := range loweringCases {
		name := fmt.Sprintf("%dx%dx%dx%d %+v", tc.n, tc.c, tc.h, tc.w, tc.p)
		in := New(tc.n, tc.c, tc.h, tc.w)
		fillBlockOperand(r, in.Data, gemmNaNsA, false)
		want := scalarIm2Col(in, tc.p)
		bitsEqual(t, "Im2Col "+name, Im2Col(in, tc.p), want)

		y := New(want.Shape...)
		fillBlockOperand(r, y.Data, gemmNaNsB, false)
		wantIm := scalarCol2Im(y, tc.n, tc.c, tc.h, tc.w, tc.p)
		bitsEqual(t, "Col2Im "+name, Col2Im(y, tc.n, tc.c, tc.h, tc.w, tc.p), wantIm)
		if tc.p.Stride == 1 {
			bitsEqual(t, "tapByTapIm2Col "+name, tapByTapIm2Col(in, tc.p), want)
			bitsEqual(t, "tapByTapCol2Im "+name, tapByTapCol2Im(y, tc.n, tc.c, tc.h, tc.w, tc.p), wantIm)
		}

		// The same through workspace-owned staging planes that the previous
		// case left at another size and Reset has filled with NaNs: borders
		// must be re-zeroed, not inherited.
		ws.Reset()
		bitsEqual(t, "im2col(ws) "+name, im2col(ws, New(want.Shape...), in, tc.p), want)
		gin := New(tc.n, tc.c, tc.h, tc.w)
		gin.Fill(float32(math.NaN()))
		bitsEqual(t, "col2im(ws) "+name, col2im(ws, gin, y, tc.p), wantIm)
	}
}

// TestCol2ImNaNOrder lands three NaNs of different payloads — the first one
// signaling — on one input position of the last channel through three
// different kernel taps. The sum keeps the payload of the first tap in (kh,kw)
// order, quieted: the accumulator is the add's first operand, and taps are
// folded in ascending order. An add with its operands swapped, or taps taken
// in another order, ends on another payload. The tap sets hold 9, 72 and 405
// taps, the rows 6 floats, 2 and 8, the padding 1, 0 and 2.
func TestCol2ImNaNOrder(t *testing.T) {
	for _, tc := range []struct{ c, w, pad int }{{1, 6, 1}, {8, 4, 0}, {45, 6, 2}} {
		p := ConvParams{KH: 3, KW: 3, Stride: 1, Padding: tc.pad}
		n, c, h, w := 1, tc.c, 6, tc.w
		oh, ow := p.OutSize(h, w)
		y := New(c*p.KH*p.KW, n*oh*ow)
		y.Fill(1)
		// Input position (2,2) is fed by tap (kh,kw) from output
		// (2-kh+pad, 2-kw+pad).
		taps := []struct {
			kh, kw int
			bits   uint32
		}{{0, 1, 0x7f8000a1}, {1, 1, 0xffc000b2}, {2, 2, 0x7fc000c3}}
		for _, tp := range taps {
			oy, ox := 2-tp.kh+p.Padding, 2-tp.kw+p.Padding
			y.Data[(((c-1)*p.KH+tp.kh)*p.KW+tp.kw)*oh*ow+oy*ow+ox] = math.Float32frombits(tp.bits)
		}
		name := fmt.Sprintf("Col2Im %d channels, width %d, padding %d", c, w, p.Padding)
		got := Col2Im(y, n, c, h, w, p)
		bitsEqual(t, name, got, scalarCol2Im(y, n, c, h, w, p))
		if bits := math.Float32bits(got.Data[((c-1)*h+2)*w+2]); bits != 0x7fc000a1 {
			t.Fatalf("%s: input (%d,2,2) = %#08x, want the first tap's payload quieted, 0x7fc000a1", name, c-1, bits)
		}
	}
}

// FuzzLoweringOracle: the fuzzer chooses the geometry and the raw bit
// patterns; im2col and col2im must agree with the per-element oracles bit
// for bit, NaN payloads included, and at stride 1 with the tap-by-tap ones.
// The seeds after the first four are stride-1 tap sets of 1, 9, 72, 400 and
// 425 taps, with rows narrower than a vector and paddings 0 to 2.
func FuzzLoweringOracle(f *testing.F) {
	f.Add(uint8(1), uint8(7), uint8(5), uint8(5), uint8(2), uint8(2), uint8(0), uint8(1), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x40})
	f.Add(uint8(0), uint8(0), uint8(3), uint8(8), uint8(1), uint8(3), uint8(1), uint8(0), []byte{0x01, 0, 0x80, 0x7f, 0, 0, 0, 0x80, 0xb0, 0, 0xc0, 0xff})
	f.Add(uint8(2), uint8(1), uint8(8), uint8(2), uint8(4), uint8(0), uint8(2), uint8(3), []byte{0, 0, 0xc0, 0x7f, 1, 0, 0, 0, 0xa1, 0, 0x80, 0x7f})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	nan := []byte{0x01, 0, 0x80, 0x7f, 0, 0, 0x80, 0x3f, 0xa1, 0, 0xc0, 0xff, 0, 0, 0, 0x80}
	f.Add(uint8(1), uint8(0), uint8(4), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), nan)
	f.Add(uint8(0), uint8(0), uint8(4), uint8(1), uint8(2), uint8(2), uint8(0), uint8(1), nan)
	f.Add(uint8(1), uint8(7), uint8(5), uint8(5), uint8(2), uint8(2), uint8(0), uint8(1), nan)
	f.Add(uint8(0), uint8(15), uint8(5), uint8(5), uint8(4), uint8(4), uint8(0), uint8(2), nan)
	f.Add(uint8(1), uint8(16), uint8(4), uint8(6), uint8(4), uint8(4), uint8(0), uint8(0), nan)
	f.Fuzz(func(t *testing.T, nRaw, cRaw, hRaw, wRaw, khRaw, kwRaw, sRaw, padRaw uint8, raw []byte) {
		n, c, h, w := int(nRaw)%3+1, int(cRaw)%17+1, int(hRaw)%10+1, int(wRaw)%19+1
		p := ConvParams{KH: int(khRaw)%5 + 1, KW: int(kwRaw)%5 + 1, Stride: int(sRaw)%3 + 1, Padding: int(padRaw) % 4}
		if p.KH > h+2*p.Padding || p.KW > w+2*p.Padding {
			t.Skip("kernel does not fit the padded image")
		}
		if len(raw) > 1<<12 {
			raw = raw[:1<<12]
		}
		at := 0
		fill := func(dst []float32) {
			for i := range dst {
				var bits uint32
				for s := 0; s < 32 && len(raw) > 0; s += 8 {
					bits |= uint32(raw[at%len(raw)]) << s
					at++
				}
				dst[i] = math.Float32frombits(bits)
			}
		}
		in := New(n, c, h, w)
		fill(in.Data)
		want := scalarIm2Col(in, p)
		bitsEqual(t, "Im2Col", Im2Col(in, p), want)
		y := New(want.Shape...)
		fill(y.Data)
		wantIm := scalarCol2Im(y, n, c, h, w, p)
		bitsEqual(t, "Col2Im", Col2Im(y, n, c, h, w, p), wantIm)
		if p.Stride == 1 {
			bitsEqual(t, "tapByTapIm2Col", tapByTapIm2Col(in, p), want)
			bitsEqual(t, "tapByTapCol2Im", tapByTapCol2Im(y, n, c, h, w, p), wantIm)
		}
	})
}

// tapByTapIm2Col is a stride-1 im2col as one moveBlocks per matrix row, in
// ascending (ch,kh,kw) order — the loop the one-call tap walk replaced, kept
// as its oracle: same staging plane, same tap offsets, one call per tap.
func tapByTapIm2Col(in *Tensor, p ConvParams) *Tensor {
	oh, ow := p.OutSize(in.Shape[2], in.Shape[3])
	cols := New(in.Shape[1]*p.KH*p.KW, in.Shape[0]*oh*ow)
	g := newLowering("tapByTapIm2Col", in, cols, p)
	xpad := make([]float32, g.c*g.n*g.hp*g.wp)
	for ch := 0; ch < g.c; ch++ {
		moveBlocks(xpad[g.plane(ch, p.Padding, p.Padding):], in.Data[ch*g.h*g.w:], &blockShape{
			n: g.n, rows: g.h, cols: g.w,
			dstBlock: g.hp * g.wp, srcBlock: g.c * g.h * g.w, dstStride: g.wp, srcStride: g.w,
		})
	}
	tap := blockShape{
		n: g.n, rows: g.oh, cols: g.ow,
		dstBlock: g.oh * g.ow, srcBlock: g.hp * g.wp, dstStride: g.ow, srcStride: g.wp,
	}
	row := 0
	for ch := 0; ch < g.c; ch++ {
		for kh := 0; kh < p.KH; kh++ {
			for kw := 0; kw < p.KW; kw++ {
				moveBlocks(cols.Data[row:], xpad[g.plane(ch, kh, kw):], &tap)
				row += g.n * tap.dstBlock
			}
		}
	}
	return cols
}

// tapByTapCol2Im is tapByTapIm2Col's adjoint: one addBlocks per matrix row
// into a zeroed plane, rows in ascending (ch,kh,kw) order, then the
// interior copied out.
func tapByTapCol2Im(cols *Tensor, n, c, h, w int, p ConvParams) *Tensor {
	out := New(n, c, h, w)
	g := newLowering("tapByTapCol2Im", out, cols, p)
	gpad := make([]float32, g.c*g.n*g.hp*g.wp)
	tap := blockShape{
		n: g.n, rows: g.oh, cols: g.ow,
		dstBlock: g.hp * g.wp, srcBlock: g.oh * g.ow, dstStride: g.wp, srcStride: g.ow,
	}
	row := 0
	for ch := 0; ch < g.c; ch++ {
		for kh := 0; kh < p.KH; kh++ {
			for kw := 0; kw < p.KW; kw++ {
				addBlocks(gpad[g.plane(ch, kh, kw):], cols.Data[row:], &tap)
				row += g.n * tap.srcBlock
			}
		}
	}
	for ch := 0; ch < g.c; ch++ {
		moveBlocks(out.Data[ch*g.h*g.w:], gpad[g.plane(ch, p.Padding, p.Padding):], &blockShape{
			n: g.n, rows: g.h, cols: g.w,
			dstBlock: g.c * g.h * g.w, srcBlock: g.hp * g.wp, dstStride: g.w, srcStride: g.wp,
		})
	}
	return out
}

// mustPanicWith runs f and requires a panic whose message contains want.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// TestLoweringBoundsPanics: every extent is checked, with a message naming
// the operation, before a block kernel is handed a pointer.
func TestLoweringBoundsPanics(t *testing.T) {
	p := ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}
	in := New(2, 3, 6, 6)
	cols := New(27, 72)
	short := New(27, 71)
	mustPanicWith(t, "Im2ColInto matrix holds 1917 elements, need 1944", func() { Im2ColInto(short, in, p) })
	mustPanicWith(t, "Col2ImInto matrix holds 1917 elements, need 1944", func() { Col2ImInto(in, short, p) })
	mustPanicWith(t, "conv output", func() {
		Col2ImInto(New(1, 1, 2, 2), cols, ConvParams{KH: 5, KW: 5, Stride: 1, Padding: 1})
	})
	// OutSize truncates (2+0-3)/2 to 0 and reports a 1-wide output.
	mustPanicWith(t, "conv output", func() {
		Im2ColInto(New(1, 1), New(1, 1, 2, 2), ConvParams{KH: 3, KW: 3, Stride: 2})
	})
	mustPanicWith(t, "Col2ImInto with invalid conv params", func() { Col2ImInto(in, cols, ConvParams{KH: 3, KW: 3, Padding: 1}) })
	mustPanicWith(t, "Im2ColInto needs an [N,C,H,W] image", func() { Im2ColInto(cols, New(6, 6), p) })

	kernel := New(4, 3, 3, 3)
	gradOut := New(2, 4, 6, 6)
	mustPanicWith(t, "Conv2DBackwardWS im2col matrix has shape [27 71], need [27 72]", func() {
		Conv2DBackwardWS(nil, in, kernel, gradOut, short, p, false)
	})
	mustPanicWith(t, "Conv2DBackwardWS output gradient holds 144 elements, need 2×4×6×6", func() {
		Conv2DBackwardWS(nil, in, kernel, New(1, 4, 6, 6), cols, p, false)
	})

	buf := make([]float32, 40)
	big := make([]float32, 128)
	sh := blockShape{n: 2, rows: 3, cols: 6, dstBlock: 24, srcBlock: 18, dstStride: 8, srcStride: 6}
	mustPanicWith(t, "moveBlocks destination needs 46 elements for {n:2 rows:3 cols:6 dstBlock:24 srcBlock:18 dstStride:8 srcStride:6}, slice holds 40", func() {
		moveBlocks(buf, big, &sh)
	})
	mustPanicWith(t, "addBlocks destination needs 46 elements", func() { addBlocks(buf, big, &sh) })
	sh.dstBlock, sh.srcBlock, sh.dstStride, sh.srcStride = sh.srcBlock, sh.dstBlock, sh.srcStride, sh.dstStride
	mustPanicWith(t, "moveBlocks source needs 46 elements", func() { moveBlocks(big, buf, &sh) })
	mustPanicWith(t, "addBlocks source needs 46 elements for {n:2 rows:3 cols:6 dstBlock:18 srcBlock:24 dstStride:6 srcStride:8}, slice holds 40", func() {
		addBlocks(big, buf, &sh)
	})
	sh.cols = -1
	mustPanicWith(t, "addBlocks shape {n:2 rows:3 cols:-1 dstBlock:18 srcBlock:24 dstStride:6 srcStride:8} has a negative extent", func() {
		addBlocks(big, big, &sh)
	})
	sh.cols, sh.srcBlock = 6, -24
	mustPanicWith(t, "moveBlocks shape", func() { moveBlocks(big, big, &sh) })

	// A tap set is checked once, against what each side holds behind its
	// last tap: offset 1·30 + 2·10 = 50 in dst, 1·8 + 2·1 = 10 in src.
	row := blockShape{n: 1, rows: 1, cols: 10}
	taps := tapSet{c: 2, kh: 1, kw: 3, dst: tapSteps{c: 30, w: 10}, src: tapSteps{c: 8, w: 1}}
	if !taps.check("taps", &row, 60, 20) {
		t.Fatal("a tap set that fits reported nothing to do")
	}
	mustPanicWith(t, "taps destination needs 10 elements for {n:1 rows:1 cols:10 dstBlock:0 srcBlock:0 dstStride:0 srcStride:0}, slice holds 9", func() {
		taps.check("taps", &row, 59, 20)
	})
	mustPanicWith(t, "taps source needs 10 elements", func() { taps.check("taps", &row, 60, 19) })
	taps.src.w = -1
	mustPanicWith(t, "taps tap set {c:2 kh:1 kw:3 dst:{c:30 h:0 w:10} src:{c:8 h:0 w:-1}} is empty or steps backwards", func() {
		taps.check("taps", &row, 60, 20)
	})
}

// TestConvWorkspaceZeroAllocs: with every scratch buffer, both staging planes
// and the kernel's 2-D view owned by the workspace, a steady-state forward +
// backward allocates nothing.
func TestConvWorkspaceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	r := rng.NewFromInt(27)
	in := New(2, 8, 6, 6)
	in.FillNormal(r, 0, 1)
	kernel := New(8, 8, 3, 3)
	kernel.FillNormal(r, 0, 0.5)
	gradOut := New(2, 8, 6, 6)
	gradOut.FillNormal(r, 0, 1)
	p := ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}
	ws := NewWorkspace()
	step := func() {
		_, cols := Conv2DForwardWS(ws, in, kernel, p, false)
		Conv2DBackwardWS(ws, in, kernel, gradOut, cols, p, false)
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("steady-state conv forward+backward: %v allocs, want 0", allocs)
	}
}
