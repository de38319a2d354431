// Package tensor implements the dense numeric arrays and linear-algebra
// kernels the training framework is built on: element-wise arithmetic,
// matrix multiplication (FP32 and mixed bfloat16/FP32, matching the modeled
// accelerator's MAC precision), 2-D convolution via im2col, transposes and
// reductions.
//
// Layout conventions:
//   - 4-D activation tensors are NCHW (batch, channel, height, width). The
//     channel-major layout mirrors the modeled accelerator, whose 16 MAC
//     units compute 16 consecutive *channels* of an output in one cycle
//     (Table 1), so fault locations map directly onto tensor indices.
//   - 2-D tensors are row-major [rows, cols].
//
// All data is float32, the element-wise precision of the accelerator; MAC
// results can optionally be rounded through bfloat16 (see MatMulMixed).
package tensor

import (
	"fmt"
	"math"

	"repro/internal/numerics"
	"repro/internal/rng"
)

// Tensor is a dense row-major float32 array with an explicit shape.
//
// The dirty flag supports the detector's read of its producers' statistics:
// the abs-max the optimizer step keeps for each history tensor, and the one
// BatchNorm keeps for its moving variance, are valid only while the tensor
// has not been mutated outside the loop that produced them. Out-of-band
// writers — fault injection, checkpoint restore — call MarkDirty; the
// producers clear it when they rewrite the tensor, as do the generic kernels
// that fully overwrite one (Fill, the MatMul*Into family, Conv2DForwardWS).
// The detector sweeps a tensor it finds Dirty(). Reshape returns a fresh
// header with a clean flag; nothing caches stats across a reshape, so the
// flag never goes stale through aliasing in this codebase.
type Tensor struct {
	Shape []int
	Data  []float32

	dirty bool
}

// MarkDirty records an out-of-band mutation (fault injection, restore);
// cached reductions over t are no longer trustworthy.
func (t *Tensor) MarkDirty() { t.dirty = true }

// ClearDirty records that t was fully rewritten by its owning kernel, making
// the statistics that kernel kept authoritative again.
func (t *Tensor) ClearDirty() { t.dirty = false }

// Dirty reports whether t was mutated out-of-band since its last full
// rewrite; consumers of cached stats must re-sweep when it is set.
func (t *Tensor) Dirty() bool { return t.dirty }

// New allocates a zero-filled tensor with the given shape. It panics on a
// non-positive dimension: shapes are always program constants here, so a bad
// shape is a bug, not an input error.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// Format a copy: handing shape itself to fmt would make every
			// caller's variadic slice escape to the heap.
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape, without copying.
// It panics if the element count does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
// CopyFrom is how restore paths rewrite live state, so it marks t dirty:
// any stats t's producer kept predate the copy.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic("tensor: CopyFrom size mismatch")
	}
	copy(t.Data, src.Data)
	t.dirty = true
}

// Reshape returns a tensor sharing t's data with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != u.Shape[i] {
			return false
		}
	}
	return true
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v. A fill is a full rewrite, so it clears the
// dirty flag (covers ZeroGrad and restore-time gradient zeroing). +0, what
// Zero fills with, is all zero bits and goes through the runtime's memclr.
func (t *Tensor) Fill(v float32) {
	if math.Float32bits(v) == 0 {
		clear(t.Data)
	} else {
		for i := range t.Data {
			t.Data[i] = v
		}
	}
	t.dirty = false
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// FillNormal fills t with N(mean, std²) samples drawn from r.
func (t *Tensor) FillNormal(r *rng.Rand, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(mean + std*r.NormFloat64())
	}
}

// AddInPlace computes t += u element-wise, as one row of addBlocks: t's
// element is the add's first operand on every path, so where two NaNs meet
// the one already in t stays. u may be t.
func (t *Tensor) AddInPlace(u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic("tensor: AddInPlace size mismatch")
	}
	addBlocks(t.Data, u.Data, &blockShape{n: 1, rows: 1, cols: len(t.Data)})
}

// Scale multiplies every element by s, the element first (scaleAVX on
// amd64, scaleGo elsewhere).
func (t *Tensor) Scale(s float32) {
	if useAVX && len(t.Data) > 0 {
		scaleAVX(&t.Data[0], s, len(t.Data))
		return
	}
	scaleGo(t.Data, s)
}

func scaleGo(td []float32, s float32) {
	for i := range td {
		td[i] *= s
	}
}

// AxpyInPlace computes t += alpha * u.
func (t *Tensor) AxpyInPlace(alpha float32, u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic("tensor: AxpyInPlace size mismatch")
	}
	for i := range t.Data {
		t.Data[i] += alpha * u.Data[i]
	}
}

// Sum and AbsMax live in reduce.go alongside the rest of the vectorized
// reduction kernels.

// FirstNonFinite returns the index of the first NaN/Inf element, or -1.
func (t *Tensor) FirstNonFinite() int { return numerics.HasNonFinite(t.Data) }

// ConvParams describes a 2-D convolution: kernel spatial size, stride and
// symmetric zero padding.
type ConvParams struct {
	KH, KW  int
	Stride  int
	Padding int
}

// OutSize returns the output spatial size for an input of size h×w.
func (p ConvParams) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*p.Padding-p.KH)/p.Stride + 1
	ow = (w+2*p.Padding-p.KW)/p.Stride + 1
	return
}

// blockShape describes n equally shaped blocks of rows×cols floats on both
// sides of a block kernel. Element (i, r, j) — block i, row r, column j —
// lives at i*dstBlock + r*dstStride + j in the destination and at
// i*srcBlock + r*srcStride + j in the source. All seven are element counts,
// none negative.
type blockShape struct {
	n, rows, cols        int
	dstBlock, srcBlock   int
	dstStride, srcStride int
}

// moveBlocks copies the blocks sh describes from src to dst. It moves bits —
// no value is interpreted, so signaling NaNs and −0 arrive unchanged. Both
// sides are checked against their slices before anything is touched; dst
// and src must not overlap.
func moveBlocks(dst, src []float32, sh *blockShape) {
	if sh.check("moveBlocks", len(dst), len(src)) {
		sh.move(dst, src, &oneTap)
	}
}

// addBlocks accumulates the blocks sh describes, dst += src element by
// element, with the layout and checks of moveBlocks. The accumulator is the
// add's first operand in the assembly and in the code the compiler emits for
// the Go loop (TestBlockKernelsBitwise pins both), so a NaN meeting a NaN
// keeps the accumulator's payload on either path.
func addBlocks(dst, src []float32, sh *blockShape) {
	if sh.check("addBlocks", len(dst), len(src)) {
		sh.add(dst, src, &oneTap)
	}
}

// tapSet repeats a blockShape over the c·kh·kw taps of a stride-1 lowering,
// in ascending (ch, y, x) order: tap (ch, y, x) starts ch*dst.c + y*dst.h +
// x*dst.w elements into the destination and likewise into the source. The
// AVX kernel walks the whole set in one call.
type tapSet struct {
	c, kh, kw int
	dst, src  tapSteps
}

// tapSteps are one side's element steps from tap to tap: per channel, per
// tap row, per tap.
type tapSteps struct{ c, h, w int }

// oneTap is a plain block move or add: one tap, at offset 0.
var oneTap = tapSet{c: 1, kh: 1, kw: 1}

// last returns the offset at which the last tap starts on side s. Steps are
// not negative, so no tap starts further in.
func (t *tapSet) last(s tapSteps) int {
	return (t.c-1)*s.c + (t.kh-1)*s.h + (t.kw-1)*s.w
}

// check is blockShape.check for every tap at once: the shape must fit behind
// the last tap on each side, every other tap starting no further in. op names
// the caller in the panics.
func (t *tapSet) check(op string, sh *blockShape, dstLen, srcLen int) bool {
	if t.c <= 0 || t.kh <= 0 || t.kw <= 0 || min(t.dst.c, t.dst.h, t.dst.w, t.src.c, t.src.h, t.src.w) < 0 {
		panic(fmt.Sprintf("tensor: %s tap set %+v is empty or steps backwards", op, *t))
	}
	return sh.check(op, dstLen-t.last(t.dst), srcLen-t.last(t.src))
}

// each calls fn with the destination and source offsets of every tap, in
// ascending (ch, y, x) order.
func (t *tapSet) each(fn func(d, s int)) {
	for ch := 0; ch < t.c; ch++ {
		for y := 0; y < t.kh; y++ {
			for x := 0; x < t.kw; x++ {
				fn(ch*t.dst.c+y*t.dst.h+x*t.dst.w, ch*t.src.c+y*t.src.h+x*t.src.w)
			}
		}
	}
}

// move copies every tap of t, for a caller that has established t.check (or,
// for oneTap, sh.check).
func (sh *blockShape) move(dst, src []float32, t *tapSet) {
	if useAVX {
		blockTapsAVX(dst, src, sh.n, sh.rows, sh.cols, sh.dstBlock, sh.srcBlock, sh.dstStride, sh.srcStride,
			t.c, t.kh, t.kw, t.dst.c, t.dst.h, t.dst.w, t.src.c, t.src.h, t.src.w, false)
		return
	}
	t.each(func(d, s int) {
		for i := 0; i < sh.n; i++ {
			for r := 0; r < sh.rows; r++ {
				o, q := d+i*sh.dstBlock+r*sh.dstStride, s+i*sh.srcBlock+r*sh.srcStride
				copy(dst[o:o+sh.cols], src[q:q+sh.cols])
			}
		}
	})
}

// add accumulates every tap of t, taps in ascending order, under move's
// contract.
func (sh *blockShape) add(dst, src []float32, t *tapSet) {
	if useAVX {
		blockTapsAVX(dst, src, sh.n, sh.rows, sh.cols, sh.dstBlock, sh.srcBlock, sh.dstStride, sh.srcStride,
			t.c, t.kh, t.kw, t.dst.c, t.dst.h, t.dst.w, t.src.c, t.src.h, t.src.w, true)
		return
	}
	t.each(func(d, s int) {
		for i := 0; i < sh.n; i++ {
			for r := 0; r < sh.rows; r++ {
				o, q := d+i*sh.dstBlock+r*sh.dstStride, s+i*sh.srcBlock+r*sh.srcStride
				drow, srow := dst[o:o+sh.cols], src[q:q+sh.cols]
				for j := range drow {
					drow[j] += srow[j]
				}
			}
		}
	})
}

// extent returns one past the largest element offset the shape reaches with
// the given block and row steps.
func (sh *blockShape) extent(block, stride int) int {
	return (sh.n-1)*block + (sh.rows-1)*stride + sh.cols
}

// fits reports whether the shape is non-empty, well-formed and inside both
// slices. The assembly kernels take raw pointers, so this is the only bounds
// check they get.
func (sh *blockShape) fits(dstLen, srcLen int) bool {
	return sh.n > 0 && sh.rows > 0 && sh.cols > 0 &&
		sh.dstBlock >= 0 && sh.srcBlock >= 0 && sh.dstStride >= 0 && sh.srcStride >= 0 &&
		sh.extent(sh.dstBlock, sh.dstStride) <= dstLen && sh.extent(sh.srcBlock, sh.srcStride) <= srcLen
}

// check reports whether op has anything to do: true when the shape fits both
// slices, false when it is empty, a panic otherwise.
func (sh *blockShape) check(op string, dstLen, srcLen int) bool {
	return sh.fits(dstLen, srcLen) || !sh.empty(op, dstLen, srcLen)
}

// empty is the slow path behind a failed fits: true for a shape with nothing
// in it, which is legal and a no-op, and a panic naming the operation and the
// side for anything else.
func (sh *blockShape) empty(op string, dstLen, srcLen int) bool {
	if sh.n < 0 || sh.rows < 0 || sh.cols < 0 || sh.dstBlock < 0 || sh.srcBlock < 0 || sh.dstStride < 0 || sh.srcStride < 0 {
		panic(fmt.Sprintf("tensor: %s shape %+v has a negative extent", op, *sh))
	}
	if sh.n == 0 || sh.rows == 0 || sh.cols == 0 {
		return true
	}
	if need := sh.extent(sh.dstBlock, sh.dstStride); need > dstLen {
		panic(fmt.Sprintf("tensor: %s destination needs %d elements for %+v, slice holds %d", op, need, *sh, dstLen))
	}
	panic(fmt.Sprintf("tensor: %s source needs %d elements for %+v, slice holds %d", op, sh.extent(sh.srcBlock, sh.srcStride), *sh, srcLen))
}

// lowering is the geometry im2col and col2im share: the image [N,C,H,W], the
// output grid OH×OW and the zero-bordered staging plane [C][N][HP][WP] with
// HP = H+2·pad, WP = W+2·pad. In the plane every kernel tap (kh,kw) of a
// channel is an unclipped OH×OW block starting at row kh, column kw: the
// padding is real zeros (im2col) or real, discarded cells (col2im), so
// neither direction clips at an edge.
type lowering struct {
	n, c, h, w int
	oh, ow     int
	hp, wp     int
}

// newLowering validates the geometry of an image tensor and its unfolded
// matrix up front — the block kernels behind it work on raw extents. op names
// the caller in the panics.
func newLowering(op string, image, matrix *Tensor, p ConvParams) lowering {
	if len(image.Shape) != 4 {
		panic(fmt.Sprintf("tensor: %s needs an [N,C,H,W] image, got shape %v", op, image.Shape))
	}
	if p.KH <= 0 || p.KW <= 0 || p.Stride <= 0 || p.Padding < 0 {
		panic(fmt.Sprintf("tensor: %s with invalid conv params %+v", op, p))
	}
	g := lowering{n: image.Shape[0], c: image.Shape[1], h: image.Shape[2], w: image.Shape[3]}
	g.hp, g.wp = g.h+2*p.Padding, g.w+2*p.Padding
	g.oh, g.ow = p.OutSize(g.h, g.w)
	// The kernel must fit the padded image. (Not "oh, ow > 0": OutSize
	// rounds a slightly negative numerator up to a 1-wide output.)
	if p.KH > g.hp || p.KW > g.wp {
		panic(fmt.Sprintf("tensor: conv output %dx%d is empty for input %v params %+v", g.oh, g.ow, image.Shape, p))
	}
	if need := g.c * p.KH * p.KW * g.n * g.oh * g.ow; len(matrix.Data) != need {
		panic(fmt.Sprintf("tensor: %s matrix holds %d elements, need %d", op, len(matrix.Data), need))
	}
	return g
}

// staging returns the plane for one lowering call, contents undefined: the
// workspace's buffer under key, or — without a workspace — scratch from the
// GEMM pack-buffer pool, which the caller hands back with putPackBuf.
func (g lowering) staging(ws *Workspace, key string) (plane []float32, pooled *[]float32) {
	if ws == nil {
		pooled = getPackBuf(g.c * g.n * g.hp * g.wp)
		return *pooled, pooled
	}
	return ws.Get(key, g.c, g.n, g.hp, g.wp).Data, nil
}

// plane returns the offset of row y, column x of channel ch in the staging
// plane, for the first batch element; the others follow hp*wp apart.
func (g lowering) plane(ch, y, x int) int {
	return (ch*g.n*g.hp+y)*g.wp + x
}

// taps returns the tap set of a stride-1 lowering whose matrix rows lie
// rowLen apart: on the matrix side tap (ch, kh, kw) is row (ch·KH + kh)·KW +
// kw, on the plane side the block at g.plane(ch, kh, kw). Im2col moves from
// the plane to the matrix, col2im adds the other way; toPlane says which.
func (g lowering) taps(p ConvParams, rowLen int, toPlane bool) tapSet {
	matrix := tapSteps{c: p.KH * p.KW * rowLen, h: p.KW * rowLen, w: rowLen}
	plane := tapSteps{c: g.n * g.hp * g.wp, h: g.wp, w: 1}
	if toPlane {
		return tapSet{c: g.c, kh: p.KH, kw: p.KW, dst: plane, src: matrix}
	}
	return tapSet{c: g.c, kh: p.KH, kw: p.KW, dst: matrix, src: plane}
}

// Im2ColInto performs the Im2Col unfolding into a caller-provided matrix of
// shape [C*KH*KW, N*OH*OW] (every element is overwritten), returning cols.
// The staging plane is pooled scratch; the convolution kernels keep theirs in
// the layer's Workspace instead.
func Im2ColInto(cols, in *Tensor, p ConvParams) *Tensor {
	return im2col(nil, cols, in, p)
}

// im2col stages in into the zero-bordered plane "conv.xpad" of ws and then
// writes each matrix row (ch,kh,kw) as a strided move of N blocks — at
// stride 1 every row in one tap-set move, checked once. Pure data movement:
// every bit of cols is a copy of an input bit or a +0.
func im2col(ws *Workspace, cols, in *Tensor, p ConvParams) *Tensor {
	g := newLowering("Im2ColInto", in, cols, p)
	xpad, pooled := g.staging(ws, "conv.xpad")
	if pooled != nil {
		defer putPackBuf(pooled)
	}
	if p.Padding > 0 {
		zero(xpad)
	}
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
	rowLen := g.n * tap.dstBlock
	if p.Stride == 1 {
		if taps := g.taps(p, rowLen, false); taps.check("Im2ColInto", &tap, len(cols.Data), len(xpad)) {
			tap.move(cols.Data, xpad, &taps)
		}
		return cols
	}
	row := 0
	for ch := 0; ch < g.c; ch++ {
		for kh, at := 0, g.plane(ch, 0, 0); kh < p.KH; kh, at = kh+1, at+g.wp {
			for kw := 0; kw < p.KW; kw++ {
				dst, src := cols.Data[row:], xpad[at+kw:]
				for b := 0; b < g.n; b++ {
					for oy := 0; oy < g.oh; oy++ {
						drow := dst[(b*g.oh+oy)*g.ow:][:g.ow]
						srow := src[b*tap.srcBlock+oy*p.Stride*g.wp:]
						for ox := range drow {
							drow[ox] = srow[ox*p.Stride]
						}
					}
				}
				row += rowLen
			}
		}
	}
	return cols
}

// Col2ImInto performs the Col2Im folding into a caller-provided [N,C,H,W]
// tensor (every element is overwritten) and returns it. The staging plane is
// pooled scratch; the convolution kernels keep theirs in the Workspace.
func Col2ImInto(out, cols *Tensor, p ConvParams) *Tensor {
	return col2im(nil, out, cols, p)
}

// col2im accumulates each matrix row (ch,kh,kw) into the zeroed plane
// "conv.gpad" of ws as a strided add of N blocks — at stride 1 every row in
// one tap-set add, checked once — then copies the plane's interior out. Rows
// are taken in ascending (ch,kh,kw) order and a
// row touches each plane cell at most once, so an interior cell starts at +0
// and receives exactly the addends the per-element loop gives that input
// position, in the same order. Border cells collect the contributions that
// fall into the padding; they are never read.
func col2im(ws *Workspace, out, cols *Tensor, p ConvParams) *Tensor {
	g := newLowering("Col2ImInto", out, cols, p)
	gpad, pooled := g.staging(ws, "conv.gpad")
	if pooled != nil {
		defer putPackBuf(pooled)
	}
	zero(gpad)
	tap := blockShape{
		n: g.n, rows: g.oh, cols: g.ow,
		dstBlock: g.hp * g.wp, srcBlock: g.oh * g.ow, dstStride: g.wp, srcStride: g.ow,
	}
	rowLen := g.n * tap.srcBlock
	if p.Stride == 1 {
		if taps := g.taps(p, rowLen, true); taps.check("Col2ImInto", &tap, len(gpad), len(cols.Data)) {
			tap.add(gpad, cols.Data, &taps)
		}
	} else {
		row := 0
		for ch := 0; ch < g.c; ch++ {
			for kh, at := 0, g.plane(ch, 0, 0); kh < p.KH; kh, at = kh+1, at+g.wp {
				for kw := 0; kw < p.KW; kw++ {
					dst, src := gpad[at+kw:], cols.Data[row:]
					for b := 0; b < g.n; b++ {
						for oy := 0; oy < g.oh; oy++ {
							srow := src[(b*g.oh+oy)*g.ow:][:g.ow]
							drow := dst[b*tap.dstBlock+oy*p.Stride*g.wp:]
							for ox := range srow {
								drow[ox*p.Stride] += srow[ox]
							}
						}
					}
					row += rowLen
				}
			}
		}
	}
	for ch := 0; ch < g.c; ch++ {
		moveBlocks(out.Data[ch*g.h*g.w:], gpad[g.plane(ch, p.Padding, p.Padding):], &blockShape{
			n: g.n, rows: g.h, cols: g.w,
			dstBlock: g.c * g.h * g.w, srcBlock: g.hp * g.wp, dstStride: g.w, srcStride: g.wp,
		})
	}
	out.ClearDirty()
	return out
}

// Conv2DForwardWS is the workspace-aware convolution forward. All scratch
// (the staging plane, the unfolded im2col matrix, the pre-transpose output)
// and the output itself come from ws, so repeated same-shape calls allocate
// nothing; a nil ws falls back to fresh allocations. It returns the output
// and the im2col matrix, which the caller may hand back to Conv2DBackwardWS
// to skip the re-lowering (valid as long as the input has not changed since).
func Conv2DForwardWS(ws *Workspace, in, kernel *Tensor, p ConvParams, mixed bool) (out, cols *Tensor) {
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	k := kernel.Shape[0]
	if kernel.Shape[1] != c || kernel.Shape[2] != p.KH || kernel.Shape[3] != p.KW {
		panic(fmt.Sprintf("tensor: kernel shape %v incompatible with input %v params %+v", kernel.Shape, in.Shape, p))
	}
	oh, ow := p.OutSize(h, w)
	cols = im2col(ws, ws.Get("conv.cols", c*p.KH*p.KW, n*oh*ow), in, p)
	w2d := ws.reshaped(kernel, k, c*p.KH*p.KW)
	out2d := MatMulInto(ws.Get("conv.out2d", k, n*oh*ow), w2d, cols, mixed)
	// out2d is [K, N*OH*OW]; bring the batch to the front → [N,K,OH,OW]:
	// one block per channel, its N planes contiguous in out2d and K planes
	// apart in out.
	out = ws.Get("conv.out", n, k, oh, ow)
	spatial := oh * ow
	moveBlocks(out.Data, out2d.Data, &blockShape{
		n: k, rows: n, cols: spatial,
		dstBlock: spatial, srcBlock: n * spatial, dstStride: k * spatial, srcStride: spatial,
	})
	out.ClearDirty()
	return out, cols
}

// Conv2DBackwardWS is the workspace-aware convolution backward. cols, when
// non-nil, must be the im2col matrix of in (as returned by Conv2DForwardWS
// for the same input) and skips the re-lowering; pass nil to recompute it.
// The weight gradient is computed as g2d × colsᵀ and the column gradient as
// W2dᵀ × g2d via the fused-transpose kernels, so no transpose is ever
// materialized. Returned tensors are workspace-owned: valid until the next
// same-key Get, which for the layers means until the next backward call.
func Conv2DBackwardWS(ws *Workspace, in, kernel, gradOut, cols *Tensor, p ConvParams, mixed bool) (gradIn, gradKernel *Tensor) {
	g2d, gradKernel := conv2DWeightGrad(ws, in, kernel, gradOut, cols, p, mixed)
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	k := kernel.Shape[0]

	// gradCols = W2dᵀ × g2d  → [C*KH*KW, N*OH*OW]; fold back to input shape.
	w2d := ws.reshaped(kernel, k, c*p.KH*p.KW)
	gcols := MatMulTAInto(ws.Get("conv.gcols", c*p.KH*p.KW, g2d.Shape[1]), w2d, g2d, mixed)
	gradIn = col2im(ws, ws.Get("conv.gin", n, c, h, w), gcols, p)
	return gradIn, gradKernel
}

// Conv2DWeightGradWS is Conv2DBackwardWS without the input gradient: the
// same kernel gradient, bit for bit, for a caller that would discard the
// input gradient (the first layer of a model).
func Conv2DWeightGradWS(ws *Workspace, in, kernel, gradOut, cols *Tensor, p ConvParams, mixed bool) *Tensor {
	_, gradKernel := conv2DWeightGrad(ws, in, kernel, gradOut, cols, p, mixed)
	return gradKernel
}

// conv2DWeightGrad checks the backward's operands and returns the output
// gradient rearranged to [K, N*OH*OW] with the kernel gradient.
func conv2DWeightGrad(ws *Workspace, in, kernel, gradOut, cols *Tensor, p ConvParams, mixed bool) (g2d, gradKernel *Tensor) {
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	k := kernel.Shape[0]
	oh, ow := p.OutSize(h, w)
	spatial := oh * ow
	if len(gradOut.Data) != n*k*spatial {
		panic(fmt.Sprintf("tensor: Conv2DBackwardWS output gradient holds %d elements, need %d×%d×%d×%d", len(gradOut.Data), n, k, oh, ow))
	}
	if cols != nil && (len(cols.Shape) != 2 || cols.Shape[0] != c*p.KH*p.KW || cols.Shape[1] != n*spatial) {
		panic(fmt.Sprintf("tensor: Conv2DBackwardWS im2col matrix has shape %v, need [%d %d]", cols.Shape, c*p.KH*p.KW, n*spatial))
	}

	// Rearrange gradOut [N,K,OH,OW] to [K, N*OH*OW]: the forward's
	// rearrangement with the two sides exchanged.
	g2d = ws.Get("conv.g2d", k, n*spatial)
	moveBlocks(g2d.Data, gradOut.Data, &blockShape{
		n: k, rows: n, cols: spatial,
		dstBlock: n * spatial, srcBlock: spatial, dstStride: spatial, srcStride: k * spatial,
	})

	if cols == nil {
		cols = im2col(ws, ws.Get("conv.cols", c*p.KH*p.KW, n*spatial), in, p)
	}

	// gradKernel = g2d × colsᵀ  → [K, C*KH*KW], shaped directly as the
	// 4-D kernel gradient (the Into kernels only require matching size).
	gradKernel = MatMulTBInto(ws.Get("conv.gk", k, c, p.KH, p.KW), g2d, cols, mixed)
	return g2d, gradKernel
}

// ChannelMoments computes, for an NCHW tensor, the per-channel mean and
// (population) variance over the N, H and W axes — the batch statistics a
// BatchNorm layer consumes — into mean and variance, one element per channel.
//
// A channel's two float64 sums take their addends batch-major then spatial,
// one after the other: the order is the result, and the chain of dependent
// additions is what the loop waits on. Channels are independent, so two are
// summed side by side, each accumulator still receiving its own addends in
// its own order; an odd last channel goes through the same loop alone.
func ChannelMoments(t *Tensor, mean, variance []float32) {
	n, c, spatial := t.Shape[0], t.Shape[1], t.Shape[2]*t.Shape[3]
	if len(mean) != c || len(variance) != c {
		panic(fmt.Sprintf("tensor: ChannelMoments destinations hold %d and %d elements for %d channels", len(mean), len(variance), c))
	}
	count := float64(n * spatial)
	moments := func(ch int, sum, sumsq float64) {
		m := sum / count
		mean[ch] = float32(m)
		variance[ch] = float32(sumsq/count - m*m)
	}
	ch := 0
	for ; ch+2 <= c; ch += 2 {
		var sum0, sumsq0, sum1, sumsq1 float64
		for b := 0; b < n; b++ {
			base := (b*c + ch) * spatial
			x0 := t.Data[base : base+spatial]
			x1 := t.Data[base+spatial : base+2*spatial][:len(x0)] // no bounds check below
			for i := range x0 {
				v0, v1 := float64(x0[i]), float64(x1[i])
				sum0 += v0
				sumsq0 += v0 * v0
				sum1 += v1
				sumsq1 += v1 * v1
			}
		}
		moments(ch, sum0, sumsq0)
		moments(ch+1, sum1, sumsq1)
	}
	if ch < c {
		var sum, sumsq float64
		for b := 0; b < n; b++ {
			base := (b*c + ch) * spatial
			for _, x := range t.Data[base : base+spatial] {
				v := float64(x)
				sum += v
				sumsq += v * v
			}
		}
		moments(ch, sum, sumsq)
	}
}
