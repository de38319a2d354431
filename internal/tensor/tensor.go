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
// The dirty flag supports the fused-epilogue detection protocol: cached
// reductions (optimizer step stats, layer output stats) are valid only while
// the tensor has not been mutated outside the kernel that produced them.
// Out-of-band writers — fault injection, checkpoint restore — call MarkDirty;
// kernels that fully overwrite the tensor (Fill, the MatMul*Into family,
// Conv2DForwardWS) clear it. Consumers that find Dirty() fall back to a full
// sweep. Reshape returns a fresh header with a clean flag; monitors holding
// the original header still see its mark, and nothing caches stats across a
// reshape, so the flag never goes stale through aliasing in this codebase.
type Tensor struct {
	Shape []int
	Data  []float32

	dirty bool
}

// MarkDirty records an out-of-band mutation (fault injection, restore);
// cached reductions over t are no longer trustworthy.
func (t *Tensor) MarkDirty() { t.dirty = true }

// ClearDirty records that t was fully rewritten by its owning kernel, making
// freshly fused stats authoritative again.
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
// any stats fused into t's producing kernel predate the copy.
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

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

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

// FillUniform fills t with uniform samples in [lo, hi).
func (t *Tensor) FillUniform(r *rng.Rand, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = float32(lo + (hi-lo)*r.Float64())
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

// SubInPlace computes t -= u element-wise.
func (t *Tensor) SubInPlace(u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic("tensor: SubInPlace size mismatch")
	}
	for i := range t.Data {
		t.Data[i] -= u.Data[i]
	}
}

// MulInPlace computes t *= u element-wise.
func (t *Tensor) MulInPlace(u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic("tensor: MulInPlace size mismatch")
	}
	for i := range t.Data {
		t.Data[i] *= u.Data[i]
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
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
// reduction kernels and the fused-epilogue layer.

// FirstNonFinite returns the index of the first NaN/Inf element, or -1.
func (t *Tensor) FirstNonFinite() int { return numerics.HasNonFinite(t.Data) }

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D requires 2-D, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return t
}

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
		sh.move(dst, src)
	}
}

// move is moveBlocks for a caller that has already established
// sh.fits(len(dst), len(src)) — the lowering checks a whole tap set at once.
func (sh *blockShape) move(dst, src []float32) {
	if useAVX {
		moveBlocksAVX(dst, src, sh.n, sh.rows, sh.cols, sh.dstBlock, sh.srcBlock, sh.dstStride, sh.srcStride)
		return
	}
	for i := 0; i < sh.n; i++ {
		for r := 0; r < sh.rows; r++ {
			d, s := i*sh.dstBlock+r*sh.dstStride, i*sh.srcBlock+r*sh.srcStride
			copy(dst[d:d+sh.cols], src[s:s+sh.cols])
		}
	}
}

// addBlocks accumulates the blocks sh describes, dst += src element by
// element, with the layout and checks of moveBlocks. The accumulator is the
// add's first operand in the assembly and in the code the compiler emits for
// the Go loop (TestBlockKernelsBitwise pins both), so a NaN meeting a NaN
// keeps the accumulator's payload on either path.
func addBlocks(dst, src []float32, sh *blockShape) {
	if sh.check("addBlocks", len(dst), len(src)) {
		sh.add(dst, src)
	}
}

// add is addBlocks under move's contract.
func (sh *blockShape) add(dst, src []float32) {
	if useAVX {
		addBlocksAVX(dst, src, sh.n, sh.rows, sh.cols, sh.dstBlock, sh.srcBlock, sh.dstStride, sh.srcStride)
		return
	}
	for i := 0; i < sh.n; i++ {
		for r := 0; r < sh.rows; r++ {
			d, s := i*sh.dstBlock+r*sh.dstStride, i*sh.srcBlock+r*sh.srcStride
			drow, srow := dst[d:d+sh.cols], src[s:s+sh.cols]
			for j := range drow {
				drow[j] += srow[j]
			}
		}
	}
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

// lastRow and lastTap are the largest offsets a lowering's tap loop reaches:
// of a matrix row (rows lie rowLen apart, tap (c-1, KH-1, KW-1) is the last)
// and of a tap's block in the staging plane (plane grows with each of ch, kh
// and kw, so the same tap starts furthest in). A stride-1 lowering checks its
// tap shape once against what is left of both sides behind these two — every
// other tap starts no further in on either side — and then calls move / add
// bare.
func (g lowering) lastRow(p ConvParams, rowLen int) int { return (g.c*p.KH*p.KW - 1) * rowLen }
func (g lowering) lastTap(p ConvParams) int             { return g.plane(g.c-1, p.KH-1, p.KW-1) }

// Im2Col unfolds input [N,C,H,W] into a matrix [C*KH*KW, N*OH*OW] so that
// convolution becomes a matrix multiply — the same lowering the modeled
// accelerator's sequencer performs when tiling a convolution onto the MAC
// array.
func Im2Col(in *Tensor, p ConvParams) *Tensor {
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv output %dx%d is empty for input %v params %+v", oh, ow, in.Shape, p))
	}
	return Im2ColInto(New(c*p.KH*p.KW, n*oh*ow), in, p)
}

// Im2ColInto performs the Im2Col unfolding into a caller-provided matrix of
// shape [C*KH*KW, N*OH*OW] (every element is overwritten), returning cols.
// The staging plane is pooled scratch; the convolution kernels keep theirs in
// the layer's Workspace instead.
func Im2ColInto(cols, in *Tensor, p ConvParams) *Tensor {
	return im2col(nil, cols, in, p)
}

// im2col stages in into the zero-bordered plane "conv.xpad" of ws and then
// writes each matrix row (ch,kh,kw) as one strided move of N blocks.
// Pure data movement: every bit of cols is a copy of an input bit or a +0.
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
	if p.Stride == 1 && !tap.check("Im2ColInto", len(cols.Data)-g.lastRow(p, rowLen), len(xpad)-g.lastTap(p)) {
		return cols
	}
	row := 0
	for ch := 0; ch < g.c; ch++ {
		for kh, at := 0, g.plane(ch, 0, 0); kh < p.KH; kh, at = kh+1, at+g.wp {
			for kw := 0; kw < p.KW; kw++ {
				dst, src := cols.Data[row:], xpad[at+kw:]
				if p.Stride == 1 {
					tap.move(dst, src)
				} else {
					for b := 0; b < g.n; b++ {
						for oy := 0; oy < g.oh; oy++ {
							drow := dst[(b*g.oh+oy)*g.ow:][:g.ow]
							srow := src[b*tap.srcBlock+oy*p.Stride*g.wp:]
							for ox := range drow {
								drow[ox] = srow[ox*p.Stride]
							}
						}
					}
				}
				row += rowLen
			}
		}
	}
	return cols
}

// Col2Im folds a [C*KH*KW, N*OH*OW] matrix back into an [N,C,H,W] tensor by
// summing overlapping contributions — the adjoint of Im2Col, used for the
// input-gradient computation in the backward pass.
func Col2Im(cols *Tensor, n, c, h, w int, p ConvParams) *Tensor {
	return Col2ImInto(New(n, c, h, w), cols, p)
}

// Col2ImInto performs the Col2Im folding into a caller-provided [N,C,H,W]
// tensor (every element is overwritten) and returns it. The staging plane is
// pooled scratch; the convolution kernels keep theirs in the Workspace.
func Col2ImInto(out, cols *Tensor, p ConvParams) *Tensor {
	return col2im(nil, out, cols, p)
}

// col2im accumulates each matrix row (ch,kh,kw) into the zeroed plane
// "conv.gpad" of ws as one strided add of N blocks, then copies the plane's
// interior out. Rows are taken in ascending (ch,kh,kw) order and a
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
	if p.Stride == 1 && !tap.check("Col2ImInto", len(gpad)-g.lastTap(p), len(cols.Data)-g.lastRow(p, rowLen)) {
		return out
	}
	row := 0
	for ch := 0; ch < g.c; ch++ {
		for kh, at := 0, g.plane(ch, 0, 0); kh < p.KH; kh, at = kh+1, at+g.wp {
			for kw := 0; kw < p.KW; kw++ {
				dst, src := gpad[at+kw:], cols.Data[row:]
				if p.Stride == 1 {
					tap.add(dst, src)
				} else {
					for b := 0; b < g.n; b++ {
						for oy := 0; oy < g.oh; oy++ {
							srow := src[(b*g.oh+oy)*g.ow:][:g.ow]
							drow := dst[b*tap.dstBlock+oy*p.Stride*g.wp:]
							for ox := range srow {
								drow[ox*p.Stride] += srow[ox]
							}
						}
					}
				}
				row += rowLen
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

// Conv2D computes the forward convolution of input [N,C,H,W] with kernels
// [K,C,KH,KW], producing [N,K,OH,OW]. When mixed is true the MAC products go
// through bfloat16 rounding.
func Conv2D(in, kernel *Tensor, p ConvParams, mixed bool) *Tensor {
	out, _ := Conv2DForwardWS(nil, in, kernel, p, mixed)
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

// Conv2DBackward computes the gradients of a convolution given the output
// gradient [N,K,OH,OW]. It returns (gradInput [N,C,H,W], gradKernel
// [K,C,KH,KW]). These are the "input gradient operations" and "weight
// gradient operations" of Table 1's terminology.
func Conv2DBackward(in, kernel, gradOut *Tensor, p ConvParams, mixed bool) (gradIn, gradKernel *Tensor) {
	return Conv2DBackwardWS(nil, in, kernel, gradOut, nil, p, mixed)
}

// Conv2DBackwardWS is the workspace-aware convolution backward. cols, when
// non-nil, must be the im2col matrix of in (as returned by Conv2DForwardWS
// for the same input) and skips the re-lowering; pass nil to recompute it.
// The weight gradient is computed as g2d × colsᵀ and the column gradient as
// W2dᵀ × g2d via the fused-transpose kernels, so no transpose is ever
// materialized. Returned tensors are workspace-owned: valid until the next
// same-key Get, which for the layers means until the next backward call.
func Conv2DBackwardWS(ws *Workspace, in, kernel, gradOut, cols *Tensor, p ConvParams, mixed bool) (gradIn, gradKernel *Tensor) {
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
	g2d := ws.Get("conv.g2d", k, n*spatial)
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

	// gradCols = W2dᵀ × g2d  → [C*KH*KW, N*OH*OW]; fold back to input shape.
	w2d := ws.reshaped(kernel, k, c*p.KH*p.KW)
	gcols := MatMulTAInto(ws.Get("conv.gcols", c*p.KH*p.KW, n*spatial), w2d, g2d, mixed)
	gradIn = col2im(ws, ws.Get("conv.gin", n, c, h, w), gcols, p)
	return gradIn, gradKernel
}

// ArgMaxRows returns, for a 2-D tensor [rows, cols], the column index of the
// maximum element in each row — used to turn logits into class predictions.
func ArgMaxRows(t *Tensor) []int {
	if len(t.Shape) != 2 {
		panic("tensor: ArgMaxRows requires 2-D")
	}
	rows, cols := t.Shape[0], t.Shape[1]
	out := make([]int, rows)
	for i := 0; i < rows; i++ {
		best, bestJ := float32(math.Inf(-1)), 0
		for j := 0; j < cols; j++ {
			if v := t.Data[i*cols+j]; v > best {
				best, bestJ = v, j
			}
		}
		out[i] = bestJ
	}
	return out
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
