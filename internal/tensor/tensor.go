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

	// lane is the preferred pool-lane offset (0 = unpinned) for parallel
	// kernels writing this tensor; Workspace.Get stamps it from the owning
	// workspace's lane. Placement hint only: results never depend on it.
	lane uint32
}

// SetLane sets the tensor's preferred pool lane (0 unpins). Lane pinning is
// a cache-placement hint for the kernel pool; it cannot change results.
func (t *Tensor) SetLane(l int) {
	if l < 0 {
		l = 0
	}
	t.lane = uint32(l)
}

// Lane returns the tensor's preferred pool lane (0 = unpinned).
func (t *Tensor) Lane() int { return int(t.lane) }

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
// dirty flag (covers ZeroGrad and restore-time gradient zeroing).
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
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

// AddInPlace computes t += u element-wise.
func (t *Tensor) AddInPlace(u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic("tensor: AddInPlace size mismatch")
	}
	for i := range t.Data {
		t.Data[i] += u.Data[i]
	}
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
// With a Workspace-owned destination, steady-state convolutions reuse one
// scratch buffer instead of allocating the unfolded matrix per call.
func Im2ColInto(cols, in *Tensor, p ConvParams) *Tensor {
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv output %dx%d is empty for input %v params %+v", oh, ow, in.Shape, p))
	}
	if len(cols.Data) != c*p.KH*p.KW*n*oh*ow {
		panic(fmt.Sprintf("tensor: Im2ColInto destination holds %d elements, need %d", len(cols.Data), c*p.KH*p.KW*n*oh*ow))
	}
	colW := n * oh * ow
	for ch := 0; ch < c; ch++ {
		for kh := 0; kh < p.KH; kh++ {
			for kw := 0; kw < p.KW; kw++ {
				row := (ch*p.KH+kh)*p.KW + kw
				dst := cols.Data[row*colW : (row+1)*colW]
				if p.Stride == 1 {
					// Stride-1 fast path: for a fixed (kh, kw) the in-bounds
					// ox span is a single contiguous run, so the row becomes
					// zero edges plus one memmove of the same values the
					// scalar loop writes — bitwise-identical by construction.
					lo := p.Padding - kw
					if lo < 0 {
						lo = 0
					}
					hi := w + p.Padding - kw
					if hi > ow {
						hi = ow
					}
					for b := 0; b < n; b++ {
						for oy := 0; oy < oh; oy++ {
							iy := oy + kh - p.Padding
							seg := dst[(b*oh+oy)*ow : (b*oh+oy)*ow+ow]
							if iy < 0 || iy >= h || lo >= hi {
								zero(seg)
								continue
							}
							for x := 0; x < lo; x++ {
								seg[x] = 0
							}
							base := ((b*c+ch)*h + iy) * w
							copy(seg[lo:hi], in.Data[base+lo+kw-p.Padding:base+hi+kw-p.Padding])
							for x := hi; x < ow; x++ {
								seg[x] = 0
							}
						}
					}
					continue
				}
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

// Col2Im folds a [C*KH*KW, N*OH*OW] matrix back into an [N,C,H,W] tensor by
// summing overlapping contributions — the adjoint of Im2Col, used for the
// input-gradient computation in the backward pass.
func Col2Im(cols *Tensor, n, c, h, w int, p ConvParams) *Tensor {
	return Col2ImInto(New(n, c, h, w), cols, p)
}

// Col2ImInto performs the Col2Im folding into a caller-provided [N,C,H,W]
// tensor, which is zeroed first, and returns it.
func Col2ImInto(out, cols *Tensor, p ConvParams) *Tensor {
	n, c, h, w := out.Shape[0], out.Shape[1], out.Shape[2], out.Shape[3]
	oh, ow := p.OutSize(h, w)
	out.Zero()
	colW := n * oh * ow
	for ch := 0; ch < c; ch++ {
		for kh := 0; kh < p.KH; kh++ {
			for kw := 0; kw < p.KW; kw++ {
				row := (ch*p.KH+kh)*p.KW + kw
				src := cols.Data[row*colW : (row+1)*colW]
				if p.Stride == 1 {
					// Stride-1 fast path, mirroring Im2ColInto: the in-bounds
					// ox span is one contiguous run, so the inner loop is a
					// branch-free vector add. Iteration order over (ox, iy)
					// is unchanged, so each output element receives exactly
					// the same addends in the same order as the scalar loop.
					lo := p.Padding - kw
					if lo < 0 {
						lo = 0
					}
					hi := w + p.Padding - kw
					if hi > ow {
						hi = ow
					}
					if lo >= hi {
						continue
					}
					for b := 0; b < n; b++ {
						for oy := 0; oy < oh; oy++ {
							iy := oy + kh - p.Padding
							if iy < 0 || iy >= h {
								continue
							}
							srow := src[(b*oh+oy)*ow+lo : (b*oh+oy)*ow+hi]
							base := ((b*c+ch)*h+iy)*w + lo + kw - p.Padding
							drow := out.Data[base : base+hi-lo]
							for x, v := range srow {
								drow[x] += v
							}
						}
					}
					continue
				}
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

// Conv2D computes the forward convolution of input [N,C,H,W] with kernels
// [K,C,KH,KW], producing [N,K,OH,OW]. When mixed is true the MAC products go
// through bfloat16 rounding.
func Conv2D(in, kernel *Tensor, p ConvParams, mixed bool) *Tensor {
	out, _ := Conv2DForwardWS(nil, in, kernel, p, mixed)
	return out
}

// Conv2DForwardWS is the workspace-aware convolution forward. All scratch
// (the unfolded im2col matrix, the pre-transpose output) and the output
// itself come from ws, so repeated same-shape calls allocate nothing; a nil
// ws falls back to fresh allocations. It returns the output and the im2col
// matrix, which the caller may hand back to Conv2DBackwardWS to skip the
// re-lowering (valid as long as the input has not changed since).
func Conv2DForwardWS(ws *Workspace, in, kernel *Tensor, p ConvParams, mixed bool) (out, cols *Tensor) {
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	k := kernel.Shape[0]
	if kernel.Shape[1] != c || kernel.Shape[2] != p.KH || kernel.Shape[3] != p.KW {
		panic(fmt.Sprintf("tensor: kernel shape %v incompatible with input %v params %+v", kernel.Shape, in.Shape, p))
	}
	oh, ow := p.OutSize(h, w)
	cols = Im2ColInto(ws.Get("conv.cols", c*p.KH*p.KW, n*oh*ow), in, p)
	w2d := kernel.Reshape(k, c*p.KH*p.KW)
	out2d := MatMulInto(ws.Get("conv.out2d", k, n*oh*ow), w2d, cols, mixed)
	// out2d is [K, N*OH*OW]; transpose batch to the front → [N,K,OH,OW].
	out = ws.Get("conv.out", n, k, oh, ow)
	spatial := oh * ow
	for kk := 0; kk < k; kk++ {
		for b := 0; b < n; b++ {
			srcOff := kk*(n*spatial) + b*spatial
			dstOff := (b*k + kk) * spatial
			copy(out.Data[dstOff:dstOff+spatial], out2d.Data[srcOff:srcOff+spatial])
		}
	}
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

	// Rearrange gradOut [N,K,OH,OW] to [K, N*OH*OW].
	g2d := ws.Get("conv.g2d", k, n*spatial)
	for b := 0; b < n; b++ {
		for kk := 0; kk < k; kk++ {
			srcOff := (b*k + kk) * spatial
			dstOff := kk*(n*spatial) + b*spatial
			copy(g2d.Data[dstOff:dstOff+spatial], gradOut.Data[srcOff:srcOff+spatial])
		}
	}

	if cols == nil {
		cols = Im2ColInto(ws.Get("conv.cols", c*p.KH*p.KW, n*spatial), in, p)
	}

	// gradKernel = g2d × colsᵀ  → [K, C*KH*KW], shaped directly as the
	// 4-D kernel gradient (the Into kernels only require matching size).
	gradKernel = MatMulTBInto(ws.Get("conv.gk", k, c, p.KH, p.KW), g2d, cols, mixed)

	// gradCols = W2dᵀ × g2d  → [C*KH*KW, N*OH*OW]; fold back to input shape.
	w2d := kernel.Reshape(k, c*p.KH*p.KW)
	gcols := MatMulTAInto(ws.Get("conv.gcols", c*p.KH*p.KW, n*spatial), w2d, g2d, mixed)
	gradIn = Col2ImInto(ws.Get("conv.gin", n, c, h, w), gcols, p)
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
// BatchNorm layer consumes.
func ChannelMoments(t *Tensor) (mean, variance []float32) {
	n, c, h, w := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
	mean = make([]float32, c)
	variance = make([]float32, c)
	count := float64(n * h * w)
	for ch := 0; ch < c; ch++ {
		var sum, sumsq float64
		for b := 0; b < n; b++ {
			base := ((b*c + ch) * h) * w
			for i := 0; i < h*w; i++ {
				v := float64(t.Data[base+i])
				sum += v
				sumsq += v * v
			}
		}
		m := sum / count
		mean[ch] = float32(m)
		variance[ch] = float32(sumsq/count - m*m)
	}
	return mean, variance
}
