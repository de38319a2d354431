package tensor

import (
	"fmt"
	"math"
)

// Element-wise layer kernels: BatchNorm's normalize and input-gradient
// loops, ReLU forward and backward, and the per-channel bias add. Each
// exported function here is one layer call: it checks every extent, then
// hands the whole tensor — the loop over batch and channel planes included —
// to one assembly kernel in elem_amd64.s. Where the kernels are not built
// (other architectures, -tags purego) the Go loop beside each wrapper is the
// only body; on amd64 it is the reference TestElemKernelsBitwise holds the
// assembly to, bit for bit, NaN payloads included.
//
// A kernel computes exactly what its Go loop computes, one IEEE operation at
// a time — a multiply and an add stay two roundings — and with the operands
// in the order the compiler emits for the loop: on x86 the first source of
// an operation is the one whose payload survives when both are NaN.

// planeDims returns the [n, c, spatial] view of x [N,C,...] for a per-channel
// kernel after checking its operands: every data slice as long as x, every
// per-channel slice one element a channel. The kernels take addresses, so
// this is the only bounds check they get.
func planeDims(op string, x *Tensor, dataLens, channelLens []int) (n, c, spatial int) {
	n, c, spatial = channelDims(op, x)
	if n*c*spatial != len(x.Data) {
		panic(fmt.Sprintf("tensor: %s shape %v does not describe %d elements", op, x.Shape, len(x.Data)))
	}
	for _, l := range dataLens {
		if l != len(x.Data) {
			panic(fmt.Sprintf("tensor: %s operand holds %d elements, need %d", op, l, len(x.Data)))
		}
	}
	for _, l := range channelLens {
		if l != c {
			panic(fmt.Sprintf("tensor: %s per-channel operand holds %d elements for %d channels", op, l, c))
		}
	}
	return n, c, spatial
}

// NormalizeNCHW is BatchNorm's normalize pass over x [N,C,...]: per element
// of channel ch
//
//	xh   = (x − mean[ch]) · invStd[ch]
//	xhat = xh
//	out  = gamma[ch]·xh + beta[ch]
//
// and the abs-max of out under the AbsMaxTracker rule (any NaN wins),
// tracked in the same pass whether or not the caller wants it.
func NormalizeNCHW(out, xhat, x *Tensor, mean, invStd, gamma, beta []float32) float32 {
	n, c, spatial := planeDims("NormalizeNCHW", x, []int{len(out.Data), len(xhat.Data)}, []int{len(mean), len(invStd), len(gamma), len(beta)})
	if len(x.Data) == 0 {
		return 0
	}
	if useAVX {
		return math.Float32frombits(normalizeAVX(&out.Data[0], &xhat.Data[0], &x.Data[0], &mean[0], &invStd[0], &gamma[0], &beta[0], n, c, spatial))
	}
	return math.Float32frombits(normalizeGo(out.Data, xhat.Data, x.Data, mean, invStd, gamma, beta, n, c, spatial))
}

func normalizeGo(out, xhat, x, mean, invStd, gamma, beta []float32, n, c, spatial int) (maxBits uint32) {
	for r := 0; r < n*c; r++ {
		ch := r % c
		m, is, g, be := mean[ch], invStd[ch], gamma[ch], beta[ch]
		xr := x[r*spatial : (r+1)*spatial]
		xhr, or := xhat[r*spatial:][:len(xr)], out[r*spatial:][:len(xr)]
		for i, v := range xr {
			xh := (v - m) * is
			xhr[i] = xh
			ov := g*xh + be
			or[i] = ov
			maxBits = max(maxBits, math.Float32bits(ov)&absBitsMask)
		}
	}
	return maxBits
}

// NormalizeBackwardNCHW is BatchNorm's input gradient into dx [N,C,...],
// whose shape names the planes: per element of channel ch
//
//	dx = scale[ch] · ((dy − meanDy[ch]) − xhat·meanDyXhat[ch])
//
// from the three per-channel constants the layer derives from its two sums.
func NormalizeBackwardNCHW(dx, dy, xhat *Tensor, scale, meanDy, meanDyXhat []float32) {
	n, c, spatial := planeDims("NormalizeBackwardNCHW", dx, []int{len(dy.Data), len(xhat.Data)}, []int{len(scale), len(meanDy), len(meanDyXhat)})
	if len(dx.Data) == 0 {
		return
	}
	if useAVX {
		normalizeBackwardAVX(&dx.Data[0], &dy.Data[0], &xhat.Data[0], &scale[0], &meanDy[0], &meanDyXhat[0], n, c, spatial)
		return
	}
	normalizeBackwardGo(dx.Data, dy.Data, xhat.Data, scale, meanDy, meanDyXhat, n, c, spatial)
}

func normalizeBackwardGo(dx, dy, xhat, scale, meanDy, meanDyXhat []float32, n, c, spatial int) {
	for r := 0; r < n*c; r++ {
		ch := r % c
		k, md, mdx := scale[ch], meanDy[ch], meanDyXhat[ch]
		dyr := dy[r*spatial : (r+1)*spatial]
		xhr, dxr := xhat[r*spatial:][:len(dyr)], dx[r*spatial:][:len(dyr)]
		for i, d := range dyr {
			dxr[i] = k * (d - md - xhr[i]*mdx)
		}
	}
}

// ReLUForward writes out[i] = x[i] where x[i] > 0 and +0 elsewhere — NaNs,
// both zeros and negatives — and records the test in mask as all ones or
// zero, the form ReLUBackward applies with one AND. It returns the abs-max of
// out, which holds no NaN and nothing negative, so that is its largest bit
// pattern.
func ReLUForward(out []float32, mask []uint32, x []float32) float32 {
	if len(out) != len(x) || len(mask) != len(x) {
		panic(fmt.Sprintf("tensor: ReLUForward output and mask hold %d and %d elements, need %d", len(out), len(mask), len(x)))
	}
	if len(x) == 0 {
		return 0
	}
	if useAVX {
		return math.Float32frombits(reluForwardAVX(&out[0], &mask[0], &x[0], len(x)))
	}
	return math.Float32frombits(reluForwardGo(out, mask, x))
}

// reluForwardGo does the test on the bit pattern, with no branch — the sign
// of an activation is close to a coin flip. v > 0 holds exactly when the
// pattern b satisfies 0 < b <= +Inf's — sign clear, not zero, not a NaN —
// i.e. when b-1, taken unsigned, is below +Inf's pattern: zero wraps to the
// top, negatives and NaNs already sit above.
func reluForwardGo(out []float32, mask []uint32, x []float32) (maxBits uint32) {
	out, mask = out[:len(x)], mask[:len(x)]
	for i, v := range x {
		b := math.Float32bits(v)
		keep := uint32(int64(uint64(b-1)-nonFiniteBits) >> 63) // all ones if kept, else 0
		b &= keep
		out[i] = math.Float32frombits(b)
		mask[i] = keep
		maxBits = max(maxBits, b)
	}
	return maxBits
}

// ReLUBackward writes dx[i] = dy[i] AND mask[i]: the gradient's bits where
// the forward kept the element, +0 where it did not (a NaN gradient
// included).
func ReLUBackward(dx, dy []float32, mask []uint32) {
	if len(dx) != len(dy) || len(mask) != len(dy) {
		panic(fmt.Sprintf("tensor: ReLUBackward input gradient and mask hold %d and %d elements, need %d", len(dx), len(mask), len(dy)))
	}
	if len(dy) == 0 {
		return
	}
	if useAVX {
		reluBackwardAVX(&dx[0], &dy[0], &mask[0], len(dy))
		return
	}
	reluBackwardGo(dx, dy, mask)
}

func reluBackwardGo(dx, dy []float32, mask []uint32) {
	dx, mask = dx[:len(dy)], mask[:len(dy)]
	for i, g := range dy {
		dx[i] = math.Float32frombits(math.Float32bits(g) & mask[i])
	}
}

// addBiasRows adds bias[r mod c] to channel rows [lo,hi) of the flattened
// [n*c, spatial] view. Rows are disjoint (one writer per element), so
// chunked execution over any worker count is bitwise-identical to serial.
// The row's element is the add's first operand, the bias the second.
func addBiasRows(td, biasd []float32, c, spatial, lo, hi int) {
	if lo < 0 || c <= 0 || spatial < 0 || len(biasd) < c || hi*spatial > len(td) {
		panic(fmt.Sprintf("tensor: bias add over rows [%d,%d) of %d×%d floats reaches past %d elements or %d biases", lo, hi, c, spatial, len(td), len(biasd)))
	}
	if lo >= hi || spatial == 0 {
		return
	}
	if useAVX {
		addBiasAVX(&td[lo*spatial], &biasd[0], hi-lo, c, lo%c, spatial)
		return
	}
	addBiasRowsGo(td, biasd, c, spatial, lo, hi)
}

func addBiasRowsGo(td, biasd []float32, c, spatial, lo, hi int) {
	for r := lo; r < hi; r++ {
		bv := biasd[r%c]
		row := td[r*spatial : (r+1)*spatial]
		for i := range row {
			row[i] += bv
		}
	}
}

// addBias adds bias[ch] to every element of channel ch of the [n, c,
// spatial] view of td. With one element a row (Dense, LSTM: [B, Out] + [Out])
// a batch element is the bias vector's length and is added whole: addBlocks
// over n rows with the source standing still.
func addBias(td, biasd []float32, n, c, spatial int) {
	if spatial == 1 {
		addBlocks(td, biasd, &blockShape{n: 1, rows: n, cols: c, dstStride: c})
		return
	}
	addBiasRows(td, biasd, c, spatial, 0, n*c)
}
