package nn

import (
	"math"

	"repro/internal/tensor"
)

// BatchNorm implements batch normalization over NCHW input (per-channel) or
// [B,F] input (per-feature, treated as C channels with a 1×1 plane).
//
// The moving variance (mvar) kept by this layer is the history term at the
// center of the paper's analysis: large absolute mvar values are the
// necessary condition for the SharpDegrade, LowTestAccuracy and short-term
// INF/NaN outcomes (Table 4), because mvar carries fault effects across
// iterations: mvar ← decay·mvar + (1−decay)·batchVar (Sec 4.2.2).
//
// During training the forward pass normalizes with batch statistics (so the
// *training* accuracy does not see mvar), while evaluation normalizes with
// the moving statistics — which is precisely why a corrupted mvar produces
// the LowTestAccuracy outcome: "training accuracy appears normal, but test
// accuracy shows visible degradation" (Table 3).
type BatchNorm struct {
	name string
	// Gamma and Beta are the learned scale and shift, one per channel.
	Gamma, Beta *Param
	// Momentum is the decay factor applied to the moving statistics
	// (0.9 for most workloads, 0.99 for Resnet_LargeDecay in Table 2).
	Momentum float32
	// Eps stabilizes the variance denominator.
	Eps float32
	// MovingMean and MovingVar are the inference-time statistics. They are
	// not trained by the optimizer; they are updated in the forward pass.
	MovingMean, MovingVar *tensor.Tensor

	// forward caches
	lastX     *tensor.Tensor
	lastXhat  *tensor.Tensor
	lastShape []int
	was2D     bool

	// batchMean and batchVar receive the batch statistics of a training
	// forward, invStd the per-channel 1/sqrt(var+eps) of any forward (the
	// backward pass reads it back); one element per channel, owned by the
	// layer so a step allocates none. dxScale, meanDy and meanDyXhat are the
	// per-channel constants the backward pass derives from its two sums and
	// hands to the input-gradient kernel.
	batchMean, batchVar, invStd []float32
	dxScale, meanDy, meanDyXhat []float32

	// mvarStat is the abs-bits maximum of MovingVar, folded into the O(C)
	// update recurrence — the fused read behind the detector's Part II
	// (mvar) bound check. Valid from the first training forward onwards.
	mvarStat   uint32
	mvarStatOK bool

	// ws backs out/xhat/gradIn. The normalize and backward loops fully
	// overwrite their buffers on every call, so reuse is invisible to
	// results. Training and evaluation share the keys: both run at the
	// device batch.
	ws *tensor.Workspace

	params []*Param
}

// NewBatchNorm creates a BatchNorm layer over c channels.
func NewBatchNorm(name string, c int, momentum float32) *BatchNorm {
	bn := &BatchNorm{
		name:       name,
		Gamma:      newParam(name+"/gamma", c),
		Beta:       newParam(name+"/beta", c),
		Momentum:   momentum,
		Eps:        1e-5,
		MovingMean: tensor.New(c),
		MovingVar:  tensor.New(c),
		ws:         tensor.NewWorkspace(),
		batchMean:  make([]float32, c),
		batchVar:   make([]float32, c),
		invStd:     make([]float32, c),
		dxScale:    make([]float32, c),
		meanDy:     make([]float32, c),
		meanDyXhat: make([]float32, c),
	}
	bn.Gamma.Value.Fill(1)
	bn.MovingVar.Fill(1)
	return bn
}

// Name returns the name the layer was built with.
func (bn *BatchNorm) Name() string { return bn.name }

// Params implements Layer. The slice is cached (Param pointers are stable
// after construction) and must be treated as read-only.
func (bn *BatchNorm) Params() []*Param {
	if bn.params == nil {
		bn.params = []*Param{bn.Gamma, bn.Beta}
	}
	return bn.params
}

// Channels returns the number of normalized channels.
func (bn *BatchNorm) Channels() int { return bn.Gamma.Value.Len() }

// Workspace implements WorkspaceHolder.
func (bn *BatchNorm) Workspace() *tensor.Workspace { return bn.ws }

// SetWorkspace implements WorkspaceHolder.
func (bn *BatchNorm) SetWorkspace(ws *tensor.Workspace) { bn.ws = ws }

// to4D views x as NCHW; [B,F] becomes [B,F,1,1].
func (bn *BatchNorm) to4D(x *tensor.Tensor) *tensor.Tensor {
	switch len(x.Shape) {
	case 4:
		bn.was2D = false
		return x
	case 2:
		bn.was2D = true
		return x.Reshape(x.Shape[0], x.Shape[1], 1, 1)
	default:
		panic("nn: BatchNorm expects rank-2 or rank-4 input")
	}
}

// Forward implements Layer.
func (bn *BatchNorm) Forward(ctx *Context, xIn *tensor.Tensor) *tensor.Tensor {
	x := bn.to4D(xIn)
	n, c := x.Shape[0], x.Shape[1]
	if c != bn.Channels() {
		panic("nn: BatchNorm channel mismatch")
	}
	bn.lastX = x
	bn.lastShape = x.Shape

	var mean, variance []float32
	if ctx == nil || ctx.Training {
		mean, variance = bn.batchMean, bn.batchVar
		tensor.ChannelMoments(x, mean, variance)
		// Update moving statistics: the history-term recurrence of
		// Sec 4.2.2. Note the faulty-batch-variance propagation path: a
		// large |batchVar| (from corrupted inputs) inflates mvar here and
		// persists across iterations.
		var vb uint32
		for ch := 0; ch < c; ch++ {
			bn.MovingMean.Data[ch] = bn.Momentum*bn.MovingMean.Data[ch] + (1-bn.Momentum)*mean[ch]
			mv := bn.Momentum*bn.MovingVar.Data[ch] + (1-bn.Momentum)*variance[ch]
			bn.MovingVar.Data[ch] = mv
			if b := tensor.AbsBits(mv); b > vb {
				vb = b
			}
		}
		// Every element of MovingVar was rewritten (an out-of-band corruption
		// of the old value propagates into the new one through the recurrence
		// and is therefore reflected in the fresh stat), so the fused stat is
		// authoritative again and the dirty flag can be cleared.
		bn.mvarStat, bn.mvarStatOK = vb, true
		bn.MovingVar.ClearDirty()
	} else {
		mean = bn.MovingMean.Data
		variance = bn.MovingVar.Data
	}

	out := bn.ws.Get("out", x.Shape...)
	xhat := bn.ws.Get("xhat", x.Shape...)
	for ch := range bn.invStd {
		bn.invStd[ch] = 1 / float32(math.Sqrt(float64(variance[ch]+bn.Eps)))
	}
	tensor.NormalizeNCHW(out, xhat, x, mean, bn.invStd, bn.Gamma.Value.Data, bn.Beta.Value.Data)
	bn.lastXhat = xhat
	if bn.was2D {
		return out.Reshape(n, c)
	}
	return out
}

// MovingVarAbsMax returns the fused abs-max of MovingVar as of its most
// recent update, if one has happened. Consumers must fall back to a sweep
// while MovingVar.Dirty() reports an out-of-band mutation since then.
func (bn *BatchNorm) MovingVarAbsMax() (float32, bool) {
	return tensor.AbsMaxOfBits(bn.mvarStat), bn.mvarStatOK
}

// Backward implements Layer. Standard batch-norm gradient using batch
// statistics:
//
//	dx = gamma/std * (dy − mean(dy) − xhat·mean(dy·xhat))
func (bn *BatchNorm) Backward(gradOutIn *tensor.Tensor) *tensor.Tensor {
	gradOut := gradOutIn
	if bn.was2D {
		gradOut = gradOutIn.Reshape(bn.lastShape...)
	}
	n, c, h, w := bn.lastShape[0], bn.lastShape[1], bn.lastShape[2], bn.lastShape[3]
	spatial := h * w
	gradIn := bn.ws.Get("dx", bn.lastShape...)
	dy, xhat := gradOut.Data, bn.lastXhat.Data
	// The two sums of a channel are chains of dependent float32 additions in
	// a fixed order (batch-major, then spatial). Channels are independent, so
	// two are summed side by side; an odd last channel is summed alone.
	ch := 0
	for ; ch+2 <= c; ch += 2 {
		var sumDy0, sumDyXhat0, sumDy1, sumDyXhat1 float32
		for b := 0; b < n; b++ {
			base := (b*c + ch) * spatial
			dy0, xh0 := dy[base:base+spatial], xhat[base:base+spatial]
			dy1, xh1 := dy[base+spatial:base+2*spatial], xhat[base+spatial:base+2*spatial]
			xh0, dy1, xh1 = xh0[:len(dy0)], dy1[:len(dy0)], xh1[:len(dy0)] // no bounds checks below
			for i := range dy0 {
				sumDy0 += dy0[i]
				sumDyXhat0 += dy0[i] * xh0[i]
				sumDy1 += dy1[i]
				sumDyXhat1 += dy1[i] * xh1[i]
			}
		}
		bn.backwardChannel(n*spatial, ch, sumDy0, sumDyXhat0)
		bn.backwardChannel(n*spatial, ch+1, sumDy1, sumDyXhat1)
	}
	if ch < c {
		var sumDy, sumDyXhat float32
		for b := 0; b < n; b++ {
			base := (b*c + ch) * spatial
			dy0, xh0 := dy[base:base+spatial], xhat[base:base+spatial]
			for i, d := range dy0 {
				sumDy += d
				sumDyXhat += d * xh0[i]
			}
		}
		bn.backwardChannel(n*spatial, ch, sumDy, sumDyXhat)
	}
	tensor.NormalizeBackwardNCHW(gradIn, gradOut, bn.lastXhat, bn.dxScale, bn.meanDy, bn.meanDyXhat)
	if bn.was2D {
		return gradIn.Reshape(n, c)
	}
	return gradIn
}

// backwardChannel finishes one channel of Backward from its two sums over
// count elements: the parameter gradients, then the three constants of the
// channel's input gradient, dx = dxScale·((dy − meanDy) − xhat·meanDyXhat).
func (bn *BatchNorm) backwardChannel(count, ch int, sumDy, sumDyXhat float32) {
	bn.Beta.Grad.Data[ch] += sumDy
	bn.Gamma.Grad.Data[ch] += sumDyXhat
	bn.meanDy[ch] = sumDy / float32(count)
	bn.meanDyXhat[ch] = sumDyXhat / float32(count)
	bn.dxScale[ch] = bn.Gamma.Value.Data[ch] * bn.invStd[ch]
}

// LayerNorm normalizes over the last dimension of a [B, L, D] or [B, D]
// tensor, with learned per-feature scale/shift. Used by the Transformer
// workload; like BatchNorm's mvar, it has no cross-iteration history, so the
// Transformer's history terms live only in the optimizer (which is why the
// paper's Transformer experiments show the gradient-history-driven outcomes
// rather than the mvar-driven ones).
type LayerNorm struct {
	name        string
	Gamma, Beta *Param
	Eps         float32

	// lastXhat [rows, d] and lastInvStd (one per row) are what Backward reads
	// back from the forward.
	lastXhat   *tensor.Tensor
	lastInvStd []float32
	lastShape  []int

	// ws backs xhat, the output and the input gradient; each loop writes every
	// element.
	ws *tensor.Workspace

	params []*Param
}

// NewLayerNorm creates a LayerNorm over feature dimension d.
func NewLayerNorm(name string, d int) *LayerNorm {
	ln := &LayerNorm{name: name, Gamma: newParam(name+"/gamma", d), Beta: newParam(name+"/beta", d), Eps: 1e-5,
		ws: tensor.NewWorkspace()}
	ln.Gamma.Value.Fill(1)
	return ln
}

// Params implements Layer. Cached; read-only for callers.
func (ln *LayerNorm) Params() []*Param {
	if ln.params == nil {
		ln.params = []*Param{ln.Gamma, ln.Beta}
	}
	return ln.params
}

// Workspace implements WorkspaceHolder.
func (ln *LayerNorm) Workspace() *tensor.Workspace { return ln.ws }

// SetWorkspace implements WorkspaceHolder.
func (ln *LayerNorm) SetWorkspace(ws *tensor.Workspace) { ln.ws = ws }

// Forward implements Layer: tensor.LayerNormRows, whose row moments are
// float64 sums in index order.
func (ln *LayerNorm) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	d := ln.Gamma.Value.Len()
	if x.Shape[len(x.Shape)-1] != d {
		panic("nn: LayerNorm feature dimension mismatch")
	}
	rows := x.Len() / d
	ln.lastShape = append(ln.lastShape[:0], x.Shape...)
	ln.lastXhat = ln.ws.Get("xhat", rows, d)
	if cap(ln.lastInvStd) < rows {
		ln.lastInvStd = make([]float32, rows)
	}
	ln.lastInvStd = ln.lastInvStd[:rows]
	out := ln.ws.Get("out", x.Shape...)
	tensor.LayerNormRows(out.Data, ln.lastXhat.Data, ln.lastInvStd, x.Data, ln.Gamma.Value.Data, ln.Beta.Value.Data, ln.Eps)
	return out
}

// Backward implements Layer: tensor.LayerNormRowsBackward.
func (ln *LayerNorm) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	checkGradLen(ln.name, gradOut, ln.lastXhat)
	gradIn := ln.ws.Get("dx", ln.lastShape...)
	tensor.LayerNormRowsBackward(gradIn.Data, ln.Gamma.Grad.Data, ln.Beta.Grad.Data, gradOut.Data, ln.lastXhat.Data, ln.lastInvStd, ln.Gamma.Value.Data)
	return gradIn
}
