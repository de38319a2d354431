package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation. The paper notes activation
// functions as a masking mechanism: "a faulty value ... is set to 0 by the
// activation function" (Sec 2), which ReLU does for negative corruption.
type ReLU struct {
	// lastMask is the forward's x > 0 test, all ones or zero per element: the
	// form tensor.ReLUBackward applies with one AND. It is recorded from the
	// input, not the output — a forward hook may corrupt the output afterwards.
	lastMask []uint32

	outAbsMax  float32
	outStatsOK bool

	// ws backs the per-call output and input-gradient tensors: activations
	// dominate the training loop's allocation volume, and reusing steady
	// buffers keeps campaign workers off the allocator. Both consumers fully
	// overwrite their buffer (the masked branch writes explicit zeros), so
	// scrubbed/stale contents can never leak into results.
	ws *tensor.Workspace
}

// NewReLU creates a ReLU layer.
func NewReLU() *ReLU {
	r := allocReLU()
	r.ws = newWorkspace()
	return r
}

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Workspace implements WorkspaceHolder.
func (r *ReLU) Workspace() *tensor.Workspace { return r.ws }

// Forward implements Layer. The kernel tracks the output abs-max in the pass
// that writes it — only kept positives can contribute (masked elements are
// 0, whose abs-bits never win the maximum), so it equals a post-hoc sweep of
// the output; a NaN input is masked to 0, exactly as in the sweep. It is
// published only under Context.CollectStats.
func (r *ReLU) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	// Workspace buffer, not a fresh allocation: masked elements are written
	// as explicit zeros because the buffer carries the previous call's values.
	out := r.ws.Get("out", x.Shape...)
	if cap(r.lastMask) < x.Len() {
		r.lastMask = make([]uint32, x.Len())
	}
	r.lastMask = r.lastMask[:x.Len()]
	absMax := tensor.ReLUForward(out.Data, r.lastMask, x.Data)
	collect := ctx != nil && ctx.CollectStats
	if !collect {
		absMax = 0
	}
	r.outAbsMax, r.outStatsOK = absMax, collect
	// Every element was just rewritten, so any prior out-of-band mutation of
	// the reused buffer is gone; restore the clean-tensor semantics a fresh
	// allocation had.
	out.ClearDirty()
	return out
}

// OutAbsMax implements OutputStats.
func (r *ReLU) OutAbsMax() (float32, bool) { return r.outAbsMax, r.outStatsOK }

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := r.ws.Get("dx", gradOut.Shape...)
	tensor.ReLUBackward(gradIn.Data, gradOut.Data, r.lastMask)
	gradIn.ClearDirty()
	return gradIn
}

// Tanh activation.
type Tanh struct {
	lastOut *tensor.Tensor
}

// NewTanh creates a Tanh layer.
func NewTanh() *Tanh { return &Tanh{} }

// Name implements Layer.
func (t *Tanh) Name() string { return "tanh" }

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Forward implements Layer.
func (t *Tanh) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = float32(math.Tanh(float64(v)))
	}
	t.lastOut = out
	return out
}

// Backward implements Layer.
func (t *Tanh) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(gradOut.Shape...)
	for i, g := range gradOut.Data {
		y := t.lastOut.Data[i]
		gradIn.Data[i] = g * (1 - y*y)
	}
	return gradIn
}

// GELU is the Gaussian error linear unit (tanh approximation), used by the
// Transformer workload: y = 0.5·x·(1 + tanh(c·(x + 0.044715x³))).
type GELU struct {
	lastX *tensor.Tensor
	// lastTanh is the forward's tanh(c·(x + 0.044715x³)) per element, in the
	// float64 it was computed in. The backward pass needs the same tanh of the
	// same argument; math.Tanh is a pure function and Go fuses no multiply-add
	// on amd64, so reading it back is bit for bit what evaluating it again
	// would give — provided x is not written between Forward and Backward.
	lastTanh []float64

	// ws backs the output and the input gradient; both loops write every
	// element.
	ws *tensor.Workspace
}

// NewGELU creates a GELU layer.
func NewGELU() *GELU { return &GELU{ws: newWorkspace()} }

// Name implements Layer.
func (g *GELU) Name() string { return "gelu" }

// Params implements Layer.
func (g *GELU) Params() []*Param { return nil }

// Workspace implements WorkspaceHolder.
func (g *GELU) Workspace() *tensor.Workspace { return g.ws }

const geluC = 0.7978845608028654 // sqrt(2/pi)

// Forward implements Layer.
func (g *GELU) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	g.lastX = x
	out := g.ws.Get("out", x.Shape...)
	if cap(g.lastTanh) < x.Len() {
		g.lastTanh = make([]float64, x.Len())
	}
	g.lastTanh = g.lastTanh[:x.Len()]
	// Three loops, not one, and the middle one all float64. CVTSS2SD writes
	// the low half of its destination and so waits for that register's last
	// writer; with math.Tanh in the same loop that writer is the previous
	// element's tanh (argument and result share X0), so the conversion of
	// every element queues behind the whole Exp chain of the one before and
	// the loop runs at the chain's latency: 37 ns an element at [64,8,12],
	// against 11 with the calls left free to overlap
	// (BenchmarkKernel_GELUForward). Same expressions, same bits.
	th, od := g.lastTanh, out.Data[:x.Len()]
	for i, v := range x.Data {
		u := float64(v)
		th[i] = geluC * (u + 0.044715*u*u*u)
	}
	for i, a := range th {
		th[i] = math.Tanh(a)
	}
	for i, v := range x.Data {
		od[i] = float32(0.5 * float64(v) * (1 + th[i]))
	}
	out.ClearDirty()
	return out
}

// Backward implements Layer: dy/dx = 0.5(1+t) + 0.5x(1−t²)·c(1 + 3·0.044715x²)
// with t the forward's tanh.
func (g *GELU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	checkGradLen("gelu", gradOut, g.lastX)
	gradIn := g.ws.Get("dx", g.lastX.Shape...)
	gd := gradOut.Data
	xd, th, dx := g.lastX.Data[:len(gd)], g.lastTanh[:len(gd)], gradIn.Data[:len(gd)]
	for i, gv := range gd {
		u, t := float64(xd[i]), th[i]
		dInner := geluC * (1 + 3*0.044715*u*u)
		dx[i] = gv * float32(0.5*(1+t)+0.5*u*(1-t*t)*dInner)
	}
	gradIn.ClearDirty()
	return gradIn
}

// Dropout zeroes each element with probability P during training and scales
// the survivors by 1/(1−P) (inverted dropout). The mask is drawn from
// ctx.Rand, which the engine derives deterministically per iteration so that
// re-execution (Sec 5.2) reproduces identical masks.
type Dropout struct {
	P        float32
	lastMask []float32
}

// NewDropout creates a dropout layer with drop probability p.
func NewDropout(p float32) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0,1)")
	}
	return &Dropout{P: p}
}

// Name implements Layer.
func (d *Dropout) Name() string { return "dropout" }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Forward implements Layer.
func (d *Dropout) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if ctx == nil || !ctx.Training || d.P == 0 {
		d.lastMask = nil
		return x
	}
	if ctx.Rand == nil {
		panic("nn: dropout requires ctx.Rand during training")
	}
	out := tensor.New(x.Shape...)
	if cap(d.lastMask) < x.Len() {
		d.lastMask = make([]float32, x.Len())
	}
	d.lastMask = d.lastMask[:x.Len()]
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if ctx.Rand.Float32() < d.P {
			d.lastMask[i] = 0
		} else {
			d.lastMask[i] = scale
			out.Data[i] = v * scale
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if d.lastMask == nil {
		return gradOut
	}
	gradIn := tensor.New(gradOut.Shape...)
	for i, g := range gradOut.Data {
		gradIn.Data[i] = g * d.lastMask[i]
	}
	return gradIn
}
