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

	// ws backs the per-call output and input-gradient tensors: activations
	// dominate the training loop's allocation volume, and reusing steady
	// buffers keeps campaign workers off the allocator. Both consumers fully
	// overwrite their buffer (the masked branch writes explicit zeros), so
	// scrubbed/stale contents can never leak into results.
	ws *tensor.Workspace
}

// NewReLU creates a ReLU layer.
func NewReLU() *ReLU { return &ReLU{ws: tensor.NewWorkspace()} }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Workspace implements WorkspaceHolder.
func (r *ReLU) Workspace() *tensor.Workspace { return r.ws }

// SetWorkspace implements WorkspaceHolder.
func (r *ReLU) SetWorkspace(ws *tensor.Workspace) { r.ws = ws }

// Forward implements Layer.
func (r *ReLU) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	// Workspace buffer, not a fresh allocation: masked elements are written
	// as explicit zeros because the buffer carries the previous call's values.
	out := r.ws.Get("out", x.Shape...)
	if cap(r.lastMask) < x.Len() {
		r.lastMask = make([]uint32, x.Len())
	}
	r.lastMask = r.lastMask[:x.Len()]
	tensor.ReLUForward(out.Data, r.lastMask, x.Data)
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := r.ws.Get("dx", gradOut.Shape...)
	tensor.ReLUBackward(gradIn.Data, gradOut.Data, r.lastMask)
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
func NewGELU() *GELU { return &GELU{ws: tensor.NewWorkspace()} }

// Params implements Layer.
func (g *GELU) Params() []*Param { return nil }

// Workspace implements WorkspaceHolder.
func (g *GELU) Workspace() *tensor.Workspace { return g.ws }

// SetWorkspace implements WorkspaceHolder.
func (g *GELU) SetWorkspace(ws *tensor.Workspace) { g.ws = ws }

const geluC = 0.7978845608028654 // sqrt(2/pi)

// Forward implements Layer.
func (g *GELU) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	g.lastX = x
	out := g.ws.Get("out", x.Shape...)
	g.lastTanh = float64Scratch(g.lastTanh, x.Len())
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
	return out
}

// float64Scratch returns buf resliced to n, grown first if it is shorter.
func float64Scratch(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
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
	return gradIn
}
