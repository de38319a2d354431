package nn

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b for x of shape [B, In].
type Dense struct {
	name string
	W    *Param // [In, Out]
	B    *Param // [Out]
	// Mixed selects bfloat16 MAC precision (the modeled accelerator's
	// matrix unit) for the forward and backward matrix multiplies.
	Mixed bool

	lastX  *tensor.Tensor
	ws     *tensor.Workspace
	params []*Param
}

// NewDense creates a Dense layer with He-normal initialized weights
// (Property 1 of Algorithm 1 assumes variance-preserving initialization).
func NewDense(name string, in, out int, r *rng.Rand, mixed bool) *Dense {
	d := &Dense{name: name, W: newParam(name+"/kernel", in, out), B: newParam(name+"/bias", out),
		Mixed: mixed, ws: tensor.NewWorkspace()}
	std := math.Sqrt(2.0 / float64(in))
	d.W.Value.FillNormal(r, 0, std)
	return d
}

// Params implements Layer. The slice is cached (Param pointers are stable
// after construction) and must be treated as read-only.
func (d *Dense) Params() []*Param {
	if d.params == nil {
		d.params = []*Param{d.W, d.B}
	}
	return d.params
}

// Workspace implements WorkspaceHolder.
func (d *Dense) Workspace() *tensor.Workspace { return d.ws }

// SetWorkspace implements WorkspaceHolder.
func (d *Dense) SetWorkspace(ws *tensor.Workspace) { d.ws = ws }

// FanIn returns the number of partial sums accumulated per output neuron
// (N_l in Algorithm 1).
func (d *Dense) FanIn() int { return d.W.Value.Shape[0] }

// Forward implements Layer.
func (d *Dense) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank(d.name, x, 2)
	d.lastX = x
	y := tensor.MatMulInto(d.ws.Get("y", x.Shape[0], d.W.Value.Shape[1]), x, d.W.Value, d.Mixed)
	tensor.AddBiasNCHW(y, d.B.Value)
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	checkGradRank(d.name, gradOut, 2)
	x := d.lastX
	// dW += xᵀ · gradOut ; db = column sums of gradOut ; dx = gradOut · Wᵀ.
	// The fused-transpose kernels avoid materializing xᵀ and Wᵀ.
	tensor.AddMatMulTA(d.W.Grad, x, gradOut, d.Mixed)
	dX := tensor.MatMulTBInto(d.ws.Get("dx", x.Shape[0], x.Shape[1]), gradOut, d.W.Value, d.Mixed)
	tensor.SumPerChannelNCHW(gradOut, d.B.Grad)
	return dX
}

// BackwardParams accumulates Backward's weight and bias gradients and forms
// no input gradient (see Sequential.BackwardParams).
func (d *Dense) BackwardParams(gradOut *tensor.Tensor) {
	checkGradRank(d.name, gradOut, 2)
	tensor.AddMatMulTA(d.W.Grad, d.lastX, gradOut, d.Mixed)
	tensor.SumPerChannelNCHW(gradOut, d.B.Grad)
}

// Flatten reshapes any input [B, ...] to [B, F]. It has no parameters.
type Flatten struct {
	lastShape []int
}

// NewFlatten creates a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	f.lastShape = append(f.lastShape[:0], x.Shape...)
	features := 1
	for _, s := range x.Shape[1:] {
		features *= s
	}
	return x.Reshape(x.Shape[0], features)
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Reshape(f.lastShape...)
}
