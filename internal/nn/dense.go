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

	// lastX is the forward's input and zx its ±0 count (tensor.CountZeros),
	// taken once for the forward product and the weight gradient, which both
	// read x as their A.
	lastX *tensor.Tensor
	zx    int
	// st is the forward's stack; rows and dsts are the backward's block
	// rows and gradient destinations, reused.
	st     *Stack
	rows   []int
	dsts   []*tensor.Tensor
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
func (d *Dense) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank(d.name, x, 2)
	d.lastX, d.st, d.zx = x, stackOf(ctx), tensor.CountZeros(x)
	y := tensor.MatMulCountedInto(d.ws.Get("y", x.Shape[0], d.W.Value.Shape[1]), x, d.W.Value, d.zx, d.Mixed)
	tensor.AddBiasNCHW(y, d.B.Value)
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	checkGradRank(d.name, gradOut, 2)
	x := d.lastX
	// dW += xᵀ · gradOut ; db = column sums of gradOut ; dx = gradOut · Wᵀ.
	// The fused-transpose kernels avoid materializing xᵀ and Wᵀ.
	d.BackwardParams(gradOut)
	return tensor.MatMulTBInto(d.ws.Get("dx", x.Shape[0], x.Shape[1]), gradOut, d.W.Value, d.Mixed)
}

// BackwardParams accumulates Backward's weight and bias gradients, each
// block's into its replica's, and forms no input gradient (see
// Sequential.BackwardParams).
func (d *Dense) BackwardParams(gradOut *tensor.Tensor) {
	checkGradRank(d.name, gradOut, 2)
	d.rows = d.st.rows(gradOut.Shape[0], d.rows)
	d.dsts = d.W.grads(d.st, d.dsts)
	tensor.AddMatMulTABlocks(d.dsts, d.lastX, gradOut, d.rows, d.zx, d.Mixed)
	d.dsts = d.B.grads(d.st, d.dsts)
	tensor.SumPerChannelBlocks(d.dsts, gradOut, d.rows)
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
