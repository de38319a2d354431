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
	// CollectStats forces fused output/gradient reductions on every pass,
	// independent of Context.CollectStats — set by the ABFT wrapper, which
	// also needs the output sum in Forward and the weight-gradient sum in
	// Backward (where no Context is available).
	CollectStats bool

	lastX  *tensor.Tensor
	ws     *tensor.Workspace
	params []*Param

	outSum     float64
	outAbsMax  float32
	outStatsOK bool
	gradSum    float64
	gradSumOK  bool
}

// NewDense creates a Dense layer with He-normal initialized weights
// (Property 1 of Algorithm 1 assumes variance-preserving initialization).
func NewDense(name string, in, out int, r *rng.Rand, mixed bool) *Dense {
	d := allocDense()
	*d = Dense{name: name, W: newParam(paramName(name, "kernel"), in, out), B: newParam(paramName(name, "bias"), out),
		Mixed: mixed, ws: newWorkspace()}
	std := math.Sqrt(2.0 / float64(in))
	d.W.Value.FillNormal(r, 0, std)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer. The slice is cached (Param pointers are stable
// after construction) and must be treated as read-only.
func (d *Dense) Params() []*Param {
	if d.params == nil {
		d.params = append(carveParams(2), d.W, d.B)
	}
	return d.params
}

// Workspace implements WorkspaceHolder.
func (d *Dense) Workspace() *tensor.Workspace { return d.ws }

// FanIn returns the number of partial sums accumulated per output neuron
// (N_l in Algorithm 1).
func (d *Dense) FanIn() int { return d.W.Value.Shape[0] }

// Forward implements Layer. With stat collection on (layer flag or
// Context.CollectStats), the bias addition doubles as the reduction pass:
// AddBiasNCHWEp returns the output sum (ABFT's checksum read) and abs-max
// (Ranger's range read) accumulated during the same write loop.
func (d *Dense) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank(d.name, x, 2)
	d.lastX = x
	y := tensor.MatMulInto(d.ws.Get("y", x.Shape[0], d.W.Value.Shape[1]), x, d.W.Value, d.Mixed)
	if d.CollectStats || (ctx != nil && ctx.CollectStats) {
		d.outSum, d.outAbsMax = tensor.AddBiasNCHWEp(y, d.B.Value)
		d.outStatsOK = true
	} else {
		tensor.AddBiasNCHW(y, d.B.Value)
		d.outStatsOK = false
	}
	return y
}

// OutAbsMax implements OutputStats.
func (d *Dense) OutAbsMax() (float32, bool) { return d.outAbsMax, d.outStatsOK }

// LastOutSum returns the fused total sum of the most recent forward output
// (the ABFT output checksum), if one was collected.
func (d *Dense) LastOutSum() (float64, bool) { return d.outSum, d.outStatsOK }

// LastGradSum returns the fused total sum of W.Grad as of the most recent
// backward accumulation, if one was collected.
func (d *Dense) LastGradSum() (float64, bool) { return d.gradSum, d.gradSumOK }

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	checkGradRank(d.name, gradOut, 2)
	x := d.lastX
	// dW = xᵀ · gradOut ; db = column sums of gradOut ; dx = gradOut · Wᵀ.
	// The fused-transpose kernels avoid materializing xᵀ and Wᵀ.
	dW := tensor.MatMulTAInto(d.ws.Get("dw", d.W.Value.Shape[0], d.W.Value.Shape[1]), x, gradOut, d.Mixed)
	dX := tensor.MatMulTBInto(d.ws.Get("dx", x.Shape[0], x.Shape[1]), gradOut, d.W.Value, d.Mixed)
	if d.CollectStats {
		d.gradSum = d.W.Grad.AddInPlaceSum(dW)
		d.gradSumOK = true
	} else {
		d.W.Grad.AddInPlace(dW)
		d.gradSumOK = false
	}
	tensor.SumPerChannelNCHW(gradOut, d.B.Grad)
	return dX
}

// Flatten reshapes any input [B, ...] to [B, F]. It has no parameters.
type Flatten struct {
	lastShape []int
}

// NewFlatten creates a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

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
