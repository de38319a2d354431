package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Residual wraps a branch of layers with an identity skip connection:
// y = x + branch(x). The branch must preserve the input shape. This is the
// structural element of the Resnet workloads; the paper's Observation (3)
// hinges on whether normalization layers inside such branches are present.
type Residual struct {
	name   string
	Branch []Layer

	// ws backs the skip-add output and input-gradient tensors; both are
	// produced by a full copy of one operand before the in-place add, so the
	// reused buffers are always completely overwritten.
	ws *tensor.Workspace

	params []*Param
}

// NewResidual creates a residual block around the given branch layers.
func NewResidual(name string, branch ...Layer) *Residual {
	return &Residual{name: name, Branch: branch, ws: newWorkspace()}
}

// Workspace implements WorkspaceHolder.
func (r *Residual) Workspace() *tensor.Workspace { return r.ws }

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Params implements Layer. The branch is fixed at construction, so the
// flattened slice is cached; read-only for callers.
func (r *Residual) Params() []*Param {
	if r.params == nil {
		total := 0
		for _, l := range r.Branch {
			total += len(l.Params())
		}
		r.params = carveParams(total)
		for _, l := range r.Branch {
			r.params = append(r.params, l.Params()...)
		}
	}
	return r.params
}

// Forward implements Layer.
func (r *Residual) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	y := x
	for _, l := range r.Branch {
		y = l.Forward(ctx, y)
	}
	if !y.SameShape(x) {
		panic(fmt.Sprintf("nn: residual branch %s changed shape %v -> %v", r.name, x.Shape, y.Shape))
	}
	out := r.ws.Get("out", y.Shape...)
	copy(out.Data, y.Data)
	out.AddInPlace(x)
	out.ClearDirty()
	return out
}

// Sublayers implements Container.
func (r *Residual) Sublayers() []Layer { return r.Branch }

// Backward implements Layer.
func (r *Residual) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	grad := gradOut
	for i := len(r.Branch) - 1; i >= 0; i-- {
		grad = r.Branch[i].Backward(grad)
	}
	// Skip path contributes gradOut directly.
	total := r.ws.Get("dx", grad.Shape...)
	copy(total.Data, grad.Data)
	total.AddInPlace(gradOut)
	total.ClearDirty()
	return total
}

// DenseBlock implements DenseNet-style connectivity: each stage's output is
// concatenated channel-wise with its input, so stage k sees all previous
// feature maps. Stages must be convolution-like layers that keep the
// spatial size (the constructor in workloads uses 3×3 same-padding convs
// followed by activations).
type DenseBlock struct {
	name   string
	Stages [][]Layer // each stage is a small pipeline

	lastChannels []int // input channel count at each stage, for backward split

	params []*Param
}

// NewDenseBlock builds a dense block from stages.
func NewDenseBlock(name string, stages ...[]Layer) *DenseBlock {
	return &DenseBlock{name: name, Stages: stages}
}

// Name implements Layer.
func (d *DenseBlock) Name() string { return d.name }

// Params implements Layer. Stages are fixed at construction, so the
// flattened slice is cached; read-only for callers.
func (d *DenseBlock) Params() []*Param {
	if d.params == nil {
		total := 0
		for _, stage := range d.Stages {
			for _, l := range stage {
				total += len(l.Params())
			}
		}
		d.params = carveParams(total)
		for _, stage := range d.Stages {
			for _, l := range stage {
				d.params = append(d.params, l.Params()...)
			}
		}
	}
	return d.params
}

// Sublayers implements Container.
func (d *DenseBlock) Sublayers() []Layer {
	var ls []Layer
	for _, stage := range d.Stages {
		ls = append(ls, stage...)
	}
	return ls
}

// concatChannels concatenates two NCHW tensors along the channel axis.
func concatChannels(a, b *tensor.Tensor) *tensor.Tensor {
	n, ca, h, w := a.Shape[0], a.Shape[1], a.Shape[2], a.Shape[3]
	cb := b.Shape[1]
	out := tensor.New(n, ca+cb, h, w)
	spatial := h * w
	for bi := 0; bi < n; bi++ {
		copy(out.Data[bi*(ca+cb)*spatial:], a.Data[bi*ca*spatial:(bi+1)*ca*spatial])
		copy(out.Data[(bi*(ca+cb)+ca)*spatial:], b.Data[bi*cb*spatial:(bi+1)*cb*spatial])
	}
	return out
}

// splitChannels splits an NCHW tensor into the first ca channels and the
// rest.
func splitChannels(t *tensor.Tensor, ca int) (a, b *tensor.Tensor) {
	n, c, h, w := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
	cb := c - ca
	a = tensor.New(n, ca, h, w)
	b = tensor.New(n, cb, h, w)
	spatial := h * w
	for bi := 0; bi < n; bi++ {
		copy(a.Data[bi*ca*spatial:(bi+1)*ca*spatial], t.Data[bi*c*spatial:])
		copy(b.Data[bi*cb*spatial:(bi+1)*cb*spatial], t.Data[(bi*c+ca)*spatial:])
	}
	return a, b
}

// Forward implements Layer.
func (d *DenseBlock) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	d.lastChannels = d.lastChannels[:0]
	cur := x
	for _, stage := range d.Stages {
		d.lastChannels = append(d.lastChannels, cur.Shape[1])
		y := cur
		for _, l := range stage {
			y = l.Forward(ctx, y)
		}
		cur = concatChannels(cur, y)
	}
	return cur
}

// Backward implements Layer.
func (d *DenseBlock) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	grad := gradOut
	for si := len(d.Stages) - 1; si >= 0; si-- {
		ca := d.lastChannels[si]
		gradInput, gradBranch := splitChannels(grad, ca)
		g := gradBranch
		stage := d.Stages[si]
		for li := len(stage) - 1; li >= 0; li-- {
			g = stage[li].Backward(g)
		}
		gradInput.AddInPlace(g)
		grad = gradInput
	}
	return grad
}
