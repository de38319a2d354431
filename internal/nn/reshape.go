package nn

import "repro/internal/tensor"

// Reshape views the input [B, ...] as [B, Tail...] without copying. It
// bridges layout conventions between layer families — e.g. presenting an
// NCHW maze grid [B, 1, H, W] to an LSTM as the sequence [B, H, W] (H steps
// of W-dimensional rows).
type Reshape struct {
	// Tail is the target shape excluding the batch dimension.
	Tail      []int
	lastShape []int
}

// NewReshape creates a reshape layer with the given non-batch target shape.
func NewReshape(tail ...int) *Reshape {
	return &Reshape{Tail: append([]int(nil), tail...)}
}

// Params implements Layer.
func (r *Reshape) Params() []*Param { return nil }

// Forward implements Layer.
func (r *Reshape) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	r.lastShape = append(r.lastShape[:0], x.Shape...)
	shape := append([]int{x.Shape[0]}, r.Tail...)
	return x.Reshape(shape...)
}

// Backward implements Layer.
func (r *Reshape) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Reshape(r.lastShape...)
}
