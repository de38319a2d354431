package nn

import "repro/internal/tensor"

// LeakyReLU is the leaky rectifier used by YOLO-family detectors:
// y = x for x > 0, αx otherwise.
type LeakyReLU struct {
	Alpha    float32
	lastPass []bool
}

// NewLeakyReLU creates a leaky ReLU with the given negative slope
// (YOLO uses 0.1).
func NewLeakyReLU(alpha float32) *LeakyReLU {
	if alpha < 0 || alpha >= 1 {
		panic("nn: leaky ReLU slope must be in [0,1)")
	}
	return &LeakyReLU{Alpha: alpha}
}

// Params implements Layer.
func (l *LeakyReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (l *LeakyReLU) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	if cap(l.lastPass) < x.Len() {
		l.lastPass = make([]bool, x.Len())
	}
	l.lastPass = l.lastPass[:x.Len()]
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			l.lastPass[i] = true
		} else {
			out.Data[i] = l.Alpha * v
			l.lastPass[i] = false
		}
	}
	return out
}

// Backward implements Layer.
func (l *LeakyReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(gradOut.Shape...)
	for i, g := range gradOut.Data {
		if l.lastPass[i] {
			gradIn.Data[i] = g
		} else {
			gradIn.Data[i] = l.Alpha * g
		}
	}
	return gradIn
}
