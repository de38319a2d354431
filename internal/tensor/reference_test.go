package tensor

import "fmt"

// The reference forms the tests compare the kernels against: whole-tensor
// convolution and lowering into fresh buffers, a materialized transpose, and
// multi-index element reads.

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D requires 2-D, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return t
}

// Im2Col unfolds input [N,C,H,W] into a matrix [C*KH*KW, N*OH*OW] so that
// convolution becomes a matrix multiply — the same lowering the modeled
// accelerator's sequencer performs when tiling a convolution onto the MAC
// array.
func Im2Col(in *Tensor, p ConvParams) *Tensor {
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv output %dx%d is empty for input %v params %+v", oh, ow, in.Shape, p))
	}
	return Im2ColInto(New(c*p.KH*p.KW, n*oh*ow), in, p)
}

// Col2Im folds a [C*KH*KW, N*OH*OW] matrix back into an [N,C,H,W] tensor by
// summing overlapping contributions — the adjoint of Im2Col, used for the
// input-gradient computation in the backward pass.
func Col2Im(cols *Tensor, n, c, h, w int, p ConvParams) *Tensor {
	return Col2ImInto(New(n, c, h, w), cols, p)
}

// Conv2D computes the forward convolution of input [N,C,H,W] with kernels
// [K,C,KH,KW], producing [N,K,OH,OW]. When mixed is true the MAC products go
// through bfloat16 rounding.
func Conv2D(in, kernel *Tensor, p ConvParams, mixed bool) *Tensor {
	out, _ := Conv2DForwardWS(nil, in, kernel, p, mixed)
	return out
}

// Conv2DBackward computes the gradients of a convolution given the output
// gradient [N,K,OH,OW]. It returns (gradInput [N,C,H,W], gradKernel
// [K,C,KH,KW]). These are the "input gradient operations" and "weight
// gradient operations" of Table 1's terminology.
func Conv2DBackward(in, kernel, gradOut *Tensor, p ConvParams, mixed bool) (gradIn, gradKernel *Tensor) {
	return Conv2DBackwardWS(nil, in, kernel, gradOut, nil, p, mixed)
}
