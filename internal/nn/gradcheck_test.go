package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// gradCheck verifies a layer's backward pass against central finite
// differences of the scalar loss L = sum(w ⊙ forward(x)) where w is a fixed
// random weighting (so every output element matters).
func gradCheck(t *testing.T, layer Layer, x *tensor.Tensor, checkParams bool, tol float64) {
	t.Helper()
	ctx := &Context{Training: true}
	r := rng.NewFromInt(555)

	forward := func() (*tensor.Tensor, *tensor.Tensor) {
		out := layer.Forward(ctx, x.Clone())
		return out, out
	}

	out, _ := forward()
	w := tensor.New(out.Shape...)
	w.FillNormal(r, 0, 1)

	loss := func() float64 {
		o, _ := forward()
		var s float64
		for i := range o.Data {
			s += float64(o.Data[i]) * float64(w.Data[i])
		}
		return s
	}

	// Analytic gradients: run forward once more (to set caches), then
	// backward with dL/dout = w.
	_ = ctx
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	_, _ = forward()
	gradIn := layer.Backward(w.Clone())

	const eps = 1e-2
	// Check input gradient on a sample of positions.
	step := x.Len()/7 + 1
	for idx := 0; idx < x.Len(); idx += step {
		orig := x.Data[idx]
		x.Data[idx] = orig + eps
		up := loss()
		x.Data[idx] = orig - eps
		down := loss()
		x.Data[idx] = orig
		numeric := (up - down) / (2 * eps)
		got := float64(gradIn.Data[idx])
		if math.Abs(numeric-got) > tol*(1+math.Abs(numeric)) {
			t.Errorf("%T: gradIn[%d] = %v, numeric %v", layer, idx, got, numeric)
		}
	}
	if !checkParams {
		return
	}
	for _, p := range layer.Params() {
		pstep := p.Value.Len()/5 + 1
		for idx := 0; idx < p.Value.Len(); idx += pstep {
			orig := p.Value.Data[idx]
			p.Value.Data[idx] = orig + eps
			up := loss()
			p.Value.Data[idx] = orig - eps
			down := loss()
			p.Value.Data[idx] = orig
			numeric := (up - down) / (2 * eps)
			got := float64(p.Grad.Data[idx])
			if math.Abs(numeric-got) > tol*(1+math.Abs(numeric)) {
				t.Errorf("%T: param %s grad[%d] = %v, numeric %v", layer, p.Name, idx, got, numeric)
			}
		}
	}
}

func randTensor(seed int64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.FillNormal(rng.NewFromInt(seed), 0, 1)
	return x
}

func TestDenseGradient(t *testing.T) {
	layer := NewDense("dense", 6, 4, rng.NewFromInt(1), false)
	gradCheck(t, layer, randTensor(2, 3, 6), true, 2e-2)
}

func TestConv2DGradient(t *testing.T) {
	layer := NewConv2D("conv", 2, 3, 3, 3, 1, 1, rng.NewFromInt(3), false)
	gradCheck(t, layer, randTensor(4, 2, 2, 4, 4), true, 3e-2)
}

func TestBatchNormGradient(t *testing.T) {
	layer := NewBatchNorm("bn", 3, 0.9)
	gradCheck(t, layer, randTensor(5, 4, 3, 3, 3), true, 5e-2)
}

func TestBatchNorm2DInputGradient(t *testing.T) {
	layer := NewBatchNorm("bn2d", 5, 0.9)
	gradCheck(t, layer, randTensor(6, 8, 5), true, 5e-2)
}

func TestLayerNormGradient(t *testing.T) {
	layer := NewLayerNorm("ln", 6)
	gradCheck(t, layer, randTensor(7, 3, 4, 6), true, 5e-2)
}

func TestReLUGradient(t *testing.T) {
	gradCheck(t, NewReLU(), randTensor(8, 4, 5), false, 2e-2)
}

func TestGELUGradient(t *testing.T) {
	gradCheck(t, NewGELU(), randTensor(10, 4, 5), false, 2e-2)
}

func TestMaxPoolGradient(t *testing.T) {
	// Use well-separated values to avoid argmax flips under perturbation.
	x := randTensor(11, 2, 2, 4, 4)
	x.Scale(10)
	gradCheck(t, NewMaxPool2D(2, 2), x, false, 2e-2)
}

func TestGlobalAvgPoolGradient(t *testing.T) {
	gradCheck(t, NewGlobalAvgPool(), randTensor(12, 2, 3, 4, 4), false, 2e-2)
}

func TestResidualGradient(t *testing.T) {
	r := rng.NewFromInt(13)
	// GELU keeps the composite smooth so central differences are reliable.
	block := NewResidual("res",
		NewConv2D("res/conv1", 2, 2, 3, 3, 1, 1, r, false),
		NewGELU(),
		NewConv2D("res/conv2", 2, 2, 3, 3, 1, 1, r, false),
	)
	gradCheck(t, block, randTensor(14, 2, 2, 4, 4), true, 3e-2)
}

func TestDenseBlockGradient(t *testing.T) {
	r := rng.NewFromInt(15)
	block := NewDenseBlock("dense-block",
		[]Layer{NewConv2D("db/conv1", 2, 2, 3, 3, 1, 1, r, false), NewGELU()},
		[]Layer{NewConv2D("db/conv2", 4, 2, 3, 3, 1, 1, r, false), NewGELU()},
	)
	gradCheck(t, block, randTensor(16, 2, 2, 3, 3), true, 3e-2)
}

func TestSeqDenseGradient(t *testing.T) {
	layer := NewSeqDense("seqdense", 5, 3, rng.NewFromInt(17), false)
	gradCheck(t, layer, randTensor(18, 2, 4, 5), true, 2e-2)
}

func TestSeqMeanGradient(t *testing.T) {
	gradCheck(t, NewSeqMean(), randTensor(19, 2, 4, 5), false, 2e-2)
}

func TestAttentionGradient(t *testing.T) {
	layer := NewAttention("attn", 4, 3, rng.NewFromInt(20), false)
	gradCheck(t, layer, randTensor(21, 2, 3, 4), true, 5e-2)
}

func TestLSTMGradient(t *testing.T) {
	layer := NewLSTM("lstm", 3, 4, rng.NewFromInt(22), false)
	gradCheck(t, layer, randTensor(23, 2, 3, 3), true, 5e-2)
}

func TestLeakyReLUGradient(t *testing.T) {
	x := randTensor(26, 4, 5)
	x.Scale(5) // keep values away from the kink
	gradCheck(t, NewLeakyReLU(0.1), x, false, 2e-2)
}

func TestReshapeGradient(t *testing.T) {
	gradCheck(t, NewReshape(4, 5), randTensor(28, 2, 1, 4, 5), false, 2e-2)
}
