package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// batchNormRef is BatchNorm's training forward and backward as they were
// written before the layer summed two channels side by side and hoisted
// invStd: one channel at a time, every sum one chain, invStd recomputed at
// each (batch, channel). It is the oracle for the per-element results and
// for the order of every reduction.
func batchNormRef(x, gradOut *tensor.Tensor, gamma, beta []float32, eps float32) (out, gradIn *tensor.Tensor, dGamma, dBeta []float32) {
	n, c, spatial := x.Shape[0], x.Shape[1], x.Shape[2]*x.Shape[3]
	mean, variance := make([]float32, c), make([]float32, c)
	count := float64(n * spatial)
	for ch := 0; ch < c; ch++ {
		var sum, sumsq float64
		for b := 0; b < n; b++ {
			base := (b*c + ch) * spatial
			for i := 0; i < spatial; i++ {
				v := float64(x.Data[base+i])
				sum += v
				sumsq += v * v
			}
		}
		m := sum / count
		mean[ch] = float32(m)
		variance[ch] = float32(sumsq/count - m*m)
	}
	out, gradIn = tensor.New(x.Shape...), tensor.New(x.Shape...)
	xhat := tensor.New(x.Shape...)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			invStd := 1 / float32(math.Sqrt(float64(variance[ch]+eps)))
			base := (b*c + ch) * spatial
			for i := 0; i < spatial; i++ {
				xh := (x.Data[base+i] - mean[ch]) * invStd
				xhat.Data[base+i] = xh
				out.Data[base+i] = gamma[ch]*xh + beta[ch]
			}
		}
	}
	dGamma, dBeta = make([]float32, c), make([]float32, c)
	cnt := float32(n * spatial)
	for ch := 0; ch < c; ch++ {
		invStd := 1 / float32(math.Sqrt(float64(variance[ch]+eps)))
		var sumDy, sumDyXhat float32
		for b := 0; b < n; b++ {
			base := (b*c + ch) * spatial
			for i := 0; i < spatial; i++ {
				dy := gradOut.Data[base+i]
				sumDy += dy
				sumDyXhat += dy * xhat.Data[base+i]
			}
		}
		dBeta[ch] += sumDy
		dGamma[ch] += sumDyXhat
		meanDy := sumDy / cnt
		meanDyXhat := sumDyXhat / cnt
		for b := 0; b < n; b++ {
			base := (b*c + ch) * spatial
			for i := 0; i < spatial; i++ {
				dy := gradOut.Data[base+i]
				xh := xhat.Data[base+i]
				gradIn.Data[base+i] = gamma[ch] * invStd * (dy - meanDy - xh*meanDyXhat)
			}
		}
	}
	return out, gradIn, dGamma, dBeta
}

// sameFloats compares bit for bit, any NaN matching any NaN: where two NaNs
// meet in one sum, which payload survives is the register allocator's choice
// in the oracle and the layer alike.
func sameFloats(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s: element %d = %#08x (%v), want %#08x (%v)", name, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// TestBatchNormBitwiseVsSequential: channel counts on both sides of the pair
// width, batches 1–3, with magnitudes 1e8 apart that cancel (so a sum taken
// in another order comes out different) and, poisoned, ±Inf and a NaN in the
// input and the output gradient. Run twice on one layer: the statistics
// buffers it owns are reused, not re-made.
func TestBatchNormBitwiseVsSequential(t *testing.T) {
	r := rng.NewFromInt(93)
	fill := func(x *tensor.Tensor, poison bool) {
		for i := range x.Data {
			v := float32(r.NormFloat64())
			switch r.Intn(4) {
			case 0:
				v *= 1e8
			case 1:
				v *= 1e-8
			}
			x.Data[i] = v
		}
		for i := 0; i+1 < len(x.Data); i += 5 {
			x.Data[i+1] = -x.Data[i]
		}
		if poison {
			for i, bits := range []uint32{0x7f800000, 0xff800000, 0x7fc00001} {
				x.Data[(i*len(x.Data)/3+i)%len(x.Data)] = math.Float32frombits(bits)
			}
		}
	}
	for _, c := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{1, 2, 3} {
			bn := NewBatchNorm("bn", c, 0.9)
			for round, poison := range []bool{false, true, false} {
				name := fmt.Sprintf("n=%d c=%d round=%d", n, c, round)
				x, gradOut := tensor.New(n, c, 3, 2), tensor.New(n, c, 3, 2)
				fill(x, poison)
				fill(gradOut, poison)
				bn.Gamma.Value.FillNormal(r, 1, 0.5)
				bn.Beta.Value.FillNormal(r, 0, 0.5)
				bn.Gamma.ZeroGrad()
				bn.Beta.ZeroGrad()

				wantOut, wantIn, wantDG, wantDB := batchNormRef(x, gradOut, bn.Gamma.Value.Data, bn.Beta.Value.Data, bn.Eps)
				out := bn.Forward(&Context{Training: true}, x)
				sameFloats(t, "Forward "+name, out.Data, wantOut.Data)
				gradIn := bn.Backward(gradOut)
				sameFloats(t, "Backward input gradient "+name, gradIn.Data, wantIn.Data)
				sameFloats(t, "Backward gamma gradient "+name, bn.Gamma.Grad.Data, wantDG)
				sameFloats(t, "Backward beta gradient "+name, bn.Beta.Grad.Data, wantDB)
			}
		}
	}
}

// TestBatchNormStepZeroAllocs: with the batch statistics in buffers the layer
// owns, a steady-state training forward + backward allocates nothing.
func TestBatchNormStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	bn := NewBatchNorm("bn", 8, 0.9)
	x, g := randTensor(5, 2, 8, 6, 6), randTensor(6, 2, 8, 6, 6)
	ctx := &Context{Training: true}
	step := func() { bn.Forward(ctx, x); bn.Backward(g) }
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("BatchNorm step allocates %v times", allocs)
	}
}

// TestConvDenseStepZeroAllocs: a steady-state forward + backward of Conv2D and
// of Dense allocates nothing — every buffer is the workspace's, and the rank
// check of the output gradient builds its "<name> backward" message only when
// it fails (names this long do not fit the stack buffer a short-lived
// concatenation gets, so building it every call would show here).
func TestConvDenseStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ctx := &Context{Training: true}
	conv := NewConv2D("resnet/stage2/block1/conv2-3x3-same", 8, 8, 3, 3, 1, 1, rng.NewFromInt(7), false)
	x, g := randTensor(8, 2, 8, 6, 6), randTensor(9, 2, 8, 6, 6)
	dense := NewDense("resnet/head/classifier-after-global-pool", 8, 10, rng.NewFromInt(10), false)
	dx, dg := randTensor(11, 2, 8), randTensor(12, 2, 10)
	step := func() {
		conv.Forward(ctx, x)
		conv.Backward(g)
		dense.Forward(ctx, dx)
		dense.Backward(dg)
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("Conv2D + Dense step allocates %v times", allocs)
	}
}
