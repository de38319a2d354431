package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// geluC is sqrt(2/π), the constant of GELU's tanh approximation.
const geluC = 0.7978845608028654

// geluForward and geluGrad are GELU as the layer evaluated it before it kept
// the forward's tanh for the backward pass: each a function of x alone, the
// gradient computing math.Tanh of the forward's argument a second time. The
// oracle of TestGELUCachedTanhBitwise.
func geluForward(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(geluC*(x+0.044715*x*x*x)))
}

func geluGrad(x float64) float64 {
	inner := geluC * (x + 0.044715*x*x*x)
	t := math.Tanh(inner)
	dInner := geluC * (1 + 3*0.044715*x*x)
	return 0.5*(1+t) + 0.5*x*(1-t*t)*dInner
}

// geluSpecials are inputs on every branch of math.Tanh and of the float
// conversions around it: both zeros, the smallest and largest subnormals, the
// floats on either side of the x where tanh's argument crosses 0.625 (below it
// math.Tanh is a rational polynomial, above it an exp), arguments past its
// saturation point, infinities, and quiet and signalling NaNs with payloads.
func geluSpecials() []float32 {
	lo, hi := 0.0, 2.0
	for i := 0; i < 80; i++ { // the x with geluC·(x + 0.044715x³) = 0.625
		mid := (lo + hi) / 2
		if geluC*(mid+0.044715*mid*mid*mid) < 0.625 {
			lo = mid
		} else {
			hi = mid
		}
	}
	vals := []float32{0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 1.1754942e-38, -1.1754942e-38,
		5, -5, 10, -10, 30, -30, 1e10, -1e10, math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, bits := range []uint32{0x7fc00000, 0xffc00000, 0x7fc12345, 0xffd54321, 0x7f812345, 0xffa00001} {
		vals = append(vals, math.Float32frombits(bits))
	}
	edge := float32(lo)
	for i := 0; i < 4; i++ {
		edge = math.Nextafter32(edge, 0)
	}
	for i := 0; i < 9; i++ {
		vals = append(vals, edge, -edge)
		edge = math.Nextafter32(edge, 2)
	}
	return vals
}

// sameBits compares bit for bit, NaN payloads included.
func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %#08x (%v), want %#08x (%v)", name, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// seqInput is a normal-distributed tensor with special values at its front.
func seqInput(r *rng.Rand, special []float32, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.FillNormal(r, 0, 2)
	copy(x.Data, special)
	return x
}

// batchSwing is the sequence of batch sizes a campaign engine puts through a
// layer: the training shard, the evaluation batch, the training shard again.
// The last entry follows a workspace scrub.
var batchSwing = []int{2, 64, 2, 2}

// TestGELUCachedTanhBitwise: GELU with the forward's tanh read back in the
// backward pass against the stateless formulation, every bit of the output
// and of the input gradient, on one layer across the batch swing (its buffers
// and its tanh cache are reused, grown once, resliced) and a scrub.
func TestGELUCachedTanhBitwise(t *testing.T) {
	r := rng.NewFromInt(41)
	g := NewGELU()
	for step, b := range batchSwing {
		x := seqInput(r, geluSpecials(), b, 8, 12)
		gradOut := seqInput(r, []float32{0, float32(math.Inf(1)), float32(math.NaN()), -1e30}, b, 8, 12)
		wantOut, wantIn := make([]float32, x.Len()), make([]float32, x.Len())
		for i, v := range x.Data {
			wantOut[i] = float32(geluForward(float64(v)))
			wantIn[i] = gradOut.Data[i] * float32(geluGrad(float64(v)))
		}
		if step == len(batchSwing)-1 {
			g.Workspace().Reset()
		}
		name := fmt.Sprintf("step %d (batch %d)", step, b)
		sameBits(t, name+" output", g.Forward(nil, x).Data, wantOut)
		sameBits(t, name+" input gradient", g.Backward(gradOut).Data, wantIn)
	}
}

// layerNormRef is LayerNorm's forward and backward as they were written
// before the layer drew its buffers from a Workspace and walked rows as
// slices: every access indexed from the tensor, through the Param. dGamma and
// dBeta are accumulated into, like the layer's Grads.
func layerNormRef(x, gradOut *tensor.Tensor, gamma, beta []float32, eps float32, dGamma, dBeta []float32) (out, gradIn *tensor.Tensor) {
	d := len(gamma)
	rows := x.Len() / d
	xhat := tensor.New(rows, d)
	lastInvStd := make([]float32, rows)
	out = tensor.New(x.Shape...)
	for r := 0; r < rows; r++ {
		base := r * d
		var sum, sumsq float64
		for i := 0; i < d; i++ {
			v := float64(x.Data[base+i])
			sum += v
			sumsq += v * v
		}
		mean := sum / float64(d)
		variance := sumsq/float64(d) - mean*mean
		invStd := float32(1 / math.Sqrt(variance+float64(eps)))
		lastInvStd[r] = invStd
		for i := 0; i < d; i++ {
			xh := (x.Data[base+i] - float32(mean)) * invStd
			xhat.Data[base+i] = xh
			out.Data[base+i] = gamma[i]*xh + beta[i]
		}
	}
	gradIn = tensor.New(x.Shape...)
	for r := 0; r < rows; r++ {
		base := r * d
		var sumDxh, sumDxhXhat float32
		for i := 0; i < d; i++ {
			dy := gradOut.Data[base+i]
			xh := xhat.Data[base+i]
			dBeta[i] += dy
			dGamma[i] += dy * xh
			dxh := dy * gamma[i]
			sumDxh += dxh
			sumDxhXhat += dxh * xh
		}
		meanDxh := sumDxh / float32(d)
		meanDxhXhat := sumDxhXhat / float32(d)
		invStd := lastInvStd[r]
		for i := 0; i < d; i++ {
			dxh := gradOut.Data[base+i] * gamma[i]
			xh := xhat.Data[base+i]
			gradIn.Data[base+i] = invStd * (dxh - meanDxh - xh*meanDxhXhat)
		}
	}
	return out, gradIn
}

// TestLayerNormBitwise: the workspace-backed layer against the per-call
// formulation — output, input gradient and both parameter gradients, which
// start non-zero and are never cleared, so the order rows are added in shows —
// across the batch swing and a scrub, on sequences and on a [B, D] input,
// with rows holding magnitudes 1e8 apart, ±Inf and a NaN.
func TestLayerNormBitwise(t *testing.T) {
	special := []float32{1e8, -1e8, 3, 1e-8, 0, 0, 0, 0, 0, 0, 0, 0, // row 0: cancelling magnitudes
		float32(math.Inf(1)), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, // row 1: +Inf
		1, float32(math.NaN()), 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, // row 2: NaN
		5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5} // row 3: zero variance
	for _, seq := range []bool{true, false} {
		r := rng.NewFromInt(43)
		const d = 12
		ln := NewLayerNorm("ln", d)
		ln.Gamma.Value.FillNormal(r, 1, 0.5)
		ln.Beta.Value.FillNormal(r, 0, 0.5)
		ln.Gamma.Grad.FillNormal(r, 0, 1)
		ln.Beta.Grad.FillNormal(r, 0, 1)
		wantDG, wantDB := append([]float32(nil), ln.Gamma.Grad.Data...), append([]float32(nil), ln.Beta.Grad.Data...)
		for step, b := range batchSwing {
			shape := []int{b, 8, d}
			if !seq {
				shape = []int{b * 8, d}
			}
			x, gradOut := seqInput(r, special, shape...), seqInput(r, []float32{0, -1e20, 1e20}, shape...)
			wantOut, wantIn := layerNormRef(x, gradOut, ln.Gamma.Value.Data, ln.Beta.Value.Data, ln.Eps, wantDG, wantDB)
			if step == len(batchSwing)-1 {
				ln.Workspace().Reset()
			}
			name := fmt.Sprintf("seq=%v step %d (batch %d)", seq, step, b)
			out := ln.Forward(nil, x)
			if !out.SameShape(x) {
				t.Fatalf("%s: output shape %v for input %v", name, out.Shape, x.Shape)
			}
			sameFloats(t, name+" output", out.Data, wantOut.Data)
			gradIn := ln.Backward(gradOut)
			if !gradIn.SameShape(x) {
				t.Fatalf("%s: input gradient shape %v for input %v", name, gradIn.Shape, x.Shape)
			}
			sameFloats(t, name+" input gradient", gradIn.Data, wantIn.Data)
			sameFloats(t, name+" gamma gradient", ln.Gamma.Grad.Data, wantDG)
			sameFloats(t, name+" beta gradient", ln.Beta.Grad.Data, wantDB)
		}
	}
}

// seqMeanRef is SeqMean as it was written before its output and input
// gradient came from a Workspace: a fresh zeroed tensor per call.
func seqMeanRef(x, gradOut *tensor.Tensor) (out, gradIn *tensor.Tensor) {
	b, l, d := x.Shape[0], x.Shape[1], x.Shape[2]
	out = tensor.New(b, d)
	inv := 1 / float32(l)
	for bi := 0; bi < b; bi++ {
		for pos := 0; pos < l; pos++ {
			base := (bi*l + pos) * d
			for j := 0; j < d; j++ {
				out.Data[bi*d+j] += x.Data[base+j] * inv
			}
		}
	}
	gradIn = tensor.New(b, l, d)
	for bi := 0; bi < b; bi++ {
		for pos := 0; pos < l; pos++ {
			base := (bi*l + pos) * d
			for j := 0; j < d; j++ {
				gradIn.Data[base+j] = gradOut.Data[bi*d+j] * inv
			}
		}
	}
	return out, gradIn
}

// TestSeqMeanBitwise: the workspace-backed layer against the per-call
// formulation across the batch swing and a scrub. The forward accumulates
// into its output, so a reused output that was not cleared first — the
// previous call's means, or the scrub's NaNs — shows in every element.
func TestSeqMeanBitwise(t *testing.T) {
	r := rng.NewFromInt(47)
	sm := NewSeqMean()
	special := []float32{1e8, 1, float32(math.Inf(-1)), float32(math.NaN()), float32(math.Copysign(0, -1))}
	for step, b := range batchSwing {
		x, gradOut := seqInput(r, special, b, 8, 12), seqInput(r, special, b, 12)
		wantOut, wantIn := seqMeanRef(x, gradOut)
		if step == len(batchSwing)-1 {
			sm.Workspace().Reset()
		}
		name := fmt.Sprintf("step %d (batch %d)", step, b)
		sameFloats(t, name+" output", sm.Forward(nil, x).Data, wantOut.Data)
		sameFloats(t, name+" input gradient", sm.Backward(gradOut).Data, wantIn.Data)
	}
}

// TestAttentionBatchedBitwise: attention with its projections and its input
// gradient as whole-batch GEMMs against the loop that ran every product once
// per batch element (attentionRef) — output, input gradient and the four
// weight gradients, bit for bit. The Grads start non-zero, so the order batch
// elements are folded into them is part of what is compared: a weight
// gradient taken as one GEMM over the whole batch fails here. Batches of 1, 2,
// 3 and 64 on the transformer's shape, whose eight positions keep the GEMM's
// four-row blocks inside one batch element, and on a five-position one, where
// they straddle two.
func TestAttentionBatchedBitwise(t *testing.T) {
	for _, dims := range [][3]int{{8, 12, 12}, {5, 6, 4}} {
		l, d, dk := dims[0], dims[1], dims[2]
		for _, mixed := range []bool{false, true} {
			r := rng.NewFromInt(53)
			at := NewAttention("attn", d, dk, r, mixed)
			for _, p := range at.Params() {
				p.Grad.FillNormal(r, 0, 1)
			}
			for _, b := range []int{1, 2, 3, 64, 2} {
				x, gradOut := tensor.New(b, l, d), tensor.New(b, l, d)
				x.FillNormal(r, 0, 1)
				gradOut.FillNormal(r, 0, 1)
				x.Data[0], x.Data[len(x.Data)-1] = 0, 0 // the kernels' skip rule
				wantOut, wantIn, wantDW := attentionRef(at, x, gradOut)
				name := fmt.Sprintf("l=%d d=%d dk=%d mixed=%v batch %d", l, d, dk, mixed, b)
				out := at.Forward(nil, x)
				gradIn := at.Backward(gradOut)
				if !out.SameShape(x) || !gradIn.SameShape(x) {
					t.Fatalf("%s: output %v, input gradient %v for input %v", name, out.Shape, gradIn.Shape, x.Shape)
				}
				sameBits(t, name+" output", out.Data, wantOut.Data)
				sameBits(t, name+" input gradient", gradIn.Data, wantIn.Data)
				for i, p := range at.Params() {
					sameBits(t, name+" "+p.Name+" gradient", p.Grad.Data, wantDW[i].Data)
				}
			}
		}
	}
}

// TestSeqBackwardChecksGradient: the sequence layers write their input
// gradient into a reused buffer, so an output gradient of the wrong element
// count must not get as far as the loop — too short would leave the tail of
// the buffer as the previous call wrote it, too long index past it. Each of
// them panics by name instead, as it does when there has been no Forward to
// take the shape from.
func TestSeqBackwardChecksGradient(t *testing.T) {
	r := rng.NewFromInt(59)
	cases := []struct {
		name  string
		layer func() Layer
		grad  []int // the output's shape for a [2, 8, 12] input
	}{
		{"ln1", func() Layer { return NewLayerNorm("ln1", 12) }, []int{2, 8, 12}},
		{"gelu", func() Layer { return NewGELU() }, []int{2, 8, 12}},
		{"seqmean", func() Layer { return NewSeqMean() }, []int{2, 12}},
		{"attn", func() Layer { return NewAttention("attn", 12, 12, r, false) }, []int{2, 8, 12}},
	}
	mustPanic := func(what, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one containing %q", what, msg, want)
			}
		}()
		fn()
	}
	for _, c := range cases {
		l := c.layer()
		mustPanic(c.name+" backward first", "nn: "+c.name+" backward called before forward", func() {
			l.Backward(tensor.New(c.grad...))
		})
		l.Forward(nil, randTensor(61, 2, 8, 12))
		for _, b := range []int{1, 3} {
			shape := append([]int{b}, c.grad[1:]...)
			mustPanic(fmt.Sprintf("%s gradient %v", c.name, shape), "nn: "+c.name+" backward expects a gradient of", func() {
				l.Backward(tensor.New(shape...))
			})
		}
		l.Backward(tensor.New(c.grad...)) // the right count still passes
	}
}

// softmaxRowsBackwardInto is the softmax's backward as the attention layer
// ran it per batch element before tensor.SoftmaxRowsBackward took every row
// and the score scaling in one call: dS = A ⊙ (dA − rowsum(dA⊙A)) per row
// into out, unscaled. The references of act_test.go scale it after.
func softmaxRowsBackwardInto(out, a, gA *tensor.Tensor) *tensor.Tensor {
	rows, cols := a.Shape[0], a.Shape[1]
	for i := 0; i < rows; i++ {
		arow := a.Data[i*cols : (i+1)*cols]
		grow := gA.Data[i*cols : (i+1)*cols]
		var dot float32
		for j := range arow {
			dot += arow[j] * grow[j]
		}
		orow := out.Data[i*cols : (i+1)*cols]
		for j := range arow {
			orow[j] = arow[j] * (grow[j] - dot)
		}
	}
	return out
}
