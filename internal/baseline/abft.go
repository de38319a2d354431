// Package baseline implements the mitigation techniques the paper compares
// against (Sec 6):
//
//   - ABFT (algorithm-based fault tolerance) checksums extended from
//     inference to training, which the paper measures at 463–485 changed
//     lines and 5–7% steady-state overhead;
//   - activation range restriction ("Ranger"-style), which detects only a
//     third of latent outcomes because backward-pass faults never surface
//     in forward activations;
//   - gradient clipping, which bounds gradients but cannot mitigate
//     outcomes caused by direct history/mvar corruption.
//
// Together with the epoch checkpointing in package recovery, these are the
// cost/coverage reference points for the paper's bounds-check + two-
// iteration re-execution technique.
package baseline

import (
	"math"
	"sync/atomic"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// ABFTState aggregates checksum statistics across all wrapped layers of a
// model (safe for the engine's sequential per-device execution; counters
// are atomic so campaigns can share one state across goroutines).
type ABFTState struct {
	// Tolerance is the relative checksum mismatch treated as an error.
	Tolerance float64
	// Checks and Alarms count checksum evaluations and violations.
	Checks, Alarms atomic.Int64
}

// NewABFTState creates checksum state with the given relative tolerance.
func NewABFTState(tol float64) *ABFTState {
	return &ABFTState{Tolerance: tol}
}

// verify compares two checksum values with relative tolerance, recording
// the outcome.
func (s *ABFTState) verify(got, want float64) {
	s.Checks.Add(1)
	scale := math.Abs(want) + 1
	if math.IsNaN(got) || math.IsNaN(want) || math.Abs(got-want) > s.Tolerance*scale {
		s.Alarms.Add(1)
	}
}

// ABFTDense wraps a Dense layer with forward and weight-gradient checksums:
//
//	forward: Σ_rows(y) must equal Σ_rows(x)·W + B·batch
//	backward: Σ(dW) must equal Σ_cols(x)·Σ_rows(g) aggregated (rank-1 check)
//
// The extra vector-matrix product per pass is the genuine ABFT cost profile
// (O(In·Out) on top of O(B·In·Out)), which is why its overhead grows to the
// 5–7% the paper measures when B is modest.
type ABFTDense struct {
	Inner *nn.Dense
	State *ABFTState

	lastX *tensor.Tensor
	// pendingY / pendingWant defer the forward checksum verification to
	// the start of Backward: a hardware fault corrupts the output tensor
	// after the MAC array produced it, so the check must read the output
	// as later consumers see it, not as the ALU computed it.
	pendingY    *tensor.Tensor
	pendingWant float64
}

// NewABFTDense wraps d.
func NewABFTDense(d *nn.Dense, s *ABFTState) *ABFTDense {
	return &ABFTDense{Inner: d, State: s}
}

// Params implements nn.Layer.
func (a *ABFTDense) Params() []*nn.Param { return a.Inner.Params() }

// Forward implements nn.Layer.
func (a *ABFTDense) Forward(ctx *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	a.lastX = x
	y := a.Inner.Forward(ctx, x)

	in := x.Shape[1]
	out := y.Shape[1]
	batch := x.Shape[0]
	// Column sums of x: r[j] = Σ_b x[b][j].
	r := make([]float64, in)
	for b := 0; b < batch; b++ {
		for j := 0; j < in; j++ {
			r[j] += float64(x.Data[b*in+j])
		}
	}
	// want = Σ_j r[j]·W[j][·] + batch·bias, summed over outputs.
	var want float64
	w := a.Inner.W.Value
	for j := 0; j < in; j++ {
		for k := 0; k < out; k++ {
			want += r[j] * float64(w.Data[j*out+k])
		}
	}
	for k := 0; k < out; k++ {
		want += float64(batch) * float64(a.Inner.B.Value.Data[k])
	}
	a.pendingY, a.pendingWant = y, want
	return y
}

// Backward implements nn.Layer: first verifies the deferred forward
// checksum (catching in-place corruption of the forward output), then the
// weight-gradient checksum Σ(dW_step) == Σ_b (Σ_j x[b][j])·(Σ_k g[b][k]) —
// the training extension of ABFT.
func (a *ABFTDense) Backward(g *tensor.Tensor) *tensor.Tensor {
	if a.pendingY != nil {
		a.State.verify(a.pendingY.Sum(), a.pendingWant)
		a.pendingY = nil
	}
	before := a.Inner.W.Grad.Sum()
	gin := a.Inner.Backward(g)
	stepSum := a.Inner.W.Grad.Sum() - before

	in := a.lastX.Shape[1]
	out := g.Shape[1]
	batch := a.lastX.Shape[0]
	var want float64
	// Σ dW = Σ_j Σ_k Σ_b x[b][j]·g[b][k] = Σ_b (Σ_j x[b][j])·(Σ_k g[b][k]).
	for b := 0; b < batch; b++ {
		var xs, gs float64
		for j := 0; j < in; j++ {
			xs += float64(a.lastX.Data[b*in+j])
		}
		for k := 0; k < out; k++ {
			gs += float64(g.Data[b*out+k])
		}
		want += xs * gs
	}
	a.State.verify(stepSum, want)
	return gin
}

// ABFTConv2D wraps a convolution with an output-sum checksum computed from
// an independently evaluated reduced convolution (channel-summed kernels
// against the input), the standard conv ABFT construction.
type ABFTConv2D struct {
	Inner *nn.Conv2D
	State *ABFTState

	pendingY    *tensor.Tensor
	pendingWant float64

	// ws holds the checksum row.
	ws *tensor.Workspace
}

// NewABFTConv2D wraps c.
func NewABFTConv2D(c *nn.Conv2D, s *ABFTState) *ABFTConv2D {
	return &ABFTConv2D{Inner: c, State: s, ws: tensor.NewWorkspace()}
}

// Params implements nn.Layer.
func (a *ABFTConv2D) Params() []*nn.Param { return a.Inner.Params() }

// Forward implements nn.Layer.
func (a *ABFTConv2D) Forward(ctx *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	y := a.Inner.Forward(ctx, x)

	// Checksum kernel: sum over output channels → one-channel convolution.
	k := a.Inner.K.Value
	outC, inC, kh, kw := k.Shape[0], k.Shape[1], k.Shape[2], k.Shape[3]
	ck := tensor.New(1, inC, kh, kw)
	for o := 0; o < outC; o++ {
		for i := 0; i < inC*kh*kw; i++ {
			ck.Data[i] += k.Data[o*inC*kh*kw+i]
		}
	}
	// The layer's im2col matrix already holds the lowered input, so the
	// checksum convolution collapses to one GEMM row. A single-output-channel
	// convolution's flat output layout equals that row's, so its sum is the
	// reduced convolution's bit for bit.
	cols := a.Inner.ForwardCols()
	want := tensor.MatMulInto(a.ws.Get("abft.check", 1, cols.Shape[1]),
		ck.Reshape(1, inC*kh*kw), cols, false).Sum()
	var biasSum float64
	for _, b := range a.Inner.B.Value.Data {
		biasSum += float64(b)
	}
	spatial := y.Shape[2] * y.Shape[3]
	want += biasSum * float64(y.Shape[0]*spatial)
	a.pendingY, a.pendingWant = y, want
	return y
}

// Backward implements nn.Layer: verifies the deferred forward checksum,
// then the weight-gradient sum against the im2col-rank-1 identity,
// mirroring ABFTDense.
func (a *ABFTConv2D) Backward(g *tensor.Tensor) *tensor.Tensor {
	if a.pendingY != nil {
		a.State.verify(a.pendingY.Sum(), a.pendingWant)
		a.pendingY = nil
	}
	before := a.Inner.K.Grad.Sum()
	gin := a.Inner.Backward(g)
	stepSum := a.Inner.K.Grad.Sum() - before

	// Σ dK = Σ_cols(im2col(x)) · Σ_channels(g) per width position. The
	// layer's forward im2col matrix is still valid here (the backward pass
	// never rewrites it, and it is a pure function of the unchanged input),
	// so there is no re-lowering.
	cols := a.Inner.ForwardCols()
	rows, width := cols.Shape[0], cols.Shape[1]
	colSum := make([]float64, width)
	for r := 0; r < rows; r++ {
		for c := 0; c < width; c++ {
			colSum[c] += float64(cols.Data[r*width+c])
		}
	}
	// Rearrange g [N,K,OH,OW] to per-position channel sums matching the
	// im2col column order (b, oy, ox).
	n, kc := g.Shape[0], g.Shape[1]
	oh, ow := g.Shape[2], g.Shape[3]
	var want float64
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var gs float64
				for ch := 0; ch < kc; ch++ {
					gs += float64(g.Data[((b*kc+ch)*oh+oy)*ow+ox])
				}
				want += gs * colSum[(b*oh+oy)*ow+ox]
			}
		}
	}
	a.State.verify(stepSum, want)
	return gin
}

// WrapModel returns a copy of build that wraps every Dense and Conv2D layer
// (including those inside Residual branches and DenseBlocks) with ABFT
// checksums sharing state s.
func WrapModel(build func(l nn.Layer) nn.Layer, model *nn.Sequential) {
	for _, nl := range model.Layers {
		nl.Layer = wrapLayer(nl.Layer, build)
	}
}

func wrapLayer(l nn.Layer, build func(nn.Layer) nn.Layer) nn.Layer {
	switch v := l.(type) {
	case *nn.Residual:
		for i, b := range v.Branch {
			v.Branch[i] = wrapLayer(b, build)
		}
		return v
	case *nn.DenseBlock:
		for si, stage := range v.Stages {
			for li, b := range stage {
				v.Stages[si][li] = wrapLayer(b, build)
			}
		}
		return v
	default:
		return build(l)
	}
}

// ABFTBuilder returns a layer-wrapping function for WrapModel that attaches
// checksums to Dense and Conv2D layers.
func ABFTBuilder(s *ABFTState) func(nn.Layer) nn.Layer {
	return func(l nn.Layer) nn.Layer {
		switch v := l.(type) {
		case *nn.Dense:
			return NewABFTDense(v, s)
		case *nn.Conv2D:
			return NewABFTConv2D(v, s)
		default:
			return l
		}
	}
}
