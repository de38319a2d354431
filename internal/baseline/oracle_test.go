package baseline

import (
	"math"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// oracleABFTConv2D is ABFTConv2D as it was before its checksums reused the
// layer's im2col matrix: the forward checksum is a fresh one-channel
// convolution of the input, and the backward one lowers the input again. It
// is the reference the im2col-row checksum is held to.
type oracleABFTConv2D struct {
	Inner *nn.Conv2D
	State *ABFTState

	lastX       *tensor.Tensor
	pendingY    *tensor.Tensor
	pendingWant float64
}

func (a *oracleABFTConv2D) Params() []*nn.Param { return a.Inner.Params() }

func (a *oracleABFTConv2D) Forward(ctx *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	a.lastX = x
	y := a.Inner.Forward(ctx, x)
	k := a.Inner.K.Value
	outC, inC, kh, kw := k.Shape[0], k.Shape[1], k.Shape[2], k.Shape[3]
	ck := tensor.New(1, inC, kh, kw)
	for o := 0; o < outC; o++ {
		for i := 0; i < inC*kh*kw; i++ {
			ck.Data[i] += k.Data[o*inC*kh*kw+i]
		}
	}
	out, _ := tensor.Conv2DForwardWS(nil, x, ck, a.Inner.Par, false)
	want := out.Sum()
	var biasSum float64
	for _, b := range a.Inner.B.Value.Data {
		biasSum += float64(b)
	}
	spatial := y.Shape[2] * y.Shape[3]
	want += biasSum * float64(y.Shape[0]*spatial)
	a.pendingY, a.pendingWant = y, want
	return y
}

func (a *oracleABFTConv2D) Backward(g *tensor.Tensor) *tensor.Tensor {
	if a.pendingY != nil {
		a.State.verify(a.pendingY.Sum(), a.pendingWant)
		a.pendingY = nil
	}
	before := a.Inner.K.Grad.Sum()
	gin := a.Inner.Backward(g)
	stepSum := a.Inner.K.Grad.Sum() - before
	cols := im2col(a.lastX, a.Inner.Par)
	rows, width := cols.Shape[0], cols.Shape[1]
	colSum := make([]float64, width)
	for r := 0; r < rows; r++ {
		for c := 0; c < width; c++ {
			colSum[c] += float64(cols.Data[r*width+c])
		}
	}
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

// im2col lowers in into a fresh matrix.
func im2col(in *tensor.Tensor, p tensor.ConvParams) *tensor.Tensor {
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := p.OutSize(h, w)
	return tensor.Im2ColInto(tensor.New(c*p.KH*p.KW, n*oh*ow), in, p)
}

// oracleBuilder is ABFTBuilder with the convolution checksums in the
// oracle's formulation.
func oracleBuilder(s *ABFTState) func(nn.Layer) nn.Layer {
	build := ABFTBuilder(s)
	return func(l nn.Layer) nn.Layer {
		if c, ok := l.(*nn.Conv2D); ok {
			return &oracleABFTConv2D{Inner: c, State: s}
		}
		return build(l)
	}
}

// TestABFTConvFusedBitwiseEqualsSweep: the checksum operands ABFTConv2D takes
// from the layer's im2col matrix — the forward checksum as one GEMM row over
// it, the backward column sums straight from it — equal the oracle's
// re-convolution and re-lowering bit for bit, and the two raise the same
// checks on a clean layer.
func TestABFTConvFusedBitwiseEqualsSweep(t *testing.T) {
	mk := func() *nn.Conv2D { return nn.NewConv2D("c", 2, 3, 3, 3, 1, 1, rng.NewFromInt(4), false) }
	s, so := NewABFTState(1e-3), NewABFTState(1e-3)
	a := NewABFTConv2D(mk(), s)
	o := &oracleABFTConv2D{Inner: mk(), State: so}

	x := tensor.New(2, 2, 5, 5)
	x.FillNormal(rng.NewFromInt(5), 0, 1)
	ctx := &nn.Context{Training: true}
	y := a.Forward(ctx, x)
	o.Forward(ctx, x.Clone())
	if math.Float64bits(a.pendingWant) != math.Float64bits(o.pendingWant) {
		t.Fatalf("forward checksum differs: im2col row %v, re-convolution %v", a.pendingWant, o.pendingWant)
	}
	cols, want := a.Inner.ForwardCols(), im2col(x, a.Inner.Par)
	for i := range want.Data {
		if math.Float32bits(cols.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("forward im2col element %d is %v, re-lowering gives %v", i, cols.Data[i], want.Data[i])
		}
	}

	g := tensor.New(y.Shape...)
	g.FillNormal(rng.NewFromInt(6), 0, 1)
	a.Backward(g)
	o.Backward(g.Clone())
	if s.Alarms.Load() != 0 || so.Alarms.Load() != 0 {
		t.Fatalf("clean conv alarmed: im2col row %d, oracle %d", s.Alarms.Load(), so.Alarms.Load())
	}
	if s.Checks.Load() != so.Checks.Load() {
		t.Fatalf("check counts differ: im2col row %d, oracle %d", s.Checks.Load(), so.Checks.Load())
	}
}

// runABFT executes iters training iterations on an engine whose layers the
// builder wraps, with an optional injection.
func runABFT(t *testing.T, build func(*ABFTState) func(nn.Layer) nn.Layer, inj *fault.Injection, iters int) *ABFTState {
	t.Helper()
	s := NewABFTState(1e-2)
	e := abftEngine(t, build(s))
	if inj != nil {
		i := *inj
		e.SetInjection(&i)
	}
	for i := 0; i < iters; i++ {
		e.RunIteration(i)
	}
	return s
}

// TestABFTEngineFusedSweepIdenticalAlarms holds ABFT to the oracle alarm for
// alarm across whole training runs: clean, with an in-place forward output
// corruption (which the deferred forward checksum reads), and with a
// weight-gradient fault.
func TestABFTEngineFusedSweepIdenticalAlarms(t *testing.T) {
	fwdFault := &fault.Injection{
		Kind: accel.GlobalG1, LayerIdx: 0, Pass: fault.Forward,
		Iteration: 3, CycleFrac: 0, N: 4,
		Seed: rng.Seed{State: 5, Stream: 5},
	}
	bwdFault := &fault.Injection{
		Kind: accel.GlobalG1, LayerIdx: 0, Pass: fault.BackwardWeight,
		Iteration: 3, CycleFrac: 0, N: 6,
		Seed: rng.Seed{State: 8, Stream: 8},
	}
	cases := []struct {
		name string
		inj  *fault.Injection
		// mustAlarm requires the oracle run to alarm so equality is not
		// vacuous. Weight-gradient faults fire after the backward checksum
		// read its sums, so both miss them — that agreement is itself the
		// property under test there.
		mustAlarm bool
	}{
		{"clean", nil, false},
		{"forward-fault", fwdFault, true},
		{"wgt-grad-fault", bwdFault, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle := runABFT(t, oracleBuilder, tc.inj, 8)
			got := runABFT(t, ABFTBuilder, tc.inj, 8)
			if got.Alarms.Load() != oracle.Alarms.Load() {
				t.Fatalf("alarm counts differ: ABFT %d, oracle %d", got.Alarms.Load(), oracle.Alarms.Load())
			}
			if got.Checks.Load() != oracle.Checks.Load() {
				t.Fatalf("check counts differ: ABFT %d, oracle %d", got.Checks.Load(), oracle.Checks.Load())
			}
			if tc.mustAlarm && oracle.Alarms.Load() == 0 {
				t.Fatal("oracle ABFT missed the fault; the comparison is vacuous")
			}
		})
	}
}
