package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	var sce SoftmaxCrossEntropy
	// Uniform logits → loss = ln(C), uniform probabilities.
	logits := tensor.New(2, 4)
	res := sce.Eval(logits, []int{0, 3})
	if math.Abs(res.Loss-math.Log(4)) > 1e-6 {
		t.Errorf("uniform loss = %v, want ln(4)=%v", res.Loss, math.Log(4))
	}
	for _, p := range res.Probs.Data {
		if math.Abs(float64(p)-0.25) > 1e-6 {
			t.Errorf("uniform prob = %v", p)
		}
	}
}

func TestSoftmaxCrossEntropyGradientBound(t *testing.T) {
	// Algorithm 1 Step 1: each logit gradient component lies in [-1/m, 1/m].
	var sce SoftmaxCrossEntropy
	r := rng.NewFromInt(1)
	logits := tensor.New(8, 5)
	logits.FillNormal(r, 0, 3)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = r.Intn(5)
	}
	res := sce.Eval(logits, labels)
	bound := float32(1.0 / 8)
	for i, g := range res.GradLogits.Data {
		if g > bound+1e-7 || g < -bound-1e-7 {
			t.Fatalf("grad[%d] = %v exceeds 1/m bound %v", i, g, bound)
		}
	}
}

func TestSoftmaxCrossEntropyGradientNumeric(t *testing.T) {
	var sce SoftmaxCrossEntropy
	r := rng.NewFromInt(2)
	logits := tensor.New(3, 4)
	logits.FillNormal(r, 0, 1)
	labels := []int{1, 0, 3}
	res := sce.Eval(logits, labels)
	// The perturbed evaluations go through a second value: sce owns the
	// storage of res.GradLogits and its next Eval would overwrite it.
	var probe SoftmaxCrossEntropy
	const eps = 1e-3
	for idx := 0; idx < logits.Len(); idx++ {
		orig := logits.Data[idx]
		logits.Data[idx] = orig + eps
		up := probe.Eval(logits, labels).Loss
		logits.Data[idx] = orig - eps
		down := probe.Eval(logits, labels).Loss
		logits.Data[idx] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-float64(res.GradLogits.Data[idx])) > 1e-4 {
			t.Errorf("grad[%d] = %v, numeric %v", idx, res.GradLogits.Data[idx], numeric)
		}
	}
}

func TestSoftmaxCrossEntropyAccuracy(t *testing.T) {
	var sce SoftmaxCrossEntropy
	logits := tensor.FromSlice([]float32{
		5, 0, 0,
		0, 5, 0,
		0, 5, 0,
	}, 3, 3)
	res := sce.Eval(logits, []int{0, 1, 2})
	if res.Correct != 2 {
		t.Fatalf("Correct = %d, want 2", res.Correct)
	}
}

func TestSoftmaxCrossEntropyPropagatesNaN(t *testing.T) {
	var sce SoftmaxCrossEntropy
	logits := tensor.New(2, 3)
	logits.Data[1] = float32(math.NaN())
	res := sce.Eval(logits, []int{0, 1})
	if !math.IsNaN(res.Loss) {
		t.Fatalf("loss with NaN logit = %v, want NaN", res.Loss)
	}
}

func TestBatchNormMovingStatsUpdate(t *testing.T) {
	bn := NewBatchNorm("bn", 2, 0.9)
	x := randTensor(3, 4, 2, 3, 3)
	ctx := &Context{Training: true}
	bn.Forward(ctx, x)
	mean, variance := make([]float32, x.Shape[1]), make([]float32, x.Shape[1])
	tensor.ChannelMoments(x, mean, variance)
	for ch := 0; ch < 2; ch++ {
		wantMean := 0.9*0 + 0.1*mean[ch]
		wantVar := 0.9*1 + 0.1*variance[ch]
		if math.Abs(float64(bn.MovingMean.Data[ch]-wantMean)) > 1e-5 {
			t.Errorf("moving mean[%d] = %v, want %v", ch, bn.MovingMean.Data[ch], wantMean)
		}
		if math.Abs(float64(bn.MovingVar.Data[ch]-wantVar)) > 1e-5 {
			t.Errorf("moving var[%d] = %v, want %v", ch, bn.MovingVar.Data[ch], wantVar)
		}
	}
}

func TestBatchNormEvalUsesMovingStats(t *testing.T) {
	bn := NewBatchNorm("bn", 1, 0.9)
	bn.MovingMean.Data[0] = 10
	bn.MovingVar.Data[0] = 4
	x := tensor.New(1, 1, 1, 2)
	x.Data[0], x.Data[1] = 10, 14
	out := bn.Forward(&Context{Training: false}, x)
	// (10-10)/2 = 0; (14-10)/2 = 2 (eps negligible).
	if math.Abs(float64(out.Data[0])) > 1e-3 || math.Abs(float64(out.Data[1])-2) > 1e-3 {
		t.Fatalf("eval-mode output = %v", out.Data)
	}
}

func TestBatchNormEvalDoesNotUpdateMovingStats(t *testing.T) {
	bn := NewBatchNorm("bn", 2, 0.9)
	x := randTensor(5, 2, 2, 2, 2)
	bn.Forward(&Context{Training: false}, x)
	if bn.MovingMean.Data[0] != 0 || bn.MovingVar.Data[0] != 1 {
		t.Fatal("eval-mode forward mutated moving statistics")
	}
}

func TestBatchNormCorruptedMvarDegradesOnlyEval(t *testing.T) {
	// The LowTestAccuracy mechanism in miniature: corrupt mvar, observe
	// that training-mode output is unchanged but eval-mode output collapses.
	bn := NewBatchNorm("bn", 2, 0.9)
	x := randTensor(6, 4, 2, 3, 3)
	trainOut := bn.Forward(&Context{Training: true}, x).Clone()
	bn.MovingVar.Data[0] = 1e30 // corrupted history term
	trainOut2 := bn.Forward(&Context{Training: true}, x)
	for i := range trainOut.Data {
		if trainOut.Data[i] != trainOut2.Data[i] {
			t.Fatal("training-mode output should not depend on mvar")
		}
	}
	evalOut := bn.Forward(&Context{Training: false}, x)
	// Channel 0 outputs should be crushed to ~beta (0).
	spatial := 9
	for b := 0; b < 4; b++ {
		base := (b*2 + 0) * spatial
		for i := 0; i < spatial; i++ {
			if math.Abs(float64(evalOut.Data[base+i])) > 1e-3 {
				t.Fatalf("eval output with huge mvar should collapse, got %v", evalOut.Data[base+i])
			}
		}
	}
}

func TestSequentialForwardBackwardHooks(t *testing.T) {
	r := rng.NewFromInt(7)
	model := NewSequential(
		NewDense("d1", 4, 8, r, false),
		NewReLU(),
		NewDense("d2", 8, 3, r, false),
	)
	x := randTensor(8, 2, 4)
	var fwdLayers, bwdLayers []int
	out := model.Forward(&Context{Training: true}, x, func(i int, o *tensor.Tensor) *tensor.Tensor {
		fwdLayers = append(fwdLayers, i)
		return nil
	})
	if out.Shape[1] != 3 {
		t.Fatalf("output shape %v", out.Shape)
	}
	grad := tensor.New(out.Shape...)
	grad.Fill(1)
	model.Backward(grad, func(i int, g *tensor.Tensor) *tensor.Tensor {
		bwdLayers = append(bwdLayers, i)
		return nil
	})
	if len(fwdLayers) != 3 || fwdLayers[0] != 0 || fwdLayers[2] != 2 {
		t.Errorf("forward hook order %v", fwdLayers)
	}
	if len(bwdLayers) != 3 || bwdLayers[0] != 2 || bwdLayers[2] != 0 {
		t.Errorf("backward hook order %v", bwdLayers)
	}
}

func TestSequentialHookReplacement(t *testing.T) {
	r := rng.NewFromInt(8)
	model := NewSequential(NewDense("d1", 4, 4, r, false), NewDense("d2", 4, 2, r, false))
	x := randTensor(9, 1, 4)
	// Replace layer 0's output with zeros; final output must equal bias-only
	// path of layer 1.
	out := model.Forward(&Context{Training: true}, x, func(i int, o *tensor.Tensor) *tensor.Tensor {
		if i == 0 {
			z := tensor.New(o.Shape...)
			return z
		}
		return nil
	})
	d2 := model.Layers[1].Layer.(*Dense)
	for j := 0; j < 2; j++ {
		if out.Data[j] != d2.B.Value.Data[j] {
			t.Fatalf("hook replacement not applied: out=%v bias=%v", out.Data[j], d2.B.Value.Data[j])
		}
	}
}

func TestSequentialParamsAndZeroGrad(t *testing.T) {
	r := rng.NewFromInt(10)
	model := NewSequential(
		NewConv2D("c", 1, 2, 3, 3, 1, 1, r, false),
		NewBatchNorm("bn", 2, 0.9),
		NewFlatten(),
		NewDense("d", 2*4*4, 2, r, false),
	)
	ps := model.Params()
	if len(ps) != 6 { // conv k+b, bn gamma+beta, dense w+b
		t.Fatalf("param count = %d, want 6", len(ps))
	}
	for _, p := range ps {
		p.Grad.Fill(3)
	}
	model.ZeroGrad()
	for _, p := range ps {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("ZeroGrad left %v in %s", g, p.Name)
			}
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := randTensor(14, 2, 3, 4, 5)
	out := f.Forward(nil, x)
	if out.Shape[0] != 2 || out.Shape[1] != 60 {
		t.Fatalf("flatten shape %v", out.Shape)
	}
	g := randTensor(15, 2, 60)
	back := f.Backward(g)
	if len(back.Shape) != 4 || back.Shape[3] != 5 {
		t.Fatalf("unflatten shape %v", back.Shape)
	}
}

func TestLSTMForwardShapes(t *testing.T) {
	l := NewLSTM("lstm", 3, 5, rng.NewFromInt(16), false)
	x := randTensor(17, 2, 4, 3)
	out := l.Forward(nil, x)
	if out.Shape[0] != 2 || out.Shape[1] != 5 {
		t.Fatalf("LSTM output shape %v", out.Shape)
	}
	for _, v := range out.Data {
		if v <= -1 || v >= 1 {
			t.Fatalf("LSTM hidden %v outside (-1,1)", v)
		}
	}
}

func TestAttentionRowsSumToOne(t *testing.T) {
	at := NewAttention("attn", 4, 4, rng.NewFromInt(18), false)
	x := randTensor(19, 2, 5, 4)
	at.Forward(nil, x)
	rows, cols := at.buf.a.Shape[0], at.buf.a.Shape[1] // every batch element's rows
	if rows != 2*5 || cols != 5 {
		t.Fatalf("attention matrix is %v, want [10 5]", at.buf.a.Shape)
	}
	for i := 0; i < rows; i++ {
		var sum float64
		for j := 0; j < cols; j++ {
			sum += float64(at.buf.a.Data[i*cols+j])
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("attention row sums to %v", sum)
		}
	}
}

func TestTrainingReducesLossEndToEnd(t *testing.T) {
	// A smoke test that the whole stack learns: tiny MLP on a linearly
	// separable problem, plain gradient descent.
	r := rng.NewFromInt(20)
	model := NewSequential(
		NewDense("d1", 2, 16, r, false),
		NewReLU(),
		NewDense("d2", 16, 2, r, false),
	)
	var sce SoftmaxCrossEntropy
	x := tensor.New(32, 2)
	labels := make([]int, 32)
	for i := 0; i < 32; i++ {
		a := r.NormFloat64()
		b := r.NormFloat64()
		x.Data[i*2] = float32(a)
		x.Data[i*2+1] = float32(b)
		if a+b > 0 {
			labels[i] = 1
		}
	}
	ctx := &Context{Training: true}
	var first, last float64
	for step := 0; step < 200; step++ {
		model.ZeroGrad()
		out := model.Forward(ctx, x, nil)
		res := sce.Eval(out, labels)
		if step == 0 {
			first = res.Loss
		}
		last = res.Loss
		model.Backward(res.GradLogits, nil)
		for _, p := range model.Params() {
			p.Value.AxpyInPlace(-0.5, p.Grad)
		}
	}
	if last > first*0.5 {
		t.Fatalf("loss did not drop: first %v, last %v", first, last)
	}
}

func TestLeakyReLUValues(t *testing.T) {
	l := NewLeakyReLU(0.1)
	x := tensor.FromSlice([]float32{-10, 0, 10}, 3)
	out := l.Forward(nil, x)
	if out.Data[0] != -1 || out.Data[1] != 0 || out.Data[2] != 10 {
		t.Fatalf("leaky relu values %v", out.Data)
	}
}

func TestLeakyReLUPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float32{-0.1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v accepted", a)
				}
			}()
			NewLeakyReLU(a)
		}()
	}
}

// TestBatchNormsIncludesNested: the recursive traversal must surface
// normalization layers hidden inside container layers — the layers the
// paper's Observation 3 is about. A top-level walk over Sequential.Layers
// sees only one of the three here.
func TestBatchNormsIncludesNested(t *testing.T) {
	r := rng.New(rng.Seed{State: 1, Stream: 1})
	s := NewSequential(
		NewConv2D("c1", 1, 4, 3, 3, 1, 1, r, false),
		NewBatchNorm("bn-top", 4, 0.9),
		NewResidual("res",
			NewConv2D("res/c", 4, 4, 3, 3, 1, 1, r, false),
			NewBatchNorm("bn-res", 4, 0.9),
			NewReLU(),
		),
		NewDenseBlock("blk",
			[]Layer{NewConv2D("blk/c", 4, 4, 3, 3, 1, 1, r, false), NewBatchNorm("bn-blk", 4, 0.9)},
		),
	)
	bns := s.BatchNorms()
	if len(bns) != 3 {
		t.Fatalf("BatchNorms() found %d layers, want 3", len(bns))
	}
	want := []string{"bn-top", "bn-res", "bn-blk"}
	for i, bn := range bns {
		if bn.Name() != want[i] {
			t.Fatalf("BatchNorms()[%d] = %s, want %s (traversal order must be structural)", i, bn.Name(), want[i])
		}
	}
}

// TestBuildReplicasSharesScratch: every replica after the first steps over
// the first one's workspaces, layer by layer, while parameters stay
// its own; a replica whose build asks for a different number of workspaces
// than the first cannot be bound and panics.
func TestBuildReplicasSharesScratch(t *testing.T) {
	build := func(extra bool) func() *Sequential {
		return func() *Sequential {
			r := rng.NewFromInt(1)
			layers := []Layer{NewConv2D("c", 1, 2, 3, 3, 1, 1, r, false), NewReLU()}
			if extra {
				layers = append(layers, NewReLU())
			}
			return NewSequential(layers...)
		}
	}
	models := BuildReplicas(3, build(false))
	for i, m := range models[1:] {
		for j, nl := range m.Layers {
			if got, want := nl.Layer.(WorkspaceHolder).Workspace(), models[0].Layers[j].Layer.(WorkspaceHolder).Workspace(); got != want {
				t.Fatalf("replica %d layer %d: own workspace, want replica 0's", i+1, j)
			}
		}
		if m.Params()[0] == models[0].Params()[0] || m.Params()[0].Value == models[0].Params()[0].Value {
			t.Fatalf("replica %d shares replica 0's parameters", i+1)
		}
	}
	calls := 0
	mismatched := func() *Sequential {
		calls++
		return build(calls > 1)()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a replica with an extra workspace was bound without a panic")
		}
	}()
	BuildReplicas(2, mismatched)
}

// TestBuildReplicasIgnoresConcurrentConstructors: a layer constructed on
// another goroutine while BuildReplicas builds a replica belongs to no
// replica. It shares no workspace with any replica or with another such
// layer, and the build still binds every replica to the first one's scratch.
func TestBuildReplicasIgnoresConcurrentConstructors(t *testing.T) {
	var outside []*ReLU
	calls := 0
	build := func() *Sequential {
		calls++
		r := rng.NewFromInt(1)
		conv := NewConv2D("c", 1, 2, 3, 3, 1, 1, r, false)
		if calls > 1 {
			// Between two constructors of a later replica, another goroutine
			// builds a layer, and the build waits for it.
			done := make(chan *ReLU)
			go func() { done <- NewReLU() }()
			outside = append(outside, <-done)
		}
		return NewSequential(conv, NewReLU())
	}
	var models []*Sequential
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("BuildReplicas panicked: %v", p)
			}
		}()
		models = BuildReplicas(3, build)
	}()
	owner := map[*tensor.Workspace]string{}
	for j, nl := range models[0].Layers {
		owner[nl.Layer.(WorkspaceHolder).Workspace()] = fmt.Sprintf("replica 0 layer %d", j)
	}
	for i, m := range models[1:] {
		for j, nl := range m.Layers {
			if got := nl.Layer.(WorkspaceHolder).Workspace(); got != models[0].Layers[j].Layer.(WorkspaceHolder).Workspace() {
				t.Fatalf("replica %d layer %d: own workspace, want replica 0's", i+1, j)
			}
		}
	}
	for i, l := range outside {
		if who, ok := owner[l.Workspace()]; ok {
			t.Fatalf("the layer built during replica %d's build shares a workspace with %s", i+1, who)
		}
		owner[l.Workspace()] = fmt.Sprintf("the layer built during replica %d's build", i+1)
	}
}

// TestBackwardParamsMatchesBackward: the engine's backward entry gives every
// parameter gradient Backward gives, bit for bit, with a first layer that
// skips its input gradient (Conv2D, Dense, SeqDense, mixed precision
// included) and with one that cannot (ReLU first); and with a hook armed it
// is Backward, the hook seeing the first layer's input gradient.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	models := []struct {
		name  string
		build func(r *rng.Rand) *Sequential
		input []int
	}{
		{"conv", func(r *rng.Rand) *Sequential {
			return NewSequential(NewConv2D("c1", 2, 4, 3, 3, 1, 1, r, false), NewReLU(),
				NewConv2D("c2", 4, 3, 3, 3, 1, 1, r, false), NewFlatten(), NewDense("d", 3*5*5, 4, r, false))
		}, []int{2, 2, 5, 5}},
		{"conv mixed", func(r *rng.Rand) *Sequential {
			return NewSequential(NewConv2D("c1", 2, 4, 3, 3, 1, 1, r, true), NewFlatten(), NewDense("d", 4*5*5, 3, r, true))
		}, []int{3, 2, 5, 5}},
		{"dense", func(r *rng.Rand) *Sequential {
			return NewSequential(NewDense("d1", 6, 5, r, false), NewReLU(), NewDense("d2", 5, 3, r, false))
		}, []int{4, 6}},
		{"seqdense", func(r *rng.Rand) *Sequential {
			return NewSequential(NewSeqDense("embed", 6, 12, r, false), NewSeqMean(), NewDense("head", 12, 3, r, false))
		}, []int{2, 8, 6}},
		{"relu first", func(r *rng.Rand) *Sequential {
			return NewSequential(NewReLU(), NewDense("d1", 6, 3, r, false))
		}, []int{4, 6}},
	}
	for _, m := range models {
		for _, hooked := range []bool{false, true} {
			x := tensor.New(m.input...)
			x.FillNormal(rng.NewFromInt(3), 0, 1)
			full, params := m.build(rng.NewFromInt(7)), m.build(rng.NewFromInt(7))
			var hookSaw [2]*tensor.Tensor
			hookFor := func(k int) BackwardHook {
				if !hooked {
					return nil
				}
				return func(i int, g *tensor.Tensor) *tensor.Tensor {
					if i == 0 {
						hookSaw[k] = g.Clone()
					}
					return nil
				}
			}
			for step := 0; step < 2; step++ { // the second accumulates onto the first
				outF := full.Forward(&Context{Training: true}, x, nil)
				outP := params.Forward(&Context{Training: true}, x, nil)
				full.Backward(outF.Clone(), hookFor(0))
				params.BackwardParams(outP.Clone(), hookFor(1))
			}
			pf, pp := full.Params(), params.Params()
			for i := range pf {
				for j, v := range pf[i].Grad.Data {
					if math.Float32bits(v) != math.Float32bits(pp[i].Grad.Data[j]) {
						t.Fatalf("%s hooked=%v: %s gradient element %d is %v, Backward's %v", m.name, hooked, pf[i].Name, j, pp[i].Grad.Data[j], v)
					}
				}
			}
			if hooked {
				if hookSaw[0] == nil || hookSaw[1] == nil {
					t.Fatalf("%s: the hook saw no input gradient at layer 0", m.name)
				}
				for j, v := range hookSaw[0].Data {
					if math.Float32bits(v) != math.Float32bits(hookSaw[1].Data[j]) {
						t.Fatalf("%s: the hook's input gradient differs at %d", m.name, j)
					}
				}
			}
		}
	}
}
