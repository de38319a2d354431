package opt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func makeParam(name string, vals ...float32) *nn.Param {
	p := &nn.Param{
		Name:  name,
		Value: tensor.FromSlice(append([]float32(nil), vals...), len(vals)),
		Grad:  tensor.New(len(vals)),
	}
	return p
}

func TestSGDPlainStep(t *testing.T) {
	p := makeParam("w", 1, 2)
	p.Grad.Data[0], p.Grad.Data[1] = 0.5, -1
	s := NewSGD(0.1, 0)
	s.Step([]*nn.Param{p})
	if math.Abs(float64(p.Value.Data[0]-0.95)) > 1e-6 || math.Abs(float64(p.Value.Data[1]-2.1)) > 1e-6 {
		t.Fatalf("SGD step: %v", p.Value.Data)
	}
	if s.History() != nil {
		t.Fatal("plain SGD must report no history")
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := makeParam("w", 0)
	s := NewSGD(1, 0.9)
	p.Grad.Data[0] = 1
	s.Step([]*nn.Param{p}) // v=1, w=-1
	s.Step([]*nn.Param{p}) // v=1.9, w=-2.9
	if math.Abs(float64(p.Value.Data[0]+2.9)) > 1e-6 {
		t.Fatalf("momentum step: %v", p.Value.Data[0])
	}
	h := s.History()
	if h == nil || len(h["w"]) != 1 {
		t.Fatal("momentum SGD must expose velocity history")
	}
	if math.Abs(float64(h["w"][0].Data[0]-1.9)) > 1e-6 {
		t.Fatalf("velocity = %v", h["w"][0].Data[0])
	}
}

func TestAdamMatchesPaperEquation(t *testing.T) {
	// One Adam step with g=0.5 from zero state, lr=0.1:
	// m=0.05, v=0.00025*... let's compute: v = 0.001*0.25 = 0.00025.
	// mHat = 0.05/0.1 = 0.5; vHat = 0.00025/0.001 = 0.25.
	// w -= 0.1 * 0.5/(sqrt(0.25)+eps) ≈ 0.1.
	p := makeParam("w", 1)
	p.Grad.Data[0] = 0.5
	a := NewAdam(0.1)
	a.Step([]*nn.Param{p})
	if math.Abs(float64(p.Value.Data[0]-0.9)) > 1e-5 {
		t.Fatalf("adam step: %v, want ~0.9", p.Value.Data[0])
	}
	h := a.History()
	if math.Abs(float64(h["w"][0].Data[0]-0.05)) > 1e-7 {
		t.Fatalf("m = %v, want 0.05", h["w"][0].Data[0])
	}
	if math.Abs(float64(h["w"][1].Data[0]-0.00025)) > 1e-8 {
		t.Fatalf("v = %v, want 0.00025", h["w"][1].Data[0])
	}
}

func TestAdamNormalizesLargeGradients(t *testing.T) {
	// The paper's key observation (Sec 4.2.2): with Adam, a huge faulty
	// gradient does NOT produce a huge weight update, because the update is
	// normalized by sqrt(v). The per-step update magnitude is bounded by
	// roughly lr/(1-beta1).
	p := makeParam("w", 0)
	p.Grad.Data[0] = 1e20
	a := NewAdam(0.01)
	a.Step([]*nn.Param{p})
	if math.Abs(float64(p.Value.Data[0])) > 0.1 {
		t.Fatalf("Adam update with 1e20 gradient moved weight by %v", p.Value.Data[0])
	}
	// Contrast with SGD: same gradient produces an astronomically large step.
	q := makeParam("w", 0)
	q.Grad.Data[0] = 1e20
	NewSGD(0.01, 0).Step([]*nn.Param{q})
	if math.Abs(float64(q.Value.Data[0])) < 1e17 {
		t.Fatalf("SGD update with 1e20 gradient was %v; expected huge", q.Value.Data[0])
	}
}

func TestAdamHistoryCarriesFaultAcrossIterations(t *testing.T) {
	// A faulty gradient in iteration t leaves a large residue in m/v that
	// persists for many iterations — Observation (2) of the paper.
	p := makeParam("w", 0)
	a := NewAdam(0.001)
	p.Grad.Data[0] = 1e10 // faulty gradient
	a.Step([]*nn.Param{p})
	vAfterFault := a.History()["w"][1].Data[0]
	if vAfterFault < 1e16 {
		t.Fatalf("v after faulty gradient = %v; expected >= 1e16", vAfterFault)
	}
	// Ten clean iterations later the residue is still enormous (decay 0.999).
	for i := 0; i < 10; i++ {
		p.Grad.Data[0] = 0.001
		a.Step([]*nn.Param{p})
	}
	vLater := a.History()["w"][1].Data[0]
	if vLater < 1e15 {
		t.Fatalf("v 10 iterations after fault = %v; history should persist", vLater)
	}
}

// TestAdamBiasCorrection: Step divides m and v by 1−β1^t and 1−β2^t, so the
// first step moves every weight by lr·g/(|g|+ε) ≈ lr whatever g's magnitude;
// uncorrected it would move by √(1−β2)/(1−β1)·lr ≈ 0.32·lr.
func TestAdamBiasCorrection(t *testing.T) {
	a := NewAdam(0.1)
	p := makeParam("w", 0, 0)
	p.Grad.Data[0], p.Grad.Data[1] = 0.1, -3
	a.Step([]*nn.Param{p})
	if math.Abs(float64(p.Value.Data[0])+0.1) > 1e-4 || math.Abs(float64(p.Value.Data[1])-0.1) > 1e-4 {
		t.Fatalf("first step moved the weights to %v, want ±lr", p.Value.Data)
	}
}

func TestAdamSnapshotRestore(t *testing.T) {
	p := makeParam("w", 1, 2, 3)
	a := NewAdam(0.01)
	r := rng.NewFromInt(1)
	for i := 0; i < 5; i++ {
		for j := range p.Grad.Data {
			p.Grad.Data[j] = float32(r.NormFloat64())
		}
		a.Step([]*nn.Param{p})
	}
	snap := a.Snapshot()
	valSnap := p.Value.Clone()

	// Diverge.
	for i := 0; i < 3; i++ {
		for j := range p.Grad.Data {
			p.Grad.Data[j] = float32(r.NormFloat64())
		}
		a.Step([]*nn.Param{p})
	}

	// Restore optimizer and weights; a repeated identical step must match a
	// reference optimizer stepped the same way.
	a.Restore(snap)
	p.Value.CopyFrom(valSnap)
	if a.t != 5 {
		t.Fatalf("restored step count = %d, want 5", a.t)
	}
	for j := range p.Grad.Data {
		p.Grad.Data[j] = 0.25
	}
	a.Step([]*nn.Param{p})
	want := p.Value.Clone()

	// Reference: fresh Adam trained the same 5 steps + the same final step.
	p2 := makeParam("w", 1, 2, 3)
	a2 := NewAdam(0.01)
	r2 := rng.NewFromInt(1)
	for i := 0; i < 5; i++ {
		for j := range p2.Grad.Data {
			p2.Grad.Data[j] = float32(r2.NormFloat64())
		}
		a2.Step([]*nn.Param{p2})
	}
	for j := range p2.Grad.Data {
		p2.Grad.Data[j] = 0.25
	}
	a2.Step([]*nn.Param{p2})
	for i := range want.Data {
		if want.Data[i] != p2.Value.Data[i] {
			t.Fatalf("restore+step diverged: %v vs %v", want.Data[i], p2.Value.Data[i])
		}
	}
}

func TestSGDSnapshotRestore(t *testing.T) {
	p := makeParam("w", 1)
	s := NewSGD(0.1, 0.9)
	p.Grad.Data[0] = 1
	s.Step([]*nn.Param{p})
	snap := s.Snapshot()
	s.Step([]*nn.Param{p})
	s.Restore(snap)
	h := s.History()
	if math.Abs(float64(h["w"][0].Data[0]-1)) > 1e-6 {
		t.Fatalf("restored velocity = %v, want 1", h["w"][0].Data[0])
	}
}

func TestSnapshotIsDeep(t *testing.T) {
	p := makeParam("w", 1)
	a := NewAdam(0.1)
	p.Grad.Data[0] = 1
	a.Step([]*nn.Param{p})
	snap := a.Snapshot()
	mBefore := snap["w"][0].Data[0]
	p.Grad.Data[0] = 5
	a.Step([]*nn.Param{p})
	if snap["w"][0].Data[0] != mBefore {
		t.Fatal("snapshot shares memory with live state")
	}
}

func TestQuickAdamConvergesOnQuadratic(t *testing.T) {
	// Property: Adam minimizes f(w) = (w-c)² for any target c in [-5,5].
	f := func(rawC int8) bool {
		c := float32(rawC) / 25
		p := makeParam("w", 0)
		a := NewAdam(0.05)
		for i := 0; i < 600; i++ {
			p.Grad.Data[0] = 2 * (p.Value.Data[0] - c)
			a.Step([]*nn.Param{p})
		}
		return math.Abs(float64(p.Value.Data[0]-c)) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
