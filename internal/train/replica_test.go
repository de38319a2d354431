package train_test

// Binding an engine's replicas to one scratch set changes no value: a
// replica train.New builds through nn.BuildReplicas must be bitwise-identical
// — weights, normalization statistics, and everything a step computes from
// them — to the same model built standalone, with workspaces of its own.

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workloads"
)

func TestReplicaEngineBitwiseEquivalence(t *testing.T) {
	w := workloads.ResnetMixed()
	seed := rng.Seed{State: 42, Stream: 7}
	e := w.NewEngine(seed)
	// The last replica steps over replica 0's workspaces.
	replica := e.Replica(e.Config().Devices - 1)
	// The oracle: the same builder called outside nn.BuildReplicas, so every
	// layer keeps its own workspace. The RNG is the init stream train.New
	// hands each replica.
	alone := w.Build(rng.New(seed).Split(0xbead))

	same := func(what string, r, a []float32) {
		t.Helper()
		if len(r) != len(a) {
			t.Fatalf("%s: replica holds %d elements, standalone model %d", what, len(r), len(a))
		}
		for i := range r {
			if math.Float32bits(r[i]) != math.Float32bits(a[i]) {
				t.Fatalf("%s: element %d is %v in the replica, %v in the standalone model", what, i, r[i], a[i])
			}
		}
	}
	state := func(when string) {
		t.Helper()
		rp, ap := replica.Params(), alone.Params()
		for i := range rp {
			same(when+" value of "+rp[i].Name, rp[i].Value.Data, ap[i].Value.Data)
			same(when+" gradient of "+rp[i].Name, rp[i].Grad.Data, ap[i].Grad.Data)
		}
		ab := alone.BatchNorms()
		for i, bn := range replica.BatchNorms() {
			same(when+" moving mean", bn.MovingMean.Data, ab[i].MovingMean.Data)
			same(when+" moving variance", bn.MovingVar.Data, ab[i].MovingVar.Data)
		}
	}

	state("initial")
	// Steps on one batch; the second reuses every workspace buffer the first
	// one allocated. The output serves as its own upstream gradient, and a plain
	// gradient step moves the weights in between.
	x := e.Loader().Batch(0).X
	for step := 0; step < 3; step++ {
		var outs, grads [2]*tensor.Tensor
		for i, m := range []*nn.Sequential{replica, alone} {
			m.ZeroGrad()
			outs[i] = m.Forward(&nn.Context{Training: true}, x, nil)
			grads[i] = m.Backward(outs[i].Clone(), nil)
			for _, p := range m.Params() {
				for j, g := range p.Grad.Data {
					p.Value.Data[j] -= 0.01 * g
				}
			}
		}
		same("output", outs[0].Data, outs[1].Data)
		same("input gradient", grads[0].Data, grads[1].Data)
		state("after the step")
	}
}

// TestScrubWorkspacesExact: poisoning the replicas' kernel scratch between
// snapshots must not change any subsequent result — scratch contents are
// undefined between kernel calls by contract, and this test enforces it, on
// the convolution path (mixed precision) and on the sequence path, with an
// evaluation batch going through the same layers every third iteration.
func TestScrubWorkspacesExact(t *testing.T) {
	const iters = 9
	type point struct {
		state    [16]byte
		testLoss float64
	}
	for _, w := range []*workloads.Workload{workloads.ResnetMixed(), workloads.Transformer()} {
		run := func(scrub bool) []point {
			e := w.NewEngine(rng.Seed{State: 9, Stream: 3})
			points := make([]point, 0, iters)
			for i := 0; i < iters; i++ {
				if scrub {
					e.ScrubWorkspaces()
				}
				e.RunIteration(i)
				p := point{state: e.StateDigest()}
				if i%3 == 2 {
					p.testLoss, _ = e.Evaluate(0)
				}
				points = append(points, p)
			}
			return points
		}
		plain := run(false)
		scrubbed := run(true)
		for i := range plain {
			if plain[i] != scrubbed[i] {
				t.Fatalf("%s: scrub changed the trajectory at iteration %d: %#v vs %#v — a kernel is reading stale workspace state",
					w.Name, i, plain[i], scrubbed[i])
			}
		}
	}
}
