package train_test

// StateDigest is the masked-early-exit primitive: equal digests at the same
// iteration must mean equal evolution-relevant state, and any state the
// digest claims to cover must actually perturb it.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/train"
)

func TestStateDigest(t *testing.T) {
	for name, w := range forkCases() {
		t.Run(name, func(t *testing.T) {
			seed := rng.Seed{State: 11, Stream: 77}
			a := w.NewEngine(seed)
			b := w.NewEngine(seed)
			if a.StateDigest() != b.StateDigest() {
				t.Fatal("identically constructed engines disagree at iteration 0")
			}
			prev := a.StateDigest()
			for i := 0; i < 4; i++ {
				a.RunIteration(i)
				b.RunIteration(i)
				d := a.StateDigest()
				if d != b.StateDigest() {
					t.Fatalf("lockstep engines diverge after iteration %d", i)
				}
				if d == prev {
					t.Fatalf("digest unchanged by iteration %d — state not covered", i)
				}
				prev = d
			}
			// Restore repositions digest-covered state exactly.
			snap := a.Snapshot(3)
			a.RunIteration(4)
			if a.StateDigest() == prev {
				t.Fatal("digest unchanged by iteration 4")
			}
			a.Restore(snap)
			if a.StateDigest() != prev {
				t.Fatal("Restore did not return the digest to the snapshot state")
			}
			// One perturbed element of each covered state must flip the
			// digest, and putting it back must restore it.
			covered := digestCovered(a)
			if name == "bn-adam" && len(covered) != 5 {
				t.Fatalf("bn-adam covers %d kinds of state, want 5 (weight, Adam m and v, BN mean and variance)", len(covered))
			}
			for _, c := range covered {
				keep := c.data[0]
				c.data[0] += 1
				if a.StateDigest() == prev {
					t.Fatalf("digest blind to a perturbation of %s", c.what)
				}
				c.data[0] = keep
				if a.StateDigest() != prev {
					t.Fatalf("digest not restored after undoing %s", c.what)
				}
			}
		})
	}
}

// coveredState is one tensor of state StateDigest claims to cover.
type coveredState struct {
	what string
	data []float32
}

// digestCovered names one tensor of each kind of state StateDigest covers: a
// root weight, every optimizer history tensor of the first parameter in name
// order (Adam's first and second moments, SGD's velocity), and the moving
// mean and variance of a BatchNorm on the last device, which is not the root.
func digestCovered(e *train.Engine) []coveredState {
	out := []coveredState{{"a root weight", e.Replica(e.RootDevice()).Params()[0].Value.Data}}
	if hist := e.Optimizer().History(); hist != nil {
		names := make([]string, 0, len(hist))
		for name := range hist {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, h := range hist[names[0]] {
			out = append(out, coveredState{fmt.Sprintf("optimizer history tensor %d of %s", i, names[0]), h.Data})
		}
	}
	last := e.Config().Devices - 1
	if bns := e.Replica(last).BatchNorms(); len(bns) > 0 && last != e.RootDevice() {
		out = append(out,
			coveredState{"a non-root BN moving mean", bns[0].MovingMean.Data},
			coveredState{"a non-root BN moving variance", bns[0].MovingVar.Data})
	}
	return out
}
