package train_test

// Determinism regression tests for the training engine: the recovery
// technique (Sec 5.2) relies on exact re-execution of past iterations and
// the FI campaigns compare runs against a fault-free reference trace, so a
// trajectory must be a function of the seed alone — not of what else the
// process runs, and not of what the kernel scratch held before a step.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/train"
	"repro/internal/workloads"
)

// resnetTrace trains the Resnet workload for iters iterations and returns
// every iteration loss plus the final replica-0 weights. between, when
// non-nil, runs after each iteration.
func resnetTrace(iters int, between func(e *train.Engine, iter int)) ([]float64, []float32) {
	w := workloads.Resnet()
	e := w.NewEngine(rng.Seed{State: 42, Stream: 7})
	losses := make([]float64, iters)
	for i := 0; i < iters; i++ {
		losses[i] = e.RunIteration(i).Loss
		if between != nil {
			between(e, i)
		}
	}
	var weights []float32
	for _, p := range e.Replica(0).Params() {
		weights = append(weights, p.Value.Data...)
	}
	return losses, weights
}

// TestTrainingBitwiseDeterminism: the engine's trajectory is the same bits
// when a second engine of the same workload trains in between its
// iterations (engines share nothing but immutable datasets), when its scratch
// is poisoned between iterations (a step reads no scratch it did not write),
// and when it evaluates between iterations (the first evaluation sizes no
// buffer training then inherits).
func TestTrainingBitwiseDeterminism(t *testing.T) {
	const iters = 6
	other := workloads.Resnet().NewEngine(rng.Seed{State: 43, Stream: 7})
	variants := []struct {
		name    string
		between func(e *train.Engine, iter int)
	}{
		{"interleaved", func(_ *train.Engine, iter int) { other.RunIteration(iter) }},
		{"scrubbed", func(e *train.Engine, _ int) { e.ScrubWorkspaces() }},
		{"evaluated", func(e *train.Engine, _ int) { e.Evaluate(e.RootDevice()) }},
	}
	refLosses, refWeights := resnetTrace(iters, nil)
	for _, v := range variants {
		losses, weights := resnetTrace(iters, v.between)
		for i := range losses {
			if math.Float64bits(losses[i]) != math.Float64bits(refLosses[i]) {
				t.Fatalf("%s: loss@%d = %v, plain run = %v (not bitwise identical)",
					v.name, i, losses[i], refLosses[i])
			}
		}
		if len(weights) != len(refWeights) {
			t.Fatalf("%s: %d weights vs %d in the plain run", v.name, len(weights), len(refWeights))
		}
		for i := range weights {
			if math.Float32bits(weights[i]) != math.Float32bits(refWeights[i]) {
				t.Fatalf("%s: weight[%d] = %v, plain run = %v (not bitwise identical)",
					v.name, i, weights[i], refWeights[i])
			}
		}
	}
}

// TestCommAllReduceMatchesPrePRTrajectory pins the collective-layer
// refactor to the engine it replaced. The constants below were captured
// from the pre-comm-layer engine (gradient averaging as an inline loop in
// RunIteration) on this exact workload and seed; with a fully healthy
// group, AllReduce must reproduce that trajectory bit for bit. The pinned
// bits predate the replicas' shared scratch set, so this is also the guard
// against a device reading scratch another device left behind.
func TestCommAllReduceMatchesPrePRTrajectory(t *testing.T) {
	wantLoss := []uint64{
		0x3ff4c66608226687,
		0x3ff7ae33ab1b52fd,
		0x3ff9b704bab9bf8e,
		0x3ff7fe8f9afbf319,
		0x3ff1ca4306e6ed5e,
		0x3ff342d847287961,
	}
	const wantWeights = uint64(0x90b9b9dee6d7a2fd)

	losses, weights := resnetTrace(len(wantLoss), nil)
	for i, l := range losses {
		if math.Float64bits(l) != wantLoss[i] {
			t.Fatalf("loss@%d = %#x, pre-PR engine produced %#x", i, math.Float64bits(l), wantLoss[i])
		}
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, w := range weights {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(w))
		h.Write(buf[:])
	}
	if got := h.Sum64(); got != wantWeights {
		t.Fatalf("weight digest %#x, pre-PR engine produced %#x", got, wantWeights)
	}
}
