package recovery

// Satellite coverage for the re-execution path in the configuration that
// stresses its snapshot/restore completeness: nested BatchNorm containers
// (Residual / DenseBlock traversal must capture every moving statistic, not
// just top-level layers).

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/workloads"
)

// traceBits runs iterations [0, iters) on a fresh engine of workload w and
// returns the loss bit patterns plus the final root-replica weight bits.
func traceBits(w *workloads.Workload, iters int) ([]uint64, []uint32) {
	e := w.NewEngine(rng.Seed{State: 77, Stream: 5})
	losses := make([]uint64, iters)
	for i := 0; i < iters; i++ {
		losses[i] = math.Float64bits(e.RunIteration(i).Loss)
	}
	var weights []uint32
	for _, p := range e.Replica(e.RootDevice()).Params() {
		for _, v := range p.Value.Data {
			weights = append(weights, math.Float32bits(v))
		}
	}
	return losses, weights
}

// rollbackTraceBits runs the same schedule but interrupts it with a
// two-iteration rollback at rollbackAt, then re-executes to the end —
// exercising BeforeIteration/Rollback mid-run.
func rollbackTraceBits(w *workloads.Workload, iters, rollbackAt int) ([]uint64, []uint32) {
	e := w.NewEngine(rng.Seed{State: 77, Stream: 5})
	r := NewReExecutor(e)
	losses := make([]uint64, iters)
	rolledBack := false
	for i := 0; i < iters; {
		r.BeforeIteration(i)
		losses[i] = math.Float64bits(e.RunIteration(i).Loss)
		if !rolledBack && i == rollbackAt {
			rolledBack = true
			i = r.Rollback()
			continue
		}
		i++
	}
	var weights []uint32
	for _, p := range e.Replica(e.RootDevice()).Params() {
		for _, v := range p.Value.Data {
			weights = append(weights, math.Float32bits(v))
		}
	}
	return losses, weights
}

// TestReExecutorExactReplay checks that a run interrupted by a rollback
// reconverges bitwise with the uninterrupted run, across flat (ResNet) and
// nested-container
// (DenseNet: DenseBlock-wrapped BatchNorms; ResNet: Residual-wrapped)
// models. A missed moving statistic or optimizer tensor in
// Snapshot/Restore would diverge the re-executed trajectory immediately.
func TestReExecutorExactReplay(t *testing.T) {
	const iters, rollbackAt = 8, 5
	for _, w := range []*workloads.Workload{workloads.Resnet(), workloads.DenseNet()} {
		wantLoss, wantWeights := traceBits(w, iters)
		gotLoss, gotWeights := rollbackTraceBits(w, iters, rollbackAt)
		for i := range wantLoss {
			if gotLoss[i] != wantLoss[i] {
				t.Fatalf("%s: loss@%d %#x != uninterrupted %#x", w.Name, i, gotLoss[i], wantLoss[i])
			}
		}
		if len(gotWeights) != len(wantWeights) {
			t.Fatalf("%s: weight count mismatch", w.Name)
		}
		for i := range wantWeights {
			if gotWeights[i] != wantWeights[i] {
				t.Fatalf("%s: weight[%d] %#x != uninterrupted %#x", w.Name, i, gotWeights[i], wantWeights[i])
			}
		}
	}
}

// TestSnapshotCoversNestedBatchNorms asserts the snapshot actually reaches
// the BatchNorms inside nested containers: DenseNet has BNs both at the
// top level and inside a DenseBlock, and every one must appear in the
// per-device BNStats (2 tensors each).
func TestSnapshotCoversNestedBatchNorms(t *testing.T) {
	w := workloads.DenseNet()
	e := w.NewEngine(rng.Seed{State: 1, Stream: 1})
	nBNs := len(e.Replica(0).BatchNorms())
	if nBNs < 2 {
		t.Fatalf("DenseNet reports %d BatchNorms; nested traversal broken", nBNs)
	}
	e.RunIteration(0)
	s := e.Snapshot(1)
	if len(s.BNStats) != w.Devices {
		t.Fatalf("BNStats covers %d devices, want %d", len(s.BNStats), w.Devices)
	}
	for d, stats := range s.BNStats {
		if len(stats) != 2*nBNs {
			t.Fatalf("device %d: %d BN stat tensors, want %d (2 per BatchNorm)", d, len(stats), 2*nBNs)
		}
	}
}
