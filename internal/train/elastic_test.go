package train

import (
	"math"
	"testing"

	"repro/internal/opt"
)

// TestReplicaSnapshotRestoreBitwise: a donor's ReplicaState imaged into
// another rank must leave that rank bitwise identical to the donor —
// parameters and BatchNorm statistics — which is the checkpoint-fidelity
// half of the JIT recovery proof. The clone must also be deep: training on
// after the capture must not disturb it.
func TestReplicaSnapshotRestoreBitwise(t *testing.T) {
	e, _ := testSetup(t, 3, opt.NewAdam(0.01), true)
	for i := 0; i < 5; i++ {
		e.RunIteration(i)
	}
	s := e.SnapshotReplica(0)
	frozen := s.Params[0].Data[0]

	// Scribble over replica 2, then image it from the snapshot.
	for _, p := range e.Replica(2).Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = float32(math.NaN())
		}
	}
	for _, bn := range e.Replica(2).BatchNorms() {
		bn.MovingMean.Data[0] = float32(math.Inf(1))
	}
	e.RestoreReplica(2, s)

	donor, got := e.Replica(0), e.Replica(2)
	for pi, p := range got.Params() {
		want := donor.Params()[pi]
		for i := range p.Value.Data {
			if math.Float32bits(p.Value.Data[i]) != math.Float32bits(want.Value.Data[i]) {
				t.Fatalf("param %d elem %d: restored rank differs from donor", pi, i)
			}
		}
	}
	for bi, bn := range got.BatchNorms() {
		want := donor.BatchNorms()[bi]
		for i := range bn.MovingMean.Data {
			if math.Float32bits(bn.MovingMean.Data[i]) != math.Float32bits(want.MovingMean.Data[i]) ||
				math.Float32bits(bn.MovingVar.Data[i]) != math.Float32bits(want.MovingVar.Data[i]) {
				t.Fatalf("batchnorm %d elem %d: restored stats differ from donor", bi, i)
			}
		}
	}
	e.RunIteration(5)
	if s.Params[0].Data[0] != frozen {
		t.Fatal("ReplicaState shares memory with the live engine")
	}
}

// TestSyncWeights: the post-restore weight top-up must leave the target
// rank's parameters bitwise equal to the root peer's, and syncing the root
// from itself must fail rather than silently no-op.
func TestSyncWeights(t *testing.T) {
	e, _ := testSetup(t, 3, opt.NewAdam(0.01), true)
	for i := 0; i < 3; i++ {
		e.RunIteration(i)
	}
	for _, p := range e.Replica(1).Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] += 1
		}
	}
	if err := e.SyncWeights(1); err != nil {
		t.Fatalf("SyncWeights: %v", err)
	}
	root := e.Replica(e.RootDevice())
	for pi, p := range e.Replica(1).Params() {
		for i := range p.Value.Data {
			if math.Float32bits(p.Value.Data[i]) != math.Float32bits(root.Params()[pi].Value.Data[i]) {
				t.Fatalf("param %d elem %d: synced rank differs from root", pi, i)
			}
		}
	}
	if err := e.SyncWeights(e.RootDevice()); err == nil {
		t.Fatal("SyncWeights(root) must fail: no peer to copy from")
	}
}

// TestElasticFullStrengthUnchanged: with every device healthy the elastic
// engine must take the legacy fixed-partition path bitwise — elasticity
// only kicks in when the group is degraded, so golden traces and forked
// campaigns stay valid under SetElastic.
func TestElasticFullStrengthUnchanged(t *testing.T) {
	a, _ := testSetup(t, 3, opt.NewAdam(0.01), true)
	b, _ := testSetup(t, 3, opt.NewAdam(0.01), true)
	b.SetElastic(true)
	for i := 0; i < 10; i++ {
		sa, sb := a.RunIteration(i), b.RunIteration(i)
		if math.Float64bits(sa.Loss) != math.Float64bits(sb.Loss) ||
			math.Float64bits(sa.TrainAcc) != math.Float64bits(sb.TrainAcc) {
			t.Fatalf("iteration %d: elastic full-strength run diverges from legacy (loss %v vs %v)",
				i, sa.Loss, sb.Loss)
		}
	}
}

// TestElasticDegradedRepartitions: with a device quarantined, the elastic
// engine re-partitions the full global batch over the survivors — the
// degraded iterations stay finite, deterministic across independent runs,
// and return to the legacy path bitwise after rejoin.
func TestElasticDegradedRepartitions(t *testing.T) {
	run := func() []float64 {
		e, _ := testSetup(t, 3, opt.NewAdam(0.01), true)
		e.SetElastic(true)
		var losses []float64
		for i := 0; i < 12; i++ {
			if i == 4 {
				e.Quarantine(1)
			}
			if i == 8 {
				if err := e.Rejoin(1); err != nil {
					t.Fatalf("rejoin: %v", err)
				}
			}
			st := e.RunIteration(i)
			if st.NonFinite {
				t.Fatalf("iteration %d went non-finite under elastic repartition", i)
			}
			if degraded := i >= 4 && i < 8; st.Degraded != degraded {
				t.Fatalf("iteration %d: Degraded=%v, want %v", i, st.Degraded, degraded)
			}
			losses = append(losses, st.Loss)
		}
		return losses
	}
	first, second := run(), run()
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			t.Fatalf("elastic degraded runs diverge bitwise at iteration %d: %v vs %v",
				i, first[i], second[i])
		}
	}
}
