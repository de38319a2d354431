package recovery

import (
	"math"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/train"
	"repro/internal/workloads"
)

// quarantined reports whether device d is out of e's group.
func quarantined(e *train.Engine, d int) bool {
	return !slices.Contains(e.Group().Healthy(), d)
}

// resnetEngine builds the 8-device ResNet workload engine used by the
// group-mitigation tests.
func resnetEngine() *train.Engine {
	return workloads.Resnet().NewEngine(rng.Seed{State: 31, Stream: 17})
}

// runPlain trains iterations [0, iters) without mitigation and returns the
// trace.
func runPlain(e *train.Engine, iters int) *train.Trace {
	trace := train.NewTrace("resnet")
	for i := 0; i < iters; i++ {
		st := e.RunIteration(i)
		trace.TrainLoss = append(trace.TrainLoss, st.Loss)
		trace.TrainAcc = append(trace.TrainAcc, st.TrainAcc)
		trace.Completed++
	}
	return trace
}

// TestGroupGuardStuckAtDetectQuarantineDegraded is the headline mitigation
// scenario: a permanent stuck-at device is detected by the cross-replica
// check within the paper's 2-iteration window, quarantined with a
// two-iteration re-execution undoing the poisoned update, and training
// completes in degraded mode with final accuracy inside the fault-free
// run's noise band.
func TestGroupGuardStuckAtDetectQuarantineDegraded(t *testing.T) {
	const iters = 60
	const onset = 20

	ref := runPlain(resnetEngine(), iters)

	e := resnetEngine()
	e.Group().Arm(fault.DeviceFault{
		Kind: fault.DeviceStuckAt, Device: 3, Iteration: onset,
		BitPos: 30, Lane: 2,
	})
	g := NewGroupGuard(e)
	g.Strategy = StrategyDegraded
	trace := train.NewTrace("resnet")
	if err := g.Run(0, iters, trace); err != nil {
		t.Fatalf("GroupGuard.Run: %v", err)
	}

	det := g.FirstDetectIter()
	if det < onset || det > onset+2 {
		t.Fatalf("cross-replica detection at iteration %d, want within [%d, %d]", det, onset, onset+2)
	}
	if !quarantined(e, 3) {
		t.Fatal("faulty device 3 not quarantined")
	}
	if g.Quarantines != 1 || g.Rollbacks != 1 {
		t.Fatalf("quarantines=%d rollbacks=%d, want 1 and 1", g.Quarantines, g.Rollbacks)
	}
	if trace.Completed != iters || trace.NonFiniteIter != -1 {
		t.Fatalf("degraded run did not complete cleanly: completed=%d nonfinite@%d",
			trace.Completed, trace.NonFiniteIter)
	}
	if g.DegradedIters == 0 {
		t.Fatal("no degraded iterations counted")
	}
	refAcc := ref.FinalTrainAcc(10)
	gotAcc := trace.FinalTrainAcc(10)
	if math.Abs(refAcc-gotAcc) >= 0.10 {
		t.Fatalf("degraded final accuracy %.3f outside the fault-free noise band (ref %.3f)", gotAcc, refAcc)
	}
	refLoss := ref.TrainLoss[iters-1]
	gotLoss := trace.TrainLoss[iters-1]
	if math.IsNaN(gotLoss) || math.Abs(refLoss-gotLoss) >= 0.75 {
		t.Fatalf("degraded final loss %.4f too far from fault-free %.4f", gotLoss, refLoss)
	}
}

// TestGroupGuardCrashTimeoutRetryQuarantine: a crashed device exhausts the
// collective's timeout+retry budget and is quarantined — the group keeps
// training instead of hanging, in bounded (virtual) time.
func TestGroupGuardCrashTimeoutRetryQuarantine(t *testing.T) {
	const iters = 30
	const onset = 10

	e := resnetEngine()
	e.Group().Arm(fault.DeviceFault{Kind: fault.DeviceCrash, Device: 1, Iteration: onset})
	g := NewGroupGuard(e)
	g.Strategy = StrategyDegraded
	trace := train.NewTrace("resnet")
	if err := g.Run(0, iters, trace); err != nil {
		t.Fatalf("GroupGuard.Run: %v", err)
	}

	if g.CommRetries < e.Group().Policy().MaxRetries {
		t.Fatalf("CommRetries = %d, want at least the %d-attempt budget",
			g.CommRetries, e.Group().Policy().MaxRetries)
	}
	if g.Quarantines != 1 || g.Rollbacks != 0 {
		t.Fatalf("quarantines=%d rollbacks=%d, want 1 and 0 (exclusion needs no rewind)",
			g.Quarantines, g.Rollbacks)
	}
	if len(g.Events) == 0 || g.Events[0].Kind != "quarantine-timeout" || g.Events[0].Iteration != onset {
		t.Fatalf("events = %+v, want quarantine-timeout at %d first", g.Events, onset)
	}
	if !quarantined(e, 1) || trace.Completed != iters {
		t.Fatalf("quarantined(1)=%v completed=%d", quarantined(e, 1), trace.Completed)
	}
}

// TestGroupHangWithoutMitigation: under the default (non-excluding) policy
// a crashed device hangs the whole synchronous group — the collective
// aborts and the weights are untouched.
func TestGroupHangWithoutMitigation(t *testing.T) {
	e := resnetEngine()
	e.Group().Arm(fault.DeviceFault{Kind: fault.DeviceCrash, Device: 4, Iteration: 3})

	var before []float32
	for i := 0; i < 4; i++ {
		if i == 3 {
			for _, p := range e.Replica(0).Params() {
				before = append(before, p.Value.Data...)
			}
		}
		st := e.RunIteration(i)
		if i < 3 && st.GroupHang {
			t.Fatalf("hang before onset at %d", i)
		}
		if i == 3 {
			if !st.GroupHang || st.CommRetries == 0 {
				t.Fatalf("at onset: GroupHang=%v CommRetries=%d", st.GroupHang, st.CommRetries)
			}
			var after []float32
			for _, p := range e.Replica(0).Params() {
				after = append(after, p.Value.Data...)
			}
			for j := range before {
				if math.Float32bits(before[j]) != math.Float32bits(after[j]) {
					t.Fatal("group hang mutated the weights")
				}
			}
		}
	}
}

// TestGroupGuardRejoinAfterRepair: a crash that heals (node replaced) is
// quarantined, then hot-rejoined from the healthy root peer once the
// rejoinAfter window elapses — the group returns to full strength.
func TestGroupGuardRejoinAfterRepair(t *testing.T) {
	const iters = 30
	e := resnetEngine()
	e.Group().Arm(fault.DeviceFault{
		Kind: fault.DeviceCrash, Device: 2, Iteration: 5, RepairIter: 10,
	})
	g := NewGroupGuard(e)
	trace := train.NewTrace("resnet")
	if err := g.Run(0, iters, trace); err != nil {
		t.Fatalf("GroupGuard.Run: %v", err)
	}
	if g.Quarantines != 1 || g.Rejoins != 1 {
		t.Fatalf("quarantines=%d rejoins=%d, want 1 and 1", g.Quarantines, g.Rejoins)
	}
	if e.Group().HealthyCount() != e.Config().Devices {
		t.Fatalf("group not back to full strength: %d/%d healthy",
			e.Group().HealthyCount(), e.Config().Devices)
	}
	if g.DegradedIters != rejoinAfter {
		t.Fatalf("DegradedIters = %d, want %d (quarantined at 5, rejoined at %d)",
			g.DegradedIters, rejoinAfter, 5+rejoinAfter)
	}
	if trace.Completed != iters || trace.NonFiniteIter != -1 {
		t.Fatalf("completed=%d nonfinite@%d", trace.Completed, trace.NonFiniteIter)
	}
}

// TestGroupGuardPermanentFaultRequarantined: hot-rejoining a device whose
// stuck-at fault is permanent immediately re-triggers the cross-replica
// check; maxRejoins bounds the oscillation and the run still completes.
func TestGroupGuardPermanentFaultRequarantined(t *testing.T) {
	const iters = 40
	e := resnetEngine()
	e.Group().Arm(fault.DeviceFault{
		Kind: fault.DeviceStuckAt, Device: 6, Iteration: 4, BitPos: 30, Lane: 0,
	})
	g := NewGroupGuard(e)
	trace := train.NewTrace("resnet")
	if err := g.Run(0, iters, trace); err != nil {
		t.Fatalf("GroupGuard.Run: %v", err)
	}
	if g.Rejoins != maxRejoins {
		t.Fatalf("rejoins = %d, want the maxRejoins bound %d", g.Rejoins, maxRejoins)
	}
	if g.Quarantines != maxRejoins+1 {
		t.Fatalf("quarantines = %d, want %d (initial + one per failed rejoin)",
			g.Quarantines, maxRejoins+1)
	}
	if !quarantined(e, 6) || trace.Completed != iters {
		t.Fatalf("quarantined(6)=%v completed=%d", quarantined(e, 6), trace.Completed)
	}
}

// TestGroupGuardDegradedNeverReadmits: StrategyDegraded alone, with no other
// setting, keeps a repaired device out of the group for the rest of the run.
func TestGroupGuardDegradedNeverReadmits(t *testing.T) {
	const iters = 30
	e := resnetEngine()
	e.Group().Arm(fault.DeviceFault{
		Kind: fault.DeviceCrash, Device: 2, Iteration: 5, RepairIter: 10,
	})
	g := NewGroupGuard(e)
	g.Strategy = StrategyDegraded
	trace := train.NewTrace("resnet")
	if err := g.Run(0, iters, trace); err != nil {
		t.Fatalf("GroupGuard.Run: %v", err)
	}
	if g.Quarantines != 1 || g.Rejoins != 0 || g.RejoinFailures != 0 {
		t.Fatalf("quarantines=%d rejoins=%d rejoinFailures=%d, want 1, 0 and 0",
			g.Quarantines, g.Rejoins, g.RejoinFailures)
	}
	if !quarantined(e, 2) {
		t.Fatal("degraded strategy returned device 2 to the group")
	}
	if g.TimeToRecover() != -1 || g.DegradedIters != iters-5 {
		t.Fatalf("ttr=%d degradedIters=%d, want -1 and %d", g.TimeToRecover(), g.DegradedIters, iters-5)
	}
	if trace.Completed != iters {
		t.Fatalf("completed=%d, want %d", trace.Completed, iters)
	}
}
