package recovery

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/train"
)

// TestStrategyNames: every published strategy round-trips through its
// serialized name, and unknown names are rejected.
func TestStrategyNames(t *testing.T) {
	for _, s := range append([]Strategy{StrategyNone}, Strategies...) {
		got, ok := StrategyByName(s.String())
		if !ok || got != s {
			t.Fatalf("strategy %d does not round-trip: name %q -> (%v, %v)", s, s.String(), got, ok)
		}
	}
	if _, ok := StrategyByName("checkpointless"); ok {
		t.Fatal("unknown strategy name resolved")
	}
}

// TestGroupGuardJITCrashRecovery is the just-in-time checkpoint proof: a
// crashed device is quarantined, the healthy root donor is imaged into the
// lost rank at that moment, and on fault repair the rank is re-admitted.
// Right after the quarantine the lost rank must be bitwise equal to the
// donor — data-parallel ranks hold identical weights, so the donor state IS
// the lost rank's checkpoint — and the time-to-recover must equal the
// fault's outage window exactly.
func TestGroupGuardJITCrashRecovery(t *testing.T) {
	const iters = 30
	const onset, repair = 5, 10

	e := resnetEngine()
	e.Group().Arm(fault.DeviceFault{
		Kind: fault.DeviceCrash, Device: 2, Iteration: onset, RepairIter: repair,
	})
	g := NewGroupGuard(e)
	g.Strategy = StrategyJIT

	trace := train.NewTrace("resnet")
	if err := g.Run(0, onset+1, trace); err != nil {
		t.Fatalf("GroupGuard.Run: %v", err)
	}
	if !quarantined(e, 2) || g.JITSnapshots != 1 {
		t.Fatalf("after onset: quarantined(2)=%v jitSnapshots=%d, want true and 1",
			quarantined(e, 2), g.JITSnapshots)
	}
	lost, donor := e.Replica(2), e.Replica(e.RootDevice())
	for i, p := range lost.Params() {
		want := donor.Params()[i].Value.Data
		for j, v := range p.Value.Data {
			if math.Float32bits(v) != math.Float32bits(want[j]) {
				t.Fatalf("param %d elem %d: restored rank diverges bitwise from the donor", i, j)
			}
		}
	}
	donorBNs := donor.BatchNorms()
	if len(donorBNs) == 0 {
		t.Fatal("workload has no BatchNorm statistics to check")
	}
	for i, bn := range lost.BatchNorms() {
		for j := range bn.MovingMean.Data {
			if math.Float32bits(bn.MovingMean.Data[j]) != math.Float32bits(donorBNs[i].MovingMean.Data[j]) ||
				math.Float32bits(bn.MovingVar.Data[j]) != math.Float32bits(donorBNs[i].MovingVar.Data[j]) {
				t.Fatalf("batchnorm %d elem %d: restored statistics diverge bitwise from the donor", i, j)
			}
		}
	}
	if err := g.Run(onset+1, iters, trace); err != nil {
		t.Fatalf("GroupGuard.Run: %v", err)
	}
	if g.JITSnapshots != 1 || g.Readmits != 1 || g.Rejoins != 1 {
		t.Fatalf("jitSnapshots=%d readmits=%d rejoins=%d, want 1/1/1",
			g.JITSnapshots, g.Readmits, g.Rejoins)
	}
	if g.Rollbacks != 0 {
		t.Fatalf("JIT strategy ran %d rollbacks, want 0 (no re-execution ring)", g.Rollbacks)
	}
	if ttr := g.TimeToRecover(); ttr != repair-onset {
		t.Fatalf("TimeToRecover = %d, want the outage window %d", ttr, repair-onset)
	}
	if e.Group().HealthyCount() != e.Config().Devices {
		t.Fatalf("group not back to full strength: %d/%d healthy",
			e.Group().HealthyCount(), e.Config().Devices)
	}
	if trace.Completed != iters || trace.NonFiniteIter != -1 {
		t.Fatalf("completed=%d nonfinite@%d", trace.Completed, trace.NonFiniteIter)
	}
	var kinds []string
	for _, ev := range g.Events {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"quarantine-timeout", "jit-snapshot", "jit-restore"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for _, ev := range g.Events {
		if (ev.Kind == "jit-snapshot" || ev.Kind == "jit-restore") && ev.ResumedFrom != e.RootDevice() {
			t.Fatalf("%s event names donor %d, want root %d", ev.Kind, ev.ResumedFrom, e.RootDevice())
		}
	}
}

// TestGroupGuardElasticCrashRecovery: under the elastic strategy a crashed
// device shrinks the global-batch partition over the survivors (no example
// dropped), a repaired device grows it back, and the whole schedule is
// deterministic — two independent runs of the same failure schedule produce
// bitwise-identical traces.
func TestGroupGuardElasticCrashRecovery(t *testing.T) {
	const iters = 30
	const onset, repair = 6, 12

	run := func() (*GroupGuard, *train.Trace) {
		e := resnetEngine()
		e.Group().Arm(fault.DeviceFault{
			Kind: fault.DeviceCrash, Device: 3, Iteration: onset, RepairIter: repair,
		})
		g := NewGroupGuard(e)
		g.Strategy = StrategyElastic
		trace := train.NewTrace("resnet")
		if err := g.Run(0, iters, trace); err != nil {
			t.Fatalf("GroupGuard.Run: %v", err)
		}
		if e.Group().HealthyCount() != e.Config().Devices {
			t.Fatalf("group not back to full strength: %d/%d healthy",
				e.Group().HealthyCount(), e.Config().Devices)
		}
		return g, trace
	}

	g, trace := run()
	if g.Resizes != 2 || g.Readmits != 1 {
		t.Fatalf("resizes=%d readmits=%d, want 2 (shrink+grow) and 1", g.Resizes, g.Readmits)
	}
	if g.Rollbacks != 0 || g.JITSnapshots != 0 {
		t.Fatalf("elastic ran rollbacks=%d jitSnapshots=%d, want 0/0", g.Rollbacks, g.JITSnapshots)
	}
	if ttr := g.TimeToRecover(); ttr != repair-onset {
		t.Fatalf("TimeToRecover = %d, want the outage window %d", ttr, repair-onset)
	}
	if g.DegradedIters != repair-onset {
		t.Fatalf("DegradedIters = %d, want %d", g.DegradedIters, repair-onset)
	}
	if trace.Completed != iters || trace.NonFiniteIter != -1 {
		t.Fatalf("completed=%d nonfinite@%d", trace.Completed, trace.NonFiniteIter)
	}

	g2, trace2 := run()
	if !reflect.DeepEqual(g.Events, g2.Events) {
		t.Fatalf("elastic runs diverge in events:\n%+v\n%+v", g.Events, g2.Events)
	}
	for i := range trace.TrainLoss {
		if math.Float64bits(trace.TrainLoss[i]) != math.Float64bits(trace2.TrainLoss[i]) {
			t.Fatalf("elastic runs diverge bitwise at iteration %d: %v vs %v",
				i, trace.TrainLoss[i], trace2.TrainLoss[i])
		}
	}
}

// TestGroupGuardParallelMatchesSerial: for every strategy and a
// representative fault of each class, guards running on two engines at once
// — a campaign's one level of parallelism, each engine stepping its devices
// one at a time over its one scratch set — produce the Events, counters and
// bitwise trace of a guard running alone. ci.sh runs this under -race, so
// neither the JIT restore nor the elastic re-partition can silently race the
// other engine. In every run each counter equals the count of its event
// kinds, and the first-quarantine and first-detection iterations equal the
// first matching events.
func TestGroupGuardParallelMatchesSerial(t *testing.T) {
	const iters = 30
	scenarios := []struct {
		label    string
		strategy Strategy
		df       fault.DeviceFault
	}{
		{"reexec-crash", StrategyReexec,
			fault.DeviceFault{Kind: fault.DeviceCrash, Device: 1, Iteration: 5, RepairIter: 10}},
		{"reexec-stuckat", StrategyReexec,
			fault.DeviceFault{Kind: fault.DeviceStuckAt, Device: 3, Iteration: 8, BitPos: 30, Lane: 2}},
		{"jit-crash", StrategyJIT,
			fault.DeviceFault{Kind: fault.DeviceCrash, Device: 2, Iteration: 5, RepairIter: 10}},
		{"elastic-crash", StrategyElastic,
			fault.DeviceFault{Kind: fault.DeviceCrash, Device: 4, Iteration: 6, RepairIter: 12}},
		{"degraded-crash", StrategyDegraded,
			fault.DeviceFault{Kind: fault.DeviceCrash, Device: 5, Iteration: 7}},
	}
	for _, sc := range scenarios {
		t.Run(sc.label, func(t *testing.T) {
			type result struct {
				g     *GroupGuard
				trace *train.Trace
				err   error
			}
			run := func() result {
				e := resnetEngine()
				e.Group().Arm(sc.df)
				g := NewGroupGuard(e)
				g.Strategy = sc.strategy
				trace := train.NewTrace("resnet")
				return result{g, trace, g.Run(0, iters, trace)}
			}
			serial := run()
			var parallel [2]result
			var wg sync.WaitGroup
			for i := range parallel {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					parallel[i] = run()
				}(i)
			}
			wg.Wait()

			counts := func(g *GroupGuard) []int {
				return []int{g.Quarantines, g.Rejoins, g.Rollbacks, g.DegradedIters,
					g.RejoinFailures, g.JITSnapshots, g.Resizes, g.Readmits, g.CorruptElems}
			}
			for _, r := range append([]result{serial}, parallel[:]...) {
				if r.err != nil {
					t.Fatalf("GroupGuard.Run: %v", r.err)
				}
				checkCountersMatchEvents(t, r.g)
			}
			for i, p := range parallel {
				if !reflect.DeepEqual(serial.g.Events, p.g.Events) {
					t.Fatalf("engine %d: events diverge:\nalone    %+v\nparallel %+v", i, serial.g.Events, p.g.Events)
				}
				if !reflect.DeepEqual(counts(serial.g), counts(p.g)) {
					t.Fatalf("engine %d: counters diverge:\nalone    %v\nparallel %v", i, counts(serial.g), counts(p.g))
				}
				st, pt := serial.trace, p.trace
				if st.Completed != pt.Completed || st.NonFiniteIter != pt.NonFiniteIter {
					t.Fatalf("engine %d: traces diverge: completed %d/%d nonfinite %d/%d",
						i, st.Completed, pt.Completed, st.NonFiniteIter, pt.NonFiniteIter)
				}
				for j := range st.TrainLoss {
					if math.Float64bits(st.TrainLoss[j]) != math.Float64bits(pt.TrainLoss[j]) {
						t.Fatalf("engine %d: traces diverge bitwise at iteration %d: %v vs %v",
							i, j, st.TrainLoss[j], pt.TrainLoss[j])
					}
				}
			}
		})
	}
}

// checkCountersMatchEvents holds every GroupGuard counter and latch to the
// event log it summarizes.
func checkCountersMatchEvents(t *testing.T, g *GroupGuard) {
	t.Helper()
	n := map[string]int{}
	rollbacks := 0
	firstQ, firstD := -1, -1
	for _, ev := range g.Events {
		n[ev.Kind]++
		switch ev.Kind {
		case "quarantine-corrupt":
			if ev.ResumedFrom >= 0 {
				rollbacks++
			}
			if firstD < 0 {
				firstD = ev.Iteration
			}
			fallthrough
		case "quarantine-timeout":
			if firstQ < 0 {
				firstQ = ev.Iteration
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"Quarantines", g.Quarantines, n["quarantine-timeout"] + n["quarantine-corrupt"]},
		{"Rejoins", g.Rejoins, n["rejoin"] + n["jit-restore"] + n["readmit"]},
		{"Readmits", g.Readmits, n["jit-restore"] + n["readmit"]},
		{"Resizes", g.Resizes, n["resize"] + n["readmit"]},
		{"JITSnapshots", g.JITSnapshots, n["jit-snapshot"]},
		{"RejoinFailures", g.RejoinFailures, n["rejoin-failed"]},
		{"Rollbacks", g.Rollbacks, rollbacks},
		{"FirstQuarantineIter", g.FirstQuarantineIter(), firstQ},
		{"FirstDetectIter", g.FirstDetectIter(), firstD},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, events say %d (events %+v)", c.name, c.got, c.want, g.Events)
		}
	}
}
