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
// crashed device is quarantined, a checkpoint is cloned from the healthy
// root donor at that moment, the rank is re-imaged in the background, and
// on fault repair it is re-admitted. The restored replica must be bitwise
// equal to the donor checkpoint — data-parallel ranks hold identical
// weights, so the donor state IS the lost rank's checkpoint — and the
// time-to-recover must equal the fault's outage window exactly.
func TestGroupGuardJITCrashRecovery(t *testing.T) {
	const iters = 30
	const onset, repair = 5, 10

	e := resnetEngine()
	e.Group().Arm(fault.DeviceFault{
		Kind: fault.DeviceCrash, Device: 2, Iteration: onset, RepairIter: repair,
	})
	g := NewGroupGuard(e)
	g.Strategy = StrategyJIT

	restored := 0
	g.onRestore = func(d int, s *train.ReplicaState) {
		restored++
		if d != 2 {
			t.Errorf("restore imaged device %d, want 2", d)
		}
		params := e.Replica(d).Params()
		if len(params) != len(s.Params) {
			t.Fatalf("restored rank has %d params, checkpoint has %d", len(params), len(s.Params))
		}
		for i, p := range params {
			for j := range p.Value.Data {
				if math.Float32bits(p.Value.Data[j]) != math.Float32bits(s.Params[i].Data[j]) {
					t.Fatalf("param %d elem %d: restored rank diverges bitwise from the donor checkpoint", i, j)
				}
			}
		}
	}

	trace := train.NewTrace("resnet")
	if err := g.Run(0, iters, trace); err != nil {
		t.Fatalf("GroupGuard.Run: %v", err)
	}
	if restored != 1 {
		t.Fatalf("onRestore observed %d restores, want 1", restored)
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
// neither the JIT background restore nor the elastic re-partition can
// silently race its own engine's stepping or the other engine.
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
				if sc.strategy == StrategyDegraded {
					g.RejoinAfter = 0
				}
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
