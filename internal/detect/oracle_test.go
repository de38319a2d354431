package detect

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/train"
)

// sweepCheck is CheckEngine with every tensor swept — the detector's loop
// before it read the statistics its producers keep, kept as the oracle those
// reads are held to. It returns the first alarm in CheckEngine's order and
// the number of bound evaluations made.
func sweepCheck(d *Detector, e *train.Engine) (*Alarm, int) {
	checks := 0
	over := func(where string, av float32, bound float64) *Alarm {
		checks++
		v := float64(av)
		if !math.IsNaN(v) && v <= bound {
			return nil
		}
		if math.IsNaN(v) {
			v = math.Inf(1)
		}
		return &Alarm{Where: where, Value: v, Bound: bound}
	}
	h := e.Optimizer().History()
	for _, name := range sortedKeys(h) {
		for i, t := range h[name] {
			label, bound := "hist-m", d.Bounds.GradHistory
			if i == 1 {
				label, bound = "hist-v", d.Bounds.GradHistorySq
			}
			if a := over(fmt.Sprintf("%s:%s", label, name), t.AbsMax(), bound); a != nil {
				return a, checks
			}
		}
	}
	for dev := 0; dev < e.Config().Devices; dev++ {
		for _, bn := range e.Replica(dev).BatchNorms() {
			where := fmt.Sprintf("mvar:%s@device%d", bn.Name(), dev)
			if a := over(where, bn.MovingVar.AbsMax(), d.Bounds.Mvar); a != nil {
				return a, checks
			}
		}
	}
	return nil, checks
}

func sortedKeys(h map[string][]*tensor.Tensor) []string {
	var names []string
	for name := range h {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// alarmsIdentical compares alarms bit-for-bit (nil-safe).
func alarmsIdentical(a, b *Alarm) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Where == b.Where &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		math.Float64bits(a.Bound) == math.Float64bits(b.Bound)
}

// checkAgainstOracle runs the detector and the sweep oracle on the engine's
// current state and fails unless they agree alarm for alarm and count the
// same bound evaluations. It returns the oracle's alarm.
func checkAgainstOracle(t *testing.T, d *Detector, e *train.Engine, when string) *Alarm {
	t.Helper()
	before := d.Checks
	got := d.CheckEngine(e)
	want, checks := sweepCheck(d, e)
	if !alarmsIdentical(got, want) {
		t.Fatalf("%s: alarms differ:\ndetector: %v\nsweep:    %v", when, got, want)
	}
	if d.Checks-before != checks {
		t.Fatalf("%s: detector made %d bound evaluations, the sweep %d", when, d.Checks-before, checks)
	}
	return want
}

// corrupt mimics the fault-injection path: mutate the tensor out-of-band and
// mark it dirty, exactly as fault.Apply does.
func corrupt(ts *tensor.Tensor, idx int, v float32) {
	ts.Data[idx] = v
	ts.MarkDirty()
}

// historyTensor returns the lexicographically first history entry's tensor
// at the given slot (first alarm order is sorted by name, so corrupting the
// first entry makes the expected alarm unambiguous).
func historyTensor(t *testing.T, e *train.Engine, slot int) *tensor.Tensor {
	t.Helper()
	h := e.Optimizer().History()
	first := sortedKeys(h)[0]
	if len(h[first]) <= slot {
		t.Fatalf("history %q has no slot %d", first, slot)
	}
	return h[first][slot]
}

func TestFusedCleanNoFalsePositivesAndChecksMatch(t *testing.T) {
	e := engineForDetect(t)
	d := ForEngine(e, 16, 0.01, true)
	for i := 0; i < 60; i++ {
		e.RunIteration(i)
		if a := checkAgainstOracle(t, d, e, fmt.Sprintf("iter %d", i)); a != nil {
			t.Fatalf("false positive at iter %d: %v", i, a)
		}
	}
	if d.Checks == 0 {
		t.Fatal("detector performed no checks")
	}
}

// TestFusedDirtyInjection is the dirty-protocol test the detector's reads
// rest on: a mid-run out-of-band corruption of Adam m, Adam v, or BatchNorm
// MovingVar must raise the sweep oracle's alarm — Where, Value, Bound — both
// on the dirty iteration (the detector sweeps exactly the marked tensor) and
// after the next Step folds the corruption into fresh statistics.
func TestFusedDirtyInjection(t *testing.T) {
	mvar := func(e *train.Engine) *tensor.Tensor { return e.Replica(1).BatchNorms()[0].MovingVar }
	cases := []struct {
		name   string
		target func(t *testing.T, e *train.Engine) *tensor.Tensor
		idx    int
		v      float32
	}{
		{"adam-m", func(t *testing.T, e *train.Engine) *tensor.Tensor { return historyTensor(t, e, 0) }, 2, 3.6e9},
		{"adam-v", func(t *testing.T, e *train.Engine) *tensor.Tensor { return historyTensor(t, e, 1) }, 5, 1e19},
		{"adam-m-nan", func(t *testing.T, e *train.Engine) *tensor.Tensor { return historyTensor(t, e, 0) }, 0, float32(math.NaN())},
		{"bn-mvar", func(_ *testing.T, e *train.Engine) *tensor.Tensor { return mvar(e) }, 3, 6.5e16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := engineForDetect(t)
			d := ForEngine(e, 16, 0.01, true)
			for i := 0; i < 5; i++ {
				e.RunIteration(i)
			}
			target := tc.target(t, e)
			corrupt(target, tc.idx, tc.v)
			if checkAgainstOracle(t, d, e, "dirty iteration") == nil {
				t.Fatal("sweep missed the corruption")
			}
			// After one more Step the owner rewrites the state and clears
			// the mark; the corruption propagates through the update
			// recurrence into the fresh statistics, and the alarms must
			// still match.
			e.RunIteration(5)
			if target.Dirty() {
				t.Fatal("the producer's rewrite left the tensor marked dirty")
			}
			if checkAgainstOracle(t, d, e, "after the next step") == nil {
				t.Fatal("sweep lost the corruption after one step")
			}
		})
	}
}

// TestFusedStatsActuallyUsed guards against the detector's reads silently
// degenerating to sweeps: after a clean iteration the optimizer must serve
// its kept abs-max stats for clean tensors, and BatchNorm its mvar stat.
func TestFusedStatsActuallyUsed(t *testing.T) {
	e := engineForDetect(t)
	e.RunIteration(0)
	ss, ok := e.Optimizer().(opt.StepStats)
	if !ok {
		t.Fatal("optimizer does not implement StepStats")
	}
	h := e.Optimizer().History()
	for name, ts := range h {
		for slot, tsr := range ts {
			if tsr.Dirty() {
				t.Fatalf("%s[%d] dirty after clean Step", name, slot)
			}
			av, kept := ss.HistAbsMax(name, slot)
			if !kept {
				t.Fatalf("%s[%d]: no kept stat after clean Step", name, slot)
			}
			if math.Float32bits(av) != math.Float32bits(tsr.AbsMax()) {
				t.Fatalf("%s[%d]: kept stat %v != sweep %v", name, slot, av, tsr.AbsMax())
			}
		}
	}
	for _, nl := range e.Replica(0).Layers {
		if bn, ok := nl.Layer.(*nn.BatchNorm); ok {
			av, kept := bn.MovingVarAbsMax()
			if !kept {
				t.Fatalf("%s: no kept mvar stat after training step", bn.Name())
			}
			if math.Float32bits(av) != math.Float32bits(bn.MovingVar.AbsMax()) {
				t.Fatalf("%s: kept mvar stat %v != sweep %v", bn.Name(), av, bn.MovingVar.AbsMax())
			}
		}
	}
}

// TestFusedStatsResetOnRestore: Engine.Restore repositions optimizer state
// out-of-band; stale Step stats must not survive it.
func TestFusedStatsResetOnRestore(t *testing.T) {
	e := engineForDetect(t)
	d := ForEngine(e, 16, 0.01, true)
	e.RunIteration(0)
	snap := e.Snapshot(0)
	for i := 1; i < 3; i++ {
		e.RunIteration(i)
	}
	e.Restore(snap)
	ss := e.Optimizer().(opt.StepStats)
	h := e.Optimizer().History()
	if len(h) == 0 {
		t.Fatal("restored optimizer holds no history; the test is vacuous")
	}
	for name, ts := range h {
		for slot := range ts {
			if _, kept := ss.HistAbsMax(name, slot); kept {
				t.Fatalf("%s[%d]: stale kept stat survived Restore", name, slot)
			}
		}
	}
	// The detector must still answer correctly right after the restore
	// (sweeping the restored tensors).
	if a := checkAgainstOracle(t, d, e, "after restore"); a != nil {
		t.Fatalf("false positive after restore: %v", a)
	}
}

func TestSGDMomentumStepStats(t *testing.T) {
	r := opt.NewSGD(0.1, 0.9)
	p := &nn.Param{Name: "w", Value: tensor.FromSlice([]float32{1, -2, 3}, 3),
		Grad: tensor.FromSlice([]float32{0.5, -4, 0.25}, 3)}
	r.Step([]*nn.Param{p})
	av, ok := r.HistAbsMax("w", 0)
	if !ok {
		t.Fatal("no kept stat after SGD step")
	}
	want := r.History()["w"][0].AbsMax()
	if math.Float32bits(av) != math.Float32bits(want) {
		t.Fatalf("SGD kept stat %v != sweep %v", av, want)
	}
	if _, ok := r.HistAbsMax("w", 1); ok {
		t.Fatal("SGD has no slot 1")
	}
}

// TestForEngineRefusesSweep: there is no sweeping detector to ask for.
func TestForEngineRefusesSweep(t *testing.T) {
	e := engineForDetect(t)
	defer func() {
		if recover() == nil {
			t.Fatal("ForEngine(…, false) did not panic")
		}
	}()
	ForEngine(e, 16, 0.01, false)
}
