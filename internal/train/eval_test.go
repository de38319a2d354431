package train_test

// Deferred test evaluation rests on two facts proved here at the engine
// level: Evaluate is pure with respect to training (so not running it at a
// boundary changes nothing downstream), and a boundary held by RecordTest
// and evaluated later by ResolveTest yields the bits an in-place evaluation
// at the boundary would have. Evaluate itself runs the test set at the
// device batch and must give the bits of the whole-test-set forward it
// replaced; the oracle below is that forward, kept here.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/rng"
	"repro/internal/train"
	"repro/internal/workloads"
)

// fullState is every float the engine carries across an iteration boundary:
// all replicas' parameter values, gradients and BatchNorm moving statistics,
// and the optimizer history.
func fullState(e *train.Engine) [][]float32 {
	var out [][]float32
	for d := 0; d < e.Config().Devices; d++ {
		for _, p := range e.Replica(d).Params() {
			out = append(out, append([]float32(nil), p.Value.Data...), append([]float32(nil), p.Grad.Data...))
		}
		for _, bn := range e.Replica(d).BatchNorms() {
			out = append(out, append([]float32(nil), bn.MovingMean.Data...), append([]float32(nil), bn.MovingVar.Data...))
		}
	}
	for _, p := range e.Replica(0).Params() {
		for _, t := range e.Optimizer().History()[p.Name] {
			out = append(out, append([]float32(nil), t.Data...))
		}
	}
	return out
}

func bitsEqual(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestEvaluateIsPure: interleaving an Evaluate after every iteration — and
// poisoning the kernel scratch after it — changes no IterStats, no digest
// and no bit of replica or optimizer state, on every zoo model.
func TestEvaluateIsPure(t *testing.T) {
	const iters = 4
	for _, w := range append(workloads.All(), workloads.ResnetMixed()) {
		t.Run(w.Name, func(t *testing.T) {
			seed := rng.Seed{State: 21, Stream: 77}
			plain, evald, scrubbed := w.NewEngine(seed), w.NewEngine(seed), w.NewEngine(seed)
			for i := 0; i < iters; i++ {
				want := plain.RunIteration(i)
				for _, e := range []*train.Engine{evald, scrubbed} {
					name := "evaluate"
					got := e.RunIteration(i)
					e.Evaluate(e.RootDevice())
					if e == scrubbed {
						name = "evaluate+scrub"
						e.ScrubWorkspaces()
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s: iteration %d stats differ:\nplain: %+v\ngot:   %+v", name, i, want, got)
					}
					if plain.StateDigest() != e.StateDigest() {
						t.Fatalf("%s: state digest differs after iteration %d", name, i)
					}
					if !bitsEqual(fullState(plain), fullState(e)) {
						t.Fatalf("%s: replica or optimizer state differs after iteration %d", name, i)
					}
				}
			}
			if evald.Evaluations() != iters || plain.Evaluations() != 0 {
				t.Fatalf("evaluation counter reads %d / %d, want %d / 0", evald.Evaluations(), plain.Evaluations(), iters)
			}
		})
	}
}

// runRecorded runs iterations [start, end) with nothing but the test-point
// bookkeeping; between is called before each iteration.
func runRecorded(e *train.Engine, start, end int, trace *train.Trace, between func(iter int)) {
	for i := start; i < end; i++ {
		if between != nil {
			between(i)
		}
		e.RunIteration(i)
		trace.TrainLoss = append(trace.TrainLoss, 0)
		trace.TrainAcc = append(trace.TrainAcc, 0)
		trace.Completed++
		e.RecordTest(i, trace)
	}
}

func lastTestPoint(t *testing.T, tr *train.Trace) (int, uint64, uint64) {
	t.Helper()
	n := len(tr.TestIters)
	if n == 0 {
		t.Fatal("trace has no test point")
	}
	return tr.TestIters[n-1], math.Float64bits(tr.TestLoss[n-1]), math.Float64bits(tr.TestAcc[n-1])
}

// TestHeldTestPointMatchesInPlace: the held boundary evaluates, after the
// run, to the in-place evaluation's bits — also when the root device at the
// boundary (device 1, device 0 being quarantined) is not the root at resolve
// time and the two carry different BatchNorm statistics, and when a rollback
// has dropped the newest boundary so the one before it is the final point.
func TestHeldTestPointMatchesInPlace(t *testing.T) {
	quarantineAcrossBoundary := func(e *train.Engine) func(int) {
		return func(iter int) {
			switch iter {
			case 5:
				e.Quarantine(0)
			case 12:
				if err := e.Rejoin(0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cases := []struct {
		name    string
		end     int
		between func(e *train.Engine) func(int)
		// rewind, when set, is applied to the trace after the run.
		rewind   [2]int
		wantIter int
	}{
		{name: "plain", end: 25, wantIter: 19},
		{name: "ends-on-boundary", end: 20, wantIter: 19},
		{name: "root-moves", end: 17, between: quarantineAcrossBoundary, wantIter: 9},
		{name: "rollback-drops-newest", end: 21, rewind: [2]int{20, 19}, wantIter: 9},
	}
	for _, wl := range []string{"resnet", "transformer"} {
		w, err := workloads.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			t.Run(wl+"/"+c.name, func(t *testing.T) {
				seed := rng.Seed{State: 31, Stream: 77}
				run := func(finalOnly bool) *train.Trace {
					e := w.NewEngine(seed)
					tr := train.NewTrace(w.Name)
					tr.FinalTestOnly = finalOnly
					var between func(int)
					if c.between != nil {
						between = c.between(e)
					}
					runRecorded(e, 0, c.end, tr, between)
					if c.rewind != [2]int{} {
						tr.Rewind(c.rewind[0], c.rewind[1])
					}
					before := e.Evaluations()
					e.ResolveTest(tr)
					if finalOnly && e.Evaluations() != 1 {
						t.Fatalf("held run evaluated %d times, want 1", e.Evaluations())
					}
					if !finalOnly && e.Evaluations() != before {
						t.Fatal("ResolveTest evaluated for a trace that holds nothing")
					}
					return tr
				}
				wantIter, wantLoss, wantAcc := lastTestPoint(t, run(false))
				gotIter, gotLoss, gotAcc := lastTestPoint(t, run(true))
				if wantIter != c.wantIter {
					t.Fatalf("in-place final test point is iteration %d, want %d", wantIter, c.wantIter)
				}
				if gotIter != wantIter || gotLoss != wantLoss || gotAcc != wantAcc {
					t.Fatalf("held point (iter %d, loss %x, acc %x) != in-place (iter %d, loss %x, acc %x)",
						gotIter, gotLoss, gotAcc, wantIter, wantLoss, wantAcc)
				}
			})
		}
	}
}

// TestResolveTestYieldsToLaterPoint: a test point recorded after the held
// boundary (a golden tail copied over it) supersedes it at no cost.
func TestResolveTestYieldsToLaterPoint(t *testing.T) {
	w := workloads.Resnet()
	e := w.NewEngine(rng.Seed{State: 31, Stream: 77})
	tr := train.NewTrace(w.Name)
	tr.FinalTestOnly = true
	runRecorded(e, 0, 12, tr, nil)
	tr.TestIters = append(tr.TestIters, 19)
	tr.TestLoss = append(tr.TestLoss, 0.5)
	tr.TestAcc = append(tr.TestAcc, 0.75)
	e.ResolveTest(tr)
	if e.Evaluations() != 0 || len(tr.TestIters) != 1 || tr.FinalTestAcc() != 0.75 {
		t.Fatalf("superseded held point was evaluated: %d evaluations, test iters %v", e.Evaluations(), tr.TestIters)
	}
}

// TestTraceRewind: a rollback drops train entries and every test point at
// or after the resume iteration, and nothing before it.
func TestTraceRewind(t *testing.T) {
	tr := train.NewTrace("x")
	for i := 0; i <= 20; i++ {
		tr.TrainLoss = append(tr.TrainLoss, float64(i))
		tr.TrainAcc = append(tr.TrainAcc, float64(i))
		tr.Completed++
		if (i+1)%10 == 0 {
			tr.TestIters = append(tr.TestIters, i)
			tr.TestLoss = append(tr.TestLoss, float64(i))
			tr.TestAcc = append(tr.TestAcc, float64(i))
		}
	}
	tr.Rewind(20, 19)
	if tr.Completed != 19 || len(tr.TrainLoss) != 19 || len(tr.TrainAcc) != 19 {
		t.Fatalf("after Rewind(20, 19): completed %d, %d losses, %d accs, want 19", tr.Completed, len(tr.TrainLoss), len(tr.TrainAcc))
	}
	if !reflect.DeepEqual(tr.TestIters, []int{9}) || len(tr.TestLoss) != 1 || len(tr.TestAcc) != 1 {
		t.Fatalf("after Rewind(20, 19): test iters %v, want [9]", tr.TestIters)
	}
	tr.Rewind(18, 17)
	if tr.Completed != 17 || !reflect.DeepEqual(tr.TestIters, []int{9}) {
		t.Fatalf("a rollback short of the boundary moved the test points: %v", tr.TestIters)
	}
}

// TestHeldPointZeroAllocs: holding a boundary is a copy into storage the
// engine was built with.
func TestHeldPointZeroAllocs(t *testing.T) {
	for _, wl := range []string{"resnet", "transformer"} {
		w, err := workloads.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		e := w.NewEngine(rng.Seed{State: 31, Stream: 77})
		e.RunIteration(0)
		tr := train.NewTrace(w.Name)
		tr.FinalTestOnly = true
		iter := w.TestEvery - 1
		if n := testing.AllocsPerRun(20, func() {
			e.RecordTest(iter, tr)
			iter += w.TestEvery
		}); n != 0 {
			t.Fatalf("%s: RecordTest allocates %.0f objects per held boundary", wl, n)
		}
		if e.Evaluations() != 0 {
			t.Fatalf("%s: holding evaluated %d times", wl, e.Evaluations())
		}
	}
}

// evaluateWhole is Evaluate as it was before it sliced the test set: one
// forward of the whole set through replica d, then one Eval.
func evaluateWhole(e *train.Engine, d int, test *data.Dataset) (loss, acc float64) {
	all := test.All()
	out := e.Replica(d).Forward(&nn.Context{Training: false}, all.X, nil)
	var ce nn.SoftmaxCrossEntropy
	res := ce.Eval(out, all.Y)
	if numerics.HasNonFinite(out.Data) != -1 {
		return math.NaN(), 0
	}
	return res.Loss, float64(res.Correct) / float64(len(all.Y))
}

// TestEvaluateMatchesWholeBatchOracle: Evaluate's loss and accuracy equal
// the whole-test-set oracle's bit for bit on every zoo workload — after
// training, on the root and on another device (their BatchNorm statistics
// differ), in slices of the rows lane 0's stack holds (all 16 of the zoo's
// batch on one lane, 6 on three lanes), with a test set whose size is no
// multiple of the slice (the last slice is short), at a device batch other
// than the zoo's 2, and with an output-layer parameter poisoned to NaN and to
// +Inf so the logits are non-finite.
func TestEvaluateMatchesWholeBatchOracle(t *testing.T) {
	for _, w := range append(workloads.All(), workloads.ResnetMixed()) {
		t.Run(w.Name, func(t *testing.T) {
			trainSet, testSet := w.NewDataset()
			short, _ := testSet.Split(testSet.Len() - 1)
			for _, geo := range []struct {
				name                   string
				devices, perDev, lanes int
				test                   *data.Dataset
				slice                  int
			}{
				{"zoo", w.Devices, w.PerDeviceBatch, 1, testSet, 16},
				{"short-last-slice", w.Devices, w.PerDeviceBatch, 1, short, 16},
				{"three-lanes", w.Devices, w.PerDeviceBatch, 3, testSet, 6},
				{"three-lanes-short", w.Devices, w.PerDeviceBatch, 3, short, 6},
				{"device-batch-5", 2, 5, 1, short, 10},
			} {
				seed := rng.Seed{State: 17, Stream: 3}
				loader := data.NewLoader(trainSet, geo.devices*geo.perDev, seed)
				cfg := train.Config{Devices: geo.devices, PerDeviceBatch: geo.perDev, Seed: seed, TestEvery: w.TestEvery}
				e := train.New(cfg, w.Build, w.NewOptimizer(), loader, geo.test)
				e.SetLanes(geo.lanes)
				defer e.SetLanes(1)
				if got := e.EvalRows(); got != geo.slice {
					t.Fatalf("%s: Evaluate slices %d examples, want %d", geo.name, got, geo.slice)
				}
				check := func(when string) {
					t.Helper()
					for _, d := range []int{0, geo.devices - 1} {
						gotLoss, gotAcc := e.Evaluate(d)
						wantLoss, wantAcc := evaluateWhole(e, d, geo.test)
						if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) || math.Float64bits(gotAcc) != math.Float64bits(wantAcc) {
							t.Fatalf("%s, %s, device %d: Evaluate = (%v, %v), whole-batch oracle (%v, %v)",
								geo.name, when, d, gotLoss, gotAcc, wantLoss, wantAcc)
						}
					}
				}
				check("untrained")
				for i := 0; i < 3; i++ {
					e.RunIteration(i)
				}
				check("after 3 iterations")
				for _, poison := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
					// The output layer's last parameter: a first-layer weight
					// could die in a ReLU before it reached the logits.
					for d := 0; d < geo.devices; d++ {
						params := e.Replica(d).Params()
						params[len(params)-1].Value.Data[0] = poison
					}
					check("poisoned")
					if loss, _ := e.Evaluate(0); !math.IsNaN(loss) {
						t.Fatalf("%s: a weight poisoned to %v evaluates to loss %v, want NaN", geo.name, poison, loss)
					}
				}
			}
		})
	}
}
