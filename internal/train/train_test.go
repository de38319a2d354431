package train

import (
	"math"
	"testing"

	"repro/internal/accel"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
)

// testSetup builds a small MLP engine over a separable dataset.
func testSetup(t testing.TB, devices int, optimizer opt.Optimizer, withBN bool) (*Engine, *data.Loader) {
	t.Helper()
	ds := data.NewGaussianClusters(data.GaussianClustersConfig{
		Classes: 4, Examples: 256, C: 1, H: 4, W: 4, NoiseStd: 0.4, Seed: 1,
	})
	trainSet, testSet := ds.Split(192)
	loader := data.NewLoader(trainSet, devices*8, rng.Seed{State: 3, Stream: 3})
	build := func(r *rng.Rand) *nn.Sequential {
		layers := []nn.Layer{
			nn.NewFlatten(),
			nn.NewDense("d1", 16, 32, r, false),
		}
		if withBN {
			layers = append(layers, nn.NewBatchNorm("bn1", 32, 0.9))
		}
		layers = append(layers,
			nn.NewReLU(),
			nn.NewDense("d2", 32, 4, r, false),
		)
		return nn.NewSequential(layers...)
	}
	cfg := Config{Devices: devices, PerDeviceBatch: 8, Seed: rng.Seed{State: 7, Stream: 7}, TestEvery: 10}
	return New(cfg, build, optimizer, loader, testSet), loader
}

func TestFaultFreeTrainingConverges(t *testing.T) {
	e, _ := testSetup(t, 2, opt.NewAdam(0.01), true)
	trace := NewTrace("mlp")
	e.Run(0, 60, trace, false)
	if trace.NonFiniteIter != -1 {
		t.Fatalf("fault-free run produced INF/NaN at iter %d (%s)", trace.NonFiniteIter, trace.NonFiniteAt)
	}
	if acc := trace.FinalTrainAcc(10); acc < 0.9 {
		t.Fatalf("final train acc = %v, want >= 0.9", acc)
	}
	if acc := trace.FinalTestAcc(); acc < 0.8 {
		t.Fatalf("final test acc = %v, want >= 0.8", acc)
	}
}

func TestReplicasStayInSync(t *testing.T) {
	e, _ := testSetup(t, 3, opt.NewAdam(0.01), true)
	for i := 0; i < 5; i++ {
		e.RunIteration(i)
	}
	base := e.Replica(0).Params()
	for d := 1; d < 3; d++ {
		for pi, p := range e.Replica(d).Params() {
			for j := range p.Value.Data {
				if p.Value.Data[j] != base[pi].Value.Data[j] {
					t.Fatalf("device %d param %s diverged", d, p.Name)
				}
			}
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	run := func() []float64 {
		e, _ := testSetup(t, 2, opt.NewAdam(0.01), true)
		trace := NewTrace("mlp")
		e.Run(0, 20, trace, false)
		return trace.TrainLoss
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training not deterministic at iter %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGradientAveragingAttenuatesPerDeviceFault(t *testing.T) {
	// Same injection on engines with 1 vs 4 devices: weight-gradient faults
	// are averaged across devices, so more devices → smaller weight
	// perturbation (Sec 4.3.3).
	perturb := func(devices int) float64 {
		ds := data.NewGaussianClusters(data.GaussianClustersConfig{
			Classes: 2, Examples: 128, C: 1, H: 2, W: 2, NoiseStd: 0.3, Seed: 5,
		})
		trainSet, testSet := ds.Split(96)
		loader := data.NewLoader(trainSet, devices*4, rng.Seed{State: 1, Stream: 1})
		build := func(r *rng.Rand) *nn.Sequential {
			return nn.NewSequential(nn.NewFlatten(), nn.NewDense("d", 4, 2, r, false))
		}
		e := New(Config{Devices: devices, PerDeviceBatch: 4, Seed: rng.Seed{State: 2, Stream: 2}},
			build, opt.NewSGD(0, 0), loader, testSet) // lr=0: weights only move via fault analysis
		// lr 0 means optimizer does nothing; instead inspect averaged grad.
		inj := &fault.Injection{
			Kind: accel.GlobalG2, LayerIdx: 1, Pass: fault.BackwardWeight,
			Iteration: 0, CycleFrac: 0, N: 1,
			Seed: rng.Seed{State: 9, Stream: 9},
		}
		// Use a custom single iteration and capture the averaged gradient:
		// run the iteration, then look at the injected vs clean difference.
		// Simpler: compare against a clean engine.
		eClean := New(Config{Devices: devices, PerDeviceBatch: 4, Seed: rng.Seed{State: 2, Stream: 2}},
			build, opt.NewSGD(1, 0), loader, testSet)
		eFaulty := New(Config{Devices: devices, PerDeviceBatch: 4, Seed: rng.Seed{State: 2, Stream: 2}},
			build, opt.NewSGD(1, 0), loader, testSet)
		eFaulty.SetInjection(inj)
		eClean.RunIteration(0)
		st := eFaulty.RunIteration(0)
		if !st.Injected {
			t.Fatalf("injection did not fire (devices=%d)", devices)
		}
		_ = e
		var maxDiff float64
		for pi, p := range eFaulty.Replica(0).Params() {
			cp := eClean.Replica(0).Params()[pi]
			for j := range p.Value.Data {
				d := math.Abs(float64(p.Value.Data[j] - cp.Value.Data[j]))
				if d > maxDiff {
					maxDiff = d
				}
			}
		}
		return maxDiff
	}
	d1 := perturb(1)
	d4 := perturb(4)
	if d1 == 0 {
		t.Fatal("fault produced no weight perturbation at 1 device")
	}
	if d4 >= d1 {
		t.Fatalf("4-device perturbation %v not smaller than 1-device %v", d4, d1)
	}
}

func TestForwardInjectionFires(t *testing.T) {
	e, _ := testSetup(t, 2, opt.NewAdam(0.01), true)
	inj := &fault.Injection{
		Kind: accel.GlobalG1, LayerIdx: 1, Pass: fault.Forward,
		Iteration: 3, CycleFrac: 0.5, N: 2,
		Seed: rng.Seed{State: 11, Stream: 11},
	}
	e.SetInjection(inj)
	trace := NewTrace("mlp")
	e.Run(0, 6, trace, false)
	if trace.FaultIter != 3 {
		t.Fatalf("fault fired at %d, want 3", trace.FaultIter)
	}
	if trace.InjectedElems == 0 {
		t.Fatal("no elements corrupted")
	}
}

func TestInjectionOnlyOnce(t *testing.T) {
	e, _ := testSetup(t, 2, opt.NewAdam(0.01), true)
	inj := &fault.Injection{
		Kind: accel.GlobalG2, LayerIdx: 1, Pass: fault.Forward,
		Iteration: 2, CycleFrac: 0, N: 1,
		Seed: rng.Seed{State: 12, Stream: 12},
	}
	e.SetInjection(inj)
	fired := 0
	for i := 0; i < 6; i++ {
		if e.RunIteration(i).Injected {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("injection fired %d times, want 1", fired)
	}
}

func TestHugeForwardFaultIsSilentButPoisonsMvar(t *testing.T) {
	// A forward fault with dynamic-range values feeding a BatchNorm layer
	// overflows the float32 batch variance (x² ≈ 1e76 → Inf on conversion),
	// which floods the moving variance. Crucially this raises NO error
	// message — standard frameworks never check moving statistics — which
	// is exactly why the paper's mvar-driven outcomes are latent
	// (Sec 4.2.2). Training-mode metrics recover, but test evaluation
	// through the poisoned mvar collapses.
	e, _ := testSetup(t, 2, opt.NewAdam(0.01), true)
	inj := &fault.Injection{
		Kind: accel.GlobalG1, LayerIdx: 1, Pass: fault.Forward, // d1 output, pre-BN
		Iteration: 2, CycleFrac: 0, N: 8,
		Seed: rng.Seed{State: 1, Stream: 5}, // dynamic-range values incl. huge
	}
	e.SetInjection(inj)
	trace := NewTrace("mlp")
	e.Run(0, 10, trace, false)
	if trace.FaultIter != 2 {
		t.Fatalf("fault did not fire: %d", trace.FaultIter)
	}
	if trace.NonFiniteIter != -1 {
		t.Fatalf("silent mvar corruption raised an error message at iter %d (%s)",
			trace.NonFiniteIter, trace.NonFiniteAt)
	}
	if m := e.MvarAbsMax(); m < 1e16 {
		t.Fatalf("mvar = %v; expected a huge poisoned value", m)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	e, _ := testSetup(t, 2, opt.NewAdam(0.01), true)
	for i := 0; i < 5; i++ {
		e.RunIteration(i)
	}
	snap := e.Snapshot(4)
	// Record the next two iterations' losses.
	l5 := e.RunIteration(5).Loss
	l6 := e.RunIteration(6).Loss
	// Rewind and re-execute: identical results required (exact replay).
	e.Restore(snap)
	if got := e.RunIteration(5).Loss; got != l5 {
		t.Fatalf("replayed iter 5 loss %v != original %v", got, l5)
	}
	if got := e.RunIteration(6).Loss; got != l6 {
		t.Fatalf("replayed iter 6 loss %v != original %v", got, l6)
	}
}

func TestSnapshotIsDeep(t *testing.T) {
	e, _ := testSetup(t, 2, opt.NewAdam(0.01), true)
	e.RunIteration(0)
	snap := e.Snapshot(0)
	before := snap.Params[0].Data[0]
	e.RunIteration(1)
	if snap.Params[0].Data[0] != before {
		t.Fatal("snapshot shares memory with live engine")
	}
}

func TestHistoryAndMvarAccessors(t *testing.T) {
	e, _ := testSetup(t, 2, opt.NewAdam(0.01), true)
	if e.HistoryAbsMax() != 0 {
		t.Fatal("history should be empty before first step")
	}
	e.RunIteration(0)
	if e.HistoryAbsMax() <= 0 {
		t.Fatal("history max should be positive after a step")
	}
	if !e.HasBatchNorm() {
		t.Fatal("model has BatchNorm")
	}
	if e.MvarAbsMax() <= 0 {
		t.Fatal("mvar max should be positive")
	}
	eNoBN, _ := testSetup(t, 2, opt.NewAdam(0.01), false)
	if eNoBN.HasBatchNorm() {
		t.Fatal("model without BN misreported")
	}
	if eNoBN.MvarAbsMax() != 0 {
		t.Fatal("mvar of BN-free model should be 0")
	}
}

func TestTraceRunStopsOnNonFinite(t *testing.T) {
	// SGD turns a huge faulty gradient into huge weights (no gradient
	// normalization, Sec 4.2.2), whose non-finite growth IS a visible
	// error: the run must stop there.
	e, _ := testSetup(t, 2, opt.NewSGD(0.05, 0), false)
	inj := &fault.Injection{
		Kind: accel.GlobalG1, LayerIdx: 2, Pass: fault.BackwardInput,
		Iteration: 1, CycleFrac: 0, N: 8,
		Seed: rng.Seed{State: 1, Stream: 5},
	}
	e.SetInjection(inj)
	trace := NewTrace("mlp")
	e.Run(0, 50, trace, true)
	if trace.NonFiniteIter == -1 {
		t.Fatal("expected visible INF/NaN from SGD weight blowup")
	}
	if trace.Completed >= 50 {
		t.Fatal("run did not stop at non-finite error")
	}
}

func TestEvaluateUsesMovingStats(t *testing.T) {
	e, _ := testSetup(t, 2, opt.NewAdam(0.01), true)
	for i := 0; i < 20; i++ {
		e.RunIteration(i)
	}
	_, accBefore := e.Evaluate(0)
	// Corrupt device 0's mvar; eval accuracy must collapse while the
	// training path is unaffected (the LowTestAccuracy signature).
	for _, nl := range e.Replica(0).Layers {
		if bn, ok := nl.Layer.(*nn.BatchNorm); ok {
			bn.MovingVar.Fill(1e30)
		}
	}
	_, accAfter := e.Evaluate(0)
	if accAfter >= accBefore {
		t.Fatalf("corrupted mvar did not reduce test accuracy: %v -> %v", accBefore, accAfter)
	}
	st := e.RunIteration(20)
	if st.TrainAcc < 0.5 {
		t.Fatalf("training accuracy collapsed (%v) though only mvar was corrupted", st.TrainAcc)
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := NewTrace("x")
	if tr.FinalTrainAcc(5) != 0 || tr.FinalTestAcc() != -1 {
		t.Fatal("empty trace helpers wrong")
	}
	tr.TrainAcc = []float64{0, 0.5, 1}
	if got := tr.FinalTrainAcc(2); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("FinalTrainAcc = %v", got)
	}
	if got := tr.FinalTrainAcc(10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("FinalTrainAcc over-length = %v", got)
	}
	tr.TestAcc = []float64{0.2, 0.9}
	if tr.FinalTestAcc() != 0.9 {
		t.Fatal("FinalTestAcc wrong")
	}
}

func TestMultipleInjectionsFireIndependently(t *testing.T) {
	e, _ := testSetup(t, 2, opt.NewAdam(0.01), true)
	e.SetInjections([]fault.Injection{
		{Kind: accel.GlobalG2, LayerIdx: 1, Pass: fault.Forward,
			Iteration: 2, CycleFrac: 0, N: 1, Seed: rng.Seed{State: 1, Stream: 1}},
		{Kind: accel.GlobalG2, LayerIdx: 4, Pass: fault.BackwardWeight,
			Iteration: 5, CycleFrac: 0, N: 1, Seed: rng.Seed{State: 2, Stream: 2}},
	})
	fired := map[int]bool{}
	for i := 0; i < 8; i++ {
		if e.RunIteration(i).Injected {
			fired[i] = true
		}
	}
	if !fired[2] || !fired[5] || len(fired) != 2 {
		t.Fatalf("injections fired at %v, want exactly {2, 5}", fired)
	}
}

func TestMultipleInjectionsSameIteration(t *testing.T) {
	e, _ := testSetup(t, 2, opt.NewAdam(0.01), true)
	e.SetInjections([]fault.Injection{
		{Kind: accel.GlobalG2, LayerIdx: 1, Pass: fault.Forward,
			Iteration: 2, CycleFrac: 0, N: 1, Seed: rng.Seed{State: 1, Stream: 1}},
		{Kind: accel.GlobalG2, LayerIdx: 4, Pass: fault.Forward,
			Iteration: 2, CycleFrac: 0, N: 1, Seed: rng.Seed{State: 2, Stream: 2}},
	})
	st := e.RunIteration(2)
	if !st.Injected {
		t.Fatal("no injection fired")
	}
	// Both layer-1 ([16,32], 16 elems/cycle) and layer-4 ([16,4], 4 elems)
	// corruptions must land: footprint is the sum.
	if st.InjectedElems != 16+4 {
		t.Fatalf("InjectedElems = %d, want 20", st.InjectedElems)
	}
}

func TestExpandIntermittentDeterministic(t *testing.T) {
	base := fault.Injection{
		Kind: accel.GlobalG3, LayerIdx: 1, Pass: fault.Forward,
		Iteration: 10, N: 2, Seed: rng.Seed{State: 77, Stream: 3},
	}
	a := fault.ExpandIntermittent(base, 10, 0.3)
	b := fault.ExpandIntermittent(base, 10, 0.3)
	if len(a) != len(b) {
		t.Fatalf("expansion lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("expansion %d differs", i)
		}
	}
	// Iterations lie within the window and are strictly increasing.
	last := base.Iteration - 1
	for _, inj := range a {
		if inj.Iteration < base.Iteration || inj.Iteration >= base.Iteration+10 {
			t.Fatalf("iteration %d outside window", inj.Iteration)
		}
		if inj.Iteration <= last {
			t.Fatalf("iterations not increasing: %d after %d", inj.Iteration, last)
		}
		last = inj.Iteration
	}
}

func TestExpandIntermittentRate(t *testing.T) {
	// With prob 1 every window iteration manifests; with prob ~0.3 roughly
	// a third do (the intro's 3-in-10 reproduction behavior).
	base := fault.Injection{Kind: accel.GlobalG3, Iteration: 0, N: 1,
		Seed: rng.Seed{State: 5, Stream: 5}}
	if got := len(fault.ExpandIntermittent(base, 20, 1)); got != 20 {
		t.Fatalf("prob 1 expanded to %d/20", got)
	}
	var total int
	for s := uint64(0); s < 50; s++ {
		b := base
		b.Seed = rng.Seed{State: s, Stream: 1}
		total += len(fault.ExpandIntermittent(b, 10, 0.3))
	}
	rate := float64(total) / 500
	if rate < 0.2 || rate > 0.4 {
		t.Fatalf("manifestation rate %v, want ~0.3", rate)
	}
}

func TestExpandIntermittentPanics(t *testing.T) {
	base := fault.Injection{Seed: rng.Seed{State: 1, Stream: 1}}
	for _, f := range []func(){
		func() { fault.ExpandIntermittent(base, 0, 0.5) },
		func() { fault.ExpandIntermittent(base, 5, 0) },
		func() { fault.ExpandIntermittent(base, 5, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad ExpandIntermittent args did not panic")
				}
			}()
			f()
		}()
	}
}

func TestIntermittentFaultEndToEnd(t *testing.T) {
	// An intermittent fault manifests several times; each manifestation is
	// one-shot, and all of them fire over the run.
	e, _ := testSetup(t, 2, opt.NewAdam(0.01), true)
	base := fault.Injection{
		Kind: accel.GlobalG2, LayerIdx: 1, Pass: fault.Forward,
		Iteration: 3, CycleFrac: 0, N: 1, Seed: rng.Seed{State: 11, Stream: 2},
	}
	injs := fault.ExpandIntermittent(base, 8, 0.5)
	if len(injs) == 0 {
		t.Skip("this seed produced no manifestations")
	}
	e.SetInjections(injs)
	fired := 0
	for i := 0; i < 15; i++ {
		if e.RunIteration(i).Injected {
			fired++
		}
	}
	if fired != len(injs) {
		t.Fatalf("fired %d times, want %d", fired, len(injs))
	}
}

// residualSetup builds an engine whose model hides a BatchNorm inside a
// Residual branch — the structure that made Snapshot/Restore silently drop
// moving statistics when they walked only top-level layers.
func residualSetup(t testing.TB) *Engine {
	t.Helper()
	ds := data.NewGaussianClusters(data.GaussianClustersConfig{
		Classes: 4, Examples: 256, C: 1, H: 4, W: 4, NoiseStd: 0.4, Seed: 1,
	})
	trainSet, testSet := ds.Split(192)
	loader := data.NewLoader(trainSet, 16, rng.Seed{State: 3, Stream: 3})
	build := func(r *rng.Rand) *nn.Sequential {
		return nn.NewSequential(
			nn.NewConv2D("c1", 1, 4, 3, 3, 1, 1, r, false),
			nn.NewBatchNorm("bn-top", 4, 0.9),
			nn.NewReLU(),
			nn.NewResidual("res",
				nn.NewConv2D("res/c", 4, 4, 3, 3, 1, 1, r, false),
				nn.NewBatchNorm("res/bn", 4, 0.9),
				nn.NewReLU(),
			),
			nn.NewGlobalAvgPool(),
			nn.NewDense("fc", 4, 4, r, false),
		)
	}
	cfg := Config{Devices: 2, PerDeviceBatch: 8, Seed: rng.Seed{State: 7, Stream: 7}, TestEvery: 10}
	return New(cfg, build, opt.NewAdam(0.01), loader, testSet)
}

// TestSnapshotRestoresNestedBatchNorm: moving statistics of normalization
// layers nested in container layers must round-trip through
// Snapshot/Restore bit for bit, and a restored engine must evaluate
// identically to one that never left the snapshot's trajectory. Regression
// test for the pooled-campaign nondeterminism caused by a top-level-only
// BatchNorm walk.
func TestSnapshotRestoresNestedBatchNorm(t *testing.T) {
	e := residualSetup(t)
	if got := len(e.Replica(0).BatchNorms()); got != 2 {
		t.Fatalf("model has %d BatchNorms, want 2 (one nested)", got)
	}
	for i := 0; i < 4; i++ {
		e.RunIteration(i)
	}
	snap := e.Snapshot(3)
	if len(snap.BNStats[0]) != 4 {
		t.Fatalf("snapshot captured %d BN stat tensors per device, want 4 (mean+var for 2 layers)", len(snap.BNStats[0]))
	}
	wantLoss, wantAcc := e.Evaluate(0)

	// Drift every moving statistic, nested ones included.
	for i := 4; i < 8; i++ {
		e.RunIteration(i)
	}
	e.Restore(snap)
	for d := 0; d < 2; d++ {
		for i, bn := range e.Replica(d).BatchNorms() {
			for j := range bn.MovingMean.Data {
				if math.Float32bits(bn.MovingMean.Data[j]) != math.Float32bits(snap.BNStats[d][2*i].Data[j]) {
					t.Fatalf("device %d BN %s MovingMean not restored", d, bn.Name())
				}
				if math.Float32bits(bn.MovingVar.Data[j]) != math.Float32bits(snap.BNStats[d][2*i+1].Data[j]) {
					t.Fatalf("device %d BN %s MovingVar not restored", d, bn.Name())
				}
			}
		}
	}
	if gotLoss, gotAcc := e.Evaluate(0); gotLoss != wantLoss || gotAcc != wantAcc {
		t.Fatalf("restored engine evaluates to (%v, %v), snapshot-time evaluation was (%v, %v)",
			gotLoss, gotAcc, wantLoss, wantAcc)
	}
}
