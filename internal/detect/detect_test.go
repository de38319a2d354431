package detect

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/train"
	"repro/internal/workloads"
)

// TestPerIterationChecksZeroAllocs: the detector sweep and the state digest
// run once per experiment iteration and walk every device's BatchNorm list;
// neither may allocate (the list is built once, with the model).
func TestPerIterationChecksZeroAllocs(t *testing.T) {
	for _, name := range []string{"resnet", "transformer"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		e := w.NewEngine(rng.Seed{State: 3, Stream: 77})
		det := ForEngine(e, w.BatchSize(), w.LR, true)
		e.RunIteration(0)
		e.StateDigest() // sizes the reused serialization buffer
		if n := testing.AllocsPerRun(20, func() { det.CheckEngine(e) }); n != 0 {
			t.Errorf("%s: CheckEngine allocates %.0f objects per call", name, n)
		}
		if n := testing.AllocsPerRun(20, func() { e.StateDigest() }); n != 0 {
			t.Errorf("%s: StateDigest allocates %.0f objects per call", name, n)
		}
	}
}

func TestDeriveBounds(t *testing.T) {
	b := Derive(Config{MaxFanIn: 256, BatchSize: 64, Depth: 8, LR: 0.01, MaxBiasCorrection: 1, SafetyFactor: 1})
	// Part I: 20·sqrt(256)/64 = 5.
	if math.Abs(b.GradHistory-5) > 1e-9 {
		t.Fatalf("GradHistory = %v, want 5", b.GradHistory)
	}
	if math.Abs(b.GradHistorySq-25) > 1e-9 {
		t.Fatalf("GradHistorySq = %v, want 25", b.GradHistorySq)
	}
	// Part II: (1 + 256·1e-4)^8 ≈ 1.2248, floored to 2.
	if b.Mvar != 2 {
		t.Fatalf("Mvar = %v, want floor 2", b.Mvar)
	}
}

func TestDeriveBoundsSafetyFactor(t *testing.T) {
	b1 := Derive(Config{MaxFanIn: 100, BatchSize: 10, Depth: 4, LR: 0.1, SafetyFactor: 1})
	b10 := Derive(Config{MaxFanIn: 100, BatchSize: 10, Depth: 4, LR: 0.1, SafetyFactor: 10})
	if math.Abs(b10.GradHistory/b1.GradHistory-10) > 1e-9 {
		t.Fatal("safety factor not applied to grad bound")
	}
	if math.Abs(b10.GradHistorySq/b1.GradHistorySq-100) > 1e-6 {
		t.Fatal("safety factor not squared for v bound")
	}
}

func TestDeriveBoundsMvarGrowsWithDepthAndLR(t *testing.T) {
	shallow := Derive(Config{MaxFanIn: 1000, BatchSize: 10, Depth: 2, LR: 0.2, SafetyFactor: 1})
	deep := Derive(Config{MaxFanIn: 1000, BatchSize: 10, Depth: 20, LR: 0.2, SafetyFactor: 1})
	if deep.Mvar <= shallow.Mvar {
		t.Fatalf("mvar bound should grow with depth: %v vs %v", shallow.Mvar, deep.Mvar)
	}
}

func TestTailProbability(t *testing.T) {
	// Algorithm 1 quotes 3e-89 (the one-sided tail 2.75e-89); the honest
	// two-sided bound is twice that, 5.5e-89.
	p := TailProbability(20)
	if p <= 0 || p >= 6e-89 {
		t.Fatalf("TailProbability(20) = %v, want in (0, 6e-89)", p)
	}
	// Sanity at z=1.96: two-sided 5%.
	if math.Abs(TailProbability(1.96)-0.05) > 0.001 {
		t.Fatalf("TailProbability(1.96) = %v", TailProbability(1.96))
	}
}

func TestConfigForModel(t *testing.T) {
	r := rng.NewFromInt(1)
	model := nn.NewSequential(
		nn.NewConv2D("c1", 3, 8, 3, 3, 1, 1, r, false), // fan-in 27
		nn.NewBatchNorm("bn", 8, 0.9),
		nn.NewReLU(),
		nn.NewResidual("res",
			nn.NewConv2D("c2", 8, 8, 3, 3, 1, 1, r, false), // fan-in 72
		),
		nn.NewFlatten(),
		nn.NewDense("d", 8*4*4, 4, r, false), // fan-in 128
	)
	cfg := ConfigForModel(model, 32, 0.01)
	if cfg.MaxFanIn != 128 {
		t.Fatalf("MaxFanIn = %d, want 128", cfg.MaxFanIn)
	}
	// Depth counts parameterized layers: c1, bn, c2 (in residual), d = 4.
	if cfg.Depth != 4 {
		t.Fatalf("Depth = %d, want 4", cfg.Depth)
	}
	if cfg.BatchSize != 32 || cfg.LR != 0.01 {
		t.Fatalf("cfg = %+v", cfg)
	}
}

// engineForDetect builds a small BN+Adam engine.
func engineForDetect(t testing.TB) *train.Engine {
	t.Helper()
	ds := data.NewGaussianClusters(data.GaussianClustersConfig{
		Classes: 4, Examples: 256, C: 1, H: 4, W: 4, NoiseStd: 0.4, Seed: 2,
	})
	trainSet, testSet := ds.Split(192)
	loader := data.NewLoader(trainSet, 16, rng.Seed{State: 5, Stream: 5})
	build := func(r *rng.Rand) *nn.Sequential {
		return nn.NewSequential(
			nn.NewFlatten(),
			nn.NewDense("d1", 16, 32, r, false),
			nn.NewBatchNorm("bn1", 32, 0.9),
			nn.NewReLU(),
			nn.NewDense("d2", 32, 4, r, false),
		)
	}
	return train.New(train.Config{Devices: 2, PerDeviceBatch: 8, Seed: rng.Seed{State: 6, Stream: 6}},
		build, opt.NewAdam(0.01), loader, testSet)
}

func TestNoFalsePositivesOnCleanTraining(t *testing.T) {
	e := engineForDetect(t)
	cfg := ConfigForModel(e.Replica(0), 16, 0.01)
	d := New(Derive(cfg))
	for i := 0; i < 80; i++ {
		e.RunIteration(i)
		if a := d.CheckEngine(e); a != nil {
			t.Fatalf("false positive at iter %d: %v", i, a)
		}
	}
	if d.Checks == 0 {
		t.Fatal("detector performed no checks")
	}
}

func TestDetectsCorruptedHistory(t *testing.T) {
	e := engineForDetect(t)
	cfg := ConfigForModel(e.Replica(0), 16, 0.01)
	d := New(Derive(cfg))
	for i := 0; i < 5; i++ {
		e.RunIteration(i)
	}
	// Corrupt Adam's m for one parameter with a Table-4-range value.
	h := e.Optimizer().History()
	for _, ts := range h {
		ts[0].Data[0] = 3.6e9 // lower end of the SlowDegrade range
		break
	}
	a := d.CheckEngine(e)
	if a == nil {
		t.Fatal("corrupted gradient history not detected")
	}
	if a.Value < 3e9 {
		t.Fatalf("alarm value %v", a.Value)
	}
}

func TestDetectsCorruptedSecondMoment(t *testing.T) {
	e := engineForDetect(t)
	d := New(Derive(ConfigForModel(e.Replica(0), 16, 0.01)))
	for i := 0; i < 5; i++ {
		e.RunIteration(i)
	}
	h := e.Optimizer().History()
	for _, ts := range h {
		ts[1].Data[0] = 1e19
		break
	}
	if d.CheckEngine(e) == nil {
		t.Fatal("corrupted v not detected")
	}
}

func TestDetectsCorruptedMvar(t *testing.T) {
	e := engineForDetect(t)
	d := New(Derive(ConfigForModel(e.Replica(0), 16, 0.01)))
	for i := 0; i < 5; i++ {
		e.RunIteration(i)
	}
	for _, nl := range e.Replica(1).Layers {
		if bn, ok := nl.Layer.(*nn.BatchNorm); ok {
			bn.MovingVar.Data[3] = 6.5e16 // lower end of SharpDegrade range
		}
	}
	a := d.CheckEngine(e)
	if a == nil {
		t.Fatal("corrupted mvar not detected")
	}
	if a.Where == "" || a.Bound <= 0 {
		t.Fatalf("malformed alarm %+v", a)
	}
}

func TestDetectsNaNHistory(t *testing.T) {
	e := engineForDetect(t)
	d := New(Derive(ConfigForModel(e.Replica(0), 16, 0.01)))
	for i := 0; i < 3; i++ {
		e.RunIteration(i)
	}
	h := e.Optimizer().History()
	for _, ts := range h {
		ts[0].Data[0] = float32(math.NaN())
		break
	}
	a := d.CheckEngine(e)
	if a == nil {
		t.Fatal("NaN history not detected")
	}
	if !math.IsInf(a.Value, 1) {
		t.Fatalf("NaN should be reported as +Inf value, got %v", a.Value)
	}
}

func TestDetectionCoversTable4Ranges(t *testing.T) {
	// Every Table-4 necessary-condition range must lie above the derived
	// bounds by a wide margin, so detection coverage of latent outcomes is
	// structural, not tuned.
	cfg := Config{MaxFanIn: 512, BatchSize: 8, Depth: 10, LR: 0.01, MaxBiasCorrection: 1, SafetyFactor: 10}
	b := Derive(cfg)
	table4Lows := map[string]float64{
		"SlowDegrade(hist)":      3.6e9,
		"SharpSlowDegrade(hist)": 2.7e8,
	}
	for name, lo := range table4Lows {
		if b.GradHistory >= lo {
			t.Errorf("%s: bound %v not below condition %v", name, b.GradHistory, lo)
		}
	}
	mvarLows := map[string]float64{
		"SharpDegrade(mvar)":    6.5e16,
		"LowTestAccuracy(mvar)": 7.3e17,
		"ShortTermINFNaN(mvar)": 2.9e38,
	}
	for name, lo := range mvarLows {
		if b.Mvar >= lo {
			t.Errorf("%s: bound %v not below condition %v", name, b.Mvar, lo)
		}
	}
}

func TestAlarmString(t *testing.T) {
	a := Alarm{Where: "hist-m:w", Value: 1e10, Bound: 5}
	s := a.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("alarm string %q", s)
	}
}

func BenchmarkCheckEngine(b *testing.B) {
	e := engineForDetect(b)
	d := New(Derive(ConfigForModel(e.Replica(0), 16, 0.01)))
	for i := 0; i < 3; i++ {
		e.RunIteration(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := d.CheckEngine(e); a != nil {
			b.Fatal(a)
		}
	}
}

func TestDeriveLayeredTighterForNarrowLayers(t *testing.T) {
	r := rng.NewFromInt(7)
	model := nn.NewSequential(
		nn.NewConv2D("c1", 1, 8, 3, 3, 1, 1, r, false), // fan-in 9
		nn.NewResidual("res",
			nn.NewConv2D("res/c", 8, 8, 3, 3, 1, 1, r, false), // fan-in 72
		),
		nn.NewFlatten(),
		nn.NewDense("fc", 8*16, 4, r, false), // fan-in 128
	)
	tmpl := ConfigForModel(model, 16, 0.01)
	lb := DeriveLayered(model, tmpl)
	c1 := lb.PerParam["c1/kernel"]
	res := lb.PerParam["res/c/kernel"]
	fc := lb.PerParam["fc/kernel"]
	if c1.GradHistory >= res.GradHistory || res.GradHistory >= fc.GradHistory {
		t.Fatalf("per-layer bounds not ordered by fan-in: c1=%v res=%v fc=%v",
			c1.GradHistory, res.GradHistory, fc.GradHistory)
	}
	// No per-layer bound may exceed the max-fan-in global bound.
	for name, b := range lb.PerParam {
		if b.GradHistory > lb.Global.GradHistory+1e-9 {
			t.Fatalf("%s bound %v above global %v", name, b.GradHistory, lb.Global.GradHistory)
		}
	}
	// Fallback for unknown params.
	if got := lb.boundsFor("no-such-param"); got != lb.Global {
		t.Fatal("fallback bounds wrong")
	}
}

func TestLayeredDetectorNoFalsePositives(t *testing.T) {
	e := engineForDetect(t)
	lb := DeriveLayered(e.Replica(0), ConfigForModel(e.Replica(0), 16, 0.01))
	d := NewLayered(lb)
	for i := 0; i < 60; i++ {
		e.RunIteration(i)
		if a := d.CheckEngine(e); a != nil {
			t.Fatalf("layered detector false positive at iter %d: %v", i, a)
		}
	}
}

func TestLayeredDetectorCatchesSmallerCorruption(t *testing.T) {
	// A corruption below the global (max-fan-in) bound but above the
	// narrow layer's own bound is caught only by the layered detector —
	// the point of deriving per-layer n_l.
	e := engineForDetect(t)
	tmpl := ConfigForModel(e.Replica(0), 16, 0.01)
	lb := DeriveLayered(e.Replica(0), tmpl)
	global := New(Derive(tmpl))
	layered := NewLayered(lb)
	for i := 0; i < 5; i++ {
		e.RunIteration(i)
	}
	// Find a parameter with a per-layer bound strictly below global and
	// plant a value between the two.
	var target string
	for name, b := range lb.PerParam {
		if b.GradHistory < lb.Global.GradHistory/2 {
			target = name
			break
		}
	}
	if target == "" {
		t.Skip("model has no layer sufficiently narrower than the widest")
	}
	h := e.Optimizer().History()
	mid := float32((lb.PerParam[target].GradHistory + lb.Global.GradHistory) / 2)
	h[target][0].Data[0] = mid
	if a := global.CheckHistory(e.Optimizer()); a != nil {
		t.Fatalf("global detector should miss a below-global value, alarmed: %v", a)
	}
	if a := layered.CheckHistory(e.Optimizer()); a == nil {
		t.Fatal("layered detector missed an above-layer-bound value")
	}
}
