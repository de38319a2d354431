package paper

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro"
	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/detect"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/outcome"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/workloads"
)

// All regenerates every artefact in the paper's order.
func All() []Artefact {
	return []Artefact{Table1(), Sec323(), Table2(), Fig2(), Fig3A(), Fig3B(), Table3(), Fig4(), Fig5(),
		Table4(), Sec431(), Alg1(), Sec53(), Sec6(), Table5(), MixedPrecision(), DeviceCount()}
}

// Pinned is a fault pinned for a figure: found by sweeping the sampler
// space, kept here for reproducibility. It runs through
// repro.SingleInjection at PinnedSeed.
type Pinned struct {
	Panel     string
	Workload  string
	Injection fault.Injection
	// Want is the outcome the panel illustrates.
	Want outcome.Outcome
}

// PinnedSeed is the engine seed every pinned fault runs at.
const PinnedSeed = 9

// Fig2Faults are the four latent-outcome faults of Fig 2; Fig 5 splits the
// first into its three phases.
var Fig2Faults = [4]Pinned{
	// Backward fault + Adam history corruption, no BN.
	{"2a SlowDegrade", "resnet_nobn", fault.Injection{Kind: accel.GlobalG1, LayerIdx: 5, Pass: fault.BackwardInput,
		Iteration: 15, N: 8, Seed: rng.Seed{State: 1, Stream: 3}}, outcome.SlowDegrade},
	// Forward fault, no effective normalization (the SGD workload saturates
	// BN): a sharp drop, then continued decline.
	{"2b SharpSlowDegrade", "resnet_sgd", fault.Injection{Kind: accel.GlobalG3, LayerIdx: 2, Pass: fault.Forward,
		Iteration: 50, N: 8, Unit: 2, Seed: rng.Seed{State: 3, Stream: 9}}, outcome.SharpSlowDegrade},
	// SGD turns a corrupted gradient into large weights: training collapses
	// at the fault and stays low; the shape classifier reads the continued
	// decline as 2b.
	{"2c SharpDegrade-family", "resnet_sgd", fault.Injection{Kind: accel.GlobalG3, LayerIdx: 6, Pass: fault.BackwardInput,
		Iteration: 50, N: 8, Unit: 2, Seed: rng.Seed{State: 2, Stream: 6}}, outcome.SharpSlowDegrade},
	// Forward fault poisons one device's mvar: training accuracy untouched,
	// test accuracy collapses.
	{"2d LowTestAccuracy", "resnet", fault.Injection{Kind: accel.GlobalG3, LayerIdx: 1, Pass: fault.Forward,
		Iteration: 15, N: 8, Unit: 2, Seed: rng.Seed{State: 1, Stream: 3}}, outcome.LowTestAccuracy},
}

// run trains p's workload with its fault armed and fault-free, and
// classifies the faulty run.
func (p Pinned) run() (faulty, ref *train.Trace, cls *outcome.Classifier, o outcome.Outcome) {
	faulty, ref, err := repro.SingleInjection(p.Workload, p.Injection, PinnedSeed)
	if err != nil {
		panic(err) // the pinned workloads exist
	}
	cls = outcome.NewClassifier(ref)
	return faulty, ref, cls, cls.Classify(faulty, p.Injection.Pass)
}

// dangerousKinds are the FF families the paper identifies as the dominant
// generators of large magnitudes (Sec 4.3.1): groups 1 and 3, local control
// FFs, and the upper exponent datapath bits. The deep-dive artefacts
// importance-sample from them; Fig 3 panel A keeps population sampling.
var dangerousKinds = []accel.FFKind{
	accel.GlobalG1, accel.GlobalG3, accel.LocalControl, accel.DatapathUpperExponent,
}

// campaign runs n experiments on workload name trained for iters
// iterations, importance-sampling dangerousKinds when biased.
func campaign(name string, iters, n int, seed int64, biased bool) *experiment.Campaign {
	w, _ := workloads.ByName(name)
	w.Iters = iters
	cfg := experiment.Config{Workload: w, Experiments: n, Seed: seed, HorizonMult: 1}
	if biased {
		cfg.BiasKinds = dangerousKinds
	}
	return experiment.Run(cfg)
}

// Table1 is the modeled accelerator's FF population (Table 1's "% FFs")
// and each software fault model's corruption footprint: the elements it
// corrupts on a [2,32,6,6] tensor over 4 cycles.
func Table1() Artefact {
	a := Artefact{ID: "table1", Title: "Table 1 — FF population and software fault models"}
	total := accel.NVDLAInventory().TotalFFs
	out := tensor.New(2, 32, 6, 6)
	out.FillNormal(rng.NewFromInt(1), 0, 1)
	global, families := 0, 0.0
	for _, ff := range repro.Inventory() {
		inj := fault.Injection{Kind: ff.Kind, CycleFrac: 0.3, N: 4, Unit: 3, DeltaFrac: 0.5,
			Seed: rng.Seed{Stream: uint64(ff.Kind)}}
		if ff.Kind >= accel.GlobalG1 {
			global += ff.Count
		}
		switch ff.Kind {
		case accel.LocalControl, accel.GlobalG1, accel.GlobalG3:
			families += ff.Fraction
		}
		a.Rows = append(a.Rows,
			value(ff.Kind.String()+" share of FFs", "%.2f %%", 100*ff.Fraction, total, 0, table1Paper[ff.Kind]),
			value(ff.Kind.String()+" elements corrupted", "%.0f", float64(len(inj.Apply(out.Clone(), 1).Indices)), 4, 1, cite{}))
	}
	a.Rows = append(a.Rows,
		value("groups 1+3 + local control share of FFs", "%.2f %%", 100*families, total, 0, percent(9.8, 1)),
		value("global-control FFs", "%.0f", float64(global), total, 0, cite{"~41K", point(41, 1e3)}))
	return a
}

// table1Paper cites Table 1's population column, in percent. Sec 4.3.1's
// share of groups 1 and 3 with local control is a row of its own.
var table1Paper = map[accel.FFKind]cite{
	accel.DatapathUpperExponent: percent(5.5, 1), accel.GlobalG1: percent(0.24, 1), accel.GlobalG2: percent(0.25, 1),
	accel.GlobalG3: percent(0.48, 1), accel.GlobalG4: percent(2.36, 1), accel.GlobalG5: percent(1.31, 1),
	accel.GlobalG6: percent(0.96, 1), accel.GlobalG7: percent(0.09, 1), accel.GlobalG8: percent(0.22, 1),
	accel.GlobalG9: percent(0.16, 1), accel.GlobalG10: percent(0.12, 1),
}

// Sec323 checks the software fault model every campaign runs
// (fault.Injection.Apply) against the structural MAC-array simulator,
// element by element. Per control-FF kind it runs 1000 trials, each on a
// random tile (k ≤ 40 channels, ck ≤ 9 inputs, w ≤ 12 positions; w = 2 is a
// dense layer at per-device batch 2) with the fault drawn in hardware terms
// and encoded into an Injection, so CorruptionOps' resolution of CycleFrac
// and DeltaFrac is under test too. A tile is identical when Apply's output
// equals the simulator's bit for bit, NaN equal to NaN. The datapath kinds
// stay out: the structural array has no datapath register to flip.
func Sec323() Artefact {
	const trials, seed = 1000, 1
	var unmasked, matched, masked int
	var kindRows []Row
	kinds := accel.Kinds()[accel.LocalControl:]
	for _, kind := range kinds {
		r := rng.NewFromInt(seed).Split(uint64(kind))
		var identical, kindMasked, missed, spurious int
		for range trials {
			hwMasked, miss, spur := compareTile(kind, r)
			missed += miss
			spurious += spur
			same := miss+spur == 0
			if same {
				identical++
			}
			if hwMasked {
				kindMasked++
			} else if unmasked++; same {
				matched++
			}
		}
		masked += kindMasked
		name := kind.String()
		kindRows = append(kindRows,
			share(name+" tiles identical", identical, trials, seed, cite{}),
			share(name+" trials the hardware masks", kindMasked, trials, seed, cite{}),
			value(name+" hardware-corrupted positions the model misses", "%.0f", float64(missed), trials, seed, cite{}),
			value(name+" model-corrupted positions the hardware leaves clean", "%.0f", float64(spurious), trials, seed, cite{}))
	}
	return Artefact{"sec3.2.3", "Sec 3.2.3 — software fault models against the structural simulator", append([]Row{
		share("unmasked trials with identical tiles", matched, unmasked, seed,
			cite{"all unmasked RTL faults matched (40K injections)", &Band{1, 1}}),
		share("trials the hardware masks", masked, trials*len(kinds), seed, cite{}),
	}, kindRows...)}
}

// compareTile runs one Sec 3.2.3 trial of kind, drawn from r: the
// structural array computes a random tile clean and with the fault, and
// Apply corrupts a copy of the clean tile. It reports whether the
// hardware's tile equals the clean one (masked), the positions the hardware
// corrupts where Apply's value differs from the hardware's (missed), and
// the positions Apply corrupts that the hardware leaves clean (spurious).
func compareTile(kind accel.FFKind, r *rng.Rand) (masked bool, missed, spurious int) {
	k, ck, w := 1+r.Intn(40), 1+r.Intn(9), 1+r.Intn(12)
	arr := &accel.MACArray{Weights: accel.NewMatrix(k, ck), Inputs: accel.NewMatrix(ck, w)}
	for _, m := range []*accel.Matrix{arr.Weights, arr.Inputs} {
		for i := range m.Data {
			m.Data[i] = float32(r.NormFloat64())
		}
	}
	clean := arr.Run(nil)

	cycles := (k + accel.MACUnits - 1) / accel.MACUnits * w
	start, n, delta := r.Intn(cycles), 1+r.Intn(4), 1+r.Intn(max(w-1, 1))
	inj := fault.Injection{Kind: kind, CycleFrac: (float64(start) + 0.5) / float64(cycles), N: n,
		Unit: r.Intn(accel.MACUnits), DeltaFrac: (float64(delta-1) + 0.5) / float64(max(w-1, 1)),
		Source: fault.FetchSource(r.Intn(2)), Seed: rng.Seed{State: r.Uint64(), Stream: r.Uint64() >> 1}}
	// Table 1's source rule: an input fetch (G5–G10) from on-chip buffers
	// is wrong for one cycle, one from DRAM for n.
	if kind >= accel.GlobalG5 && inj.Source == fault.FromOnChip {
		n = 1
	}
	// The random values (G1, G3, local control) and the stale column
	// (G9, G10) come from the stream Apply draws from.
	faulty := arr.Run(&accel.ControlFault{Kind: kind, StartCycle: start, N: n, Unit: inj.Unit, AddrDelta: delta,
		SourceCol: rng.New(inj.Seed).Intn(w), Rand: rng.New(inj.Seed)})

	model := tensor.FromSlice(slices.Clone(clean.Data), k, w)
	inj.Apply(model, 0)
	corrupted := make([]bool, k*w)
	hw := accel.DiffPositions(clean, faulty)
	for _, i := range hw {
		corrupted[i] = true
	}
	for _, i := range accel.DiffPositions(faulty, &accel.Matrix{Rows: k, Cols: w, Data: model.Data}) {
		if corrupted[i] {
			missed++
		} else {
			spurious++
		}
	}
	return len(hw) == 0, missed, spurious
}

// Table2 trains every workload fault-free.
func Table2() Artefact {
	a := Artefact{ID: "table2", Title: "Table 2 — workload zoo, fault-free training"}
	for _, w := range workloads.All() {
		tr := train.NewTrace(w.Name)
		w.NewEngine(rng.Seed{State: 7, Stream: 77}).Run(0, w.Iters, tr, false)
		paper := cite{text: w.Paper + ": >95 % of the reference accuracy"}
		a.Rows = append(a.Rows,
			value(w.Name+" train accuracy", "%.3f", tr.FinalTrainAcc(10), w.Iters, 7, paper),
			value(w.Name+" test accuracy", "%.3f", tr.FinalTestAcc(), w.Iters, 7, paper))
	}
	return a
}

// Fig2 runs the four pinned latent-outcome faults: each one's class, its
// training accuracy every 15 iterations, and its final accuracies against
// the fault-free run's.
func Fig2() Artefact {
	a := Artefact{ID: "fig2", Title: "Fig 2 — latent-outcome convergence curves"}
	for _, p := range Fig2Faults {
		faulty, ref, _, o := p.run()
		var curve []string
		var samples []float64
		for j := 0; j < len(faulty.TrainAcc); j += 15 {
			samples = append(samples, faulty.TrainAcc[j])
			curve = append(curve, fmt.Sprintf("%.2f", faulty.TrainAcc[j]))
		}
		n := len(faulty.TrainAcc)
		a.Rows = append(a.Rows,
			class(p.Panel+" classified", o, p.Want, n, PinnedSeed),
			Row{Label: p.Panel + " train accuracy every 15 iterations", Measured: strings.Join(curve, " "),
				Series: samples, N: n, Seed: PinnedSeed},
			value(p.Panel+" final train accuracy", "%.2f", faulty.FinalTrainAcc(10), n, PinnedSeed, cite{}),
			value(p.Panel+" fault-free final train accuracy", "%.2f", ref.FinalTrainAcc(10), n, PinnedSeed, cite{}),
			value(p.Panel+" final test accuracy", "%.2f", faulty.FinalTestAcc(), n, PinnedSeed, cite{}),
			value(p.Panel+" fault-free final test accuracy", "%.2f", ref.FinalTestAcc(), n, PinnedSeed, cite{}))
	}
	return a
}

// fig3Workloads are Fig 3's workloads in the paper's order.
var fig3Workloads = []string{"resnet", "resnet_nobn", "resnet_sgd", "resnet_largedecay",
	"densenet", "efficientnet", "nfnet", "yolo", "mgnm", "transformer"}

// Fig3A is the outcome breakdown per workload under population-weighted FF
// sampling: 32 experiments of 60 iterations each.
func Fig3A() Artefact {
	return fig3("fig3a", "Fig 3 panel A — outcome breakdown, population-weighted FF sampling", 31, false)
}

// Fig3B is the same breakdown importance-sampled over the dangerous FF
// kinds: the conditional composition of unexpected outcomes.
func Fig3B() Artefact {
	return fig3("fig3b", "Fig 3 panel B — outcome breakdown, importance-sampled dangerous FF kinds", 33, true)
}

func fig3(id, title string, seed int64, biased bool) Artefact {
	a := Artefact{ID: id, Title: title}
	for _, name := range fig3Workloads {
		c := campaign(name, 60, 32, seed, biased)
		a.Rows = append(a.Rows, prefixed(name+" ", c, Outcomes(c))...)
	}
	return a
}

// Table3 classifies canonical convergence shapes against a synthetic
// fault-free run.
func Table3() Artefact {
	mk := func(n, f int, acc func(int) float64) *train.Trace {
		t := train.NewTrace("synth")
		t.FaultIter = f
		for i := 0; i < n; i++ {
			t.TrainAcc = append(t.TrainAcc, acc(i))
			t.TrainLoss = append(t.TrainLoss, 1-acc(i))
		}
		t.Completed = n
		return t
	}
	nonFinite := func(n, at int) *train.Trace {
		t := mk(n, 50, func(int) float64 { return 0.9 })
		t.NonFiniteIter = at
		return t
	}
	rising := func(i int) float64 { return math.Min(0.9, 0.3+0.02*float64(i)) }
	after := func(tail func(i int) float64) *train.Trace {
		return mk(200, 50, func(i int) float64 {
			if i < 50 {
				return rising(i)
			}
			return tail(i)
		})
	}
	ref := mk(200, -1, func(i int) float64 { return math.Min(0.95, 0.3+0.02*float64(i)) })
	ref.TestIters, ref.TestAcc = []int{199}, []float64{0.94}
	cls := outcome.NewClassifier(ref)

	cases := []struct {
		name  string
		trace *train.Trace
		pass  fault.Pass
		want  outcome.Outcome
	}{
		{"immediate INF/NaN", nonFinite(51, 50), fault.Forward, outcome.ImmediateINFNaN},
		{"short-term INF/NaN", nonFinite(53, 52), fault.Forward, outcome.ShortTermINFNaN},
		{"slow degrade", after(func(i int) float64 { return math.Max(0.3, 0.9-0.015*float64(i-50)) }), fault.BackwardInput, outcome.SlowDegrade},
		{"sharp degrade", after(func(int) float64 { return 0.3 }), fault.Forward, outcome.SharpDegrade},
		{"sharp slow degrade", after(func(i int) float64 { return math.Max(0.2, 0.5-0.01*float64(i-50)) }), fault.Forward, outcome.SharpSlowDegrade},
	}
	a := Artefact{ID: "table3", Title: "Table 3 — outcome taxonomy on canonical convergence shapes"}
	ok := 0
	for _, c := range cases {
		got := cls.Classify(c.trace, c.pass)
		if got == c.want {
			ok++
		}
		a.Rows = append(a.Rows, class(c.name, got, c.want, c.trace.Completed, 0))
	}
	a.Rows = append(a.Rows, share("shapes classified as the paper's class", ok, len(cases), 0,
		cite{text: "immediate = iteration t (t+1 for backward faults); short-term ≤ t+2; latent = trend"}))
	return a
}

// Fig4 splits outcomes by the pass the fault was injected into, on
// importance-sampled campaigns of the two workloads where both paths occur.
func Fig4() Artefact {
	a := Artefact{ID: "fig4", Title: "Fig 4 — outcomes by injected pass"}
	for i, name := range []string{"resnet_sgd", "resnet_largedecay"} {
		c := campaign(name, 60, 60, int64(51+i), true)
		a.Rows = append(a.Rows, prefixed(name+" ", c, Passes(c))...)
	}
	return a
}

// fig4Paper cites Fig 4's propagation paths.
var fig4Paper = map[outcome.Outcome]string{
	outcome.SlowDegrade:     "history-driven: backward faults",
	outcome.SharpDegrade:    "mvar-driven: forward faults",
	outcome.LowTestAccuracy: "mvar-driven: forward faults",
	outcome.ShortTermINFNaN: "mvar-driven: forward faults",
}

// Fig5 splits the pinned SlowDegrade run (Fig 2a) into its three phases.
func Fig5() Artefact {
	p := Fig2Faults[0]
	faulty, _, cls, o := p.run()
	ph := cls.DetectPhases(faulty)
	n := len(faulty.TrainAcc)
	return Artefact{"fig5", "Fig 5 — the three phases of SlowDegrade", []Row{
		class("outcome", o, p.Want, n, PinnedSeed),
		value("phase 1 (degradation) starts at iteration", "%.0f", float64(ph.DegradeStart), n, PinnedSeed,
			cite{"the fault iteration", point(float64(p.Injection.Iteration), 1)}),
		value("phase 2 (stagnation) bottoms at iteration", "%.0f", float64(ph.StagnationStart), n, PinnedSeed, cite{}),
		value("phase 2 accuracy", "%.3f", ph.MinAcc, n, PinnedSeed, cite{}),
		value("phase 3 (recovery) starts at iteration (-1: never)", "%.0f", float64(ph.RecoveryStart), n, PinnedSeed,
			cite{text: "may never be reached (Sec 4.2.3)"}),
	}}
}

// Table4 collects the necessary-condition ranges on importance-sampled
// campaigns: the |grad history| rows on resnet_nobn, Fig 2a's Adam
// workload, and the |mvar| rows on the two workloads with the most latent
// outcomes. resnet_sgd's SGD keeps no gradient history (momentum 0), and
// resnet_nobn has no moving variance.
func Table4() Artefact {
	a := Artefact{ID: "table4", Title: table4Title}
	for _, w := range []struct {
		name, quantity string
		seed           int64
	}{{"resnet_nobn", "|grad history|", 79}, {"resnet_sgd", "|mvar|", 77}, {"resnet_largedecay", "|mvar|", 78}} {
		c := campaign(w.name, 60, 60, w.seed, true)
		rows := slices.DeleteFunc(Conditions(c), func(r Row) bool { return !strings.HasSuffix(r.Label, " "+w.quantity) })
		a.Rows = append(a.Rows, prefixed(w.name+" ", c, rows)...)
	}
	return a
}

// Sec431 is the FF-class contribution on a population-sampled campaign of
// the most fault-sensitive workload, so the shares are unconditional like
// the paper's.
func Sec431() Artefact {
	c := campaign("resnet_sgd", 60, 96, 61, false)
	return Artefact{"sec4.3.1", sec431Title, prefixed("", c, Contribution(c))}
}

// Alg1 derives the detection bounds of every workload, checks them against
// the smallest Table-4 condition values, and gives the fault-free tail
// probability behind the 20σ history bound.
func Alg1() Artefact {
	a := Artefact{ID: "alg1", Title: "Algorithm 1 — derived detection bounds"}
	below := 1.0
	for _, w := range workloads.All() {
		e := w.NewEngine(rng.Seed{State: 3, Stream: 77})
		b := detect.Derive(detect.ConfigForModel(e.Replica(0), w.BatchSize(), w.LR))
		a.Rows = append(a.Rows,
			value(w.Name+" |history| bound", "%.3e", b.GradHistory, 0, 3, cite{}),
			value(w.Name+" |history²| bound", "%.3e", b.GradHistorySq, 0, 3, cite{}),
			value(w.Name+" mvar bound", "%.3e", b.Mvar, 0, 3, cite{}))
		if b.GradHistory >= 2.7e8 || b.Mvar >= 6.5e16 {
			below = 0
		}
	}
	// The one-sided tail is half the two-sided one: the Gaussian is
	// symmetric.
	a.Rows = append(a.Rows,
		value("every bound below the smallest Table-4 values (1 = yes)", "%.0f", below, len(workloads.All()), 3,
			cite{text: "2.7e8 history, 6.5e16 mvar"}),
		value("P(history > 20σ) fault-free, one-sided", "%.2e", detect.TailProbability(20)/2, 0, 0,
			cite{"<3e-89 one-sided", &Band{0, 3e-89}}))
	return a
}

// Sec53 compares the work a failure detected at iteration 55 loses under
// 40-iteration epoch checkpointing and under two-iteration re-execution,
// and scales the same arithmetic to the paper's 1000-iteration epochs.
func Sec53() Artefact {
	w, _ := workloads.ByName("yolo")
	e := w.NewEngine(rng.Seed{State: 6, Stream: 77})
	ck := recovery.NewCheckpointer(40)
	re := recovery.NewReExecutor(e)
	lostCk, lostRe := 0, 0
	for iter := 0; iter < 60; iter++ {
		re.BeforeIteration(iter)
		e.RunIteration(iter)
		ck.AfterIteration(e, iter)
		if iter == 55 {
			lostCk, lostRe = ck.LostIterations(iter), max(re.Depth()-1, 1)
		}
	}
	return Artefact{"sec5.3", "Sec 5.3 — work lost on recovery: epoch checkpointing vs re-execution", []Row{
		value("lost-work ratio, 40-iteration epochs", "%.0f×", float64(lostCk)/float64(lostRe), 60, 6, upTo500),
		value("lost-work ratio, 1000-iteration epochs (arithmetic)", "%.0f×", 1000.0/2, 0, 0, upTo500),
	}}
}

// upTo500 cites Sec 5.3's lost-work ratio, a bound.
var upTo500 = cite{"up to 500×", &Band{0, 500}}

// Sec6 measures, over importance-sampled forward and backward-input faults
// on resnet_largedecay (which reaches latent outcomes through both), which
// latent outcomes an activation range monitor, the bounds check and ABFT
// checksums catch, and which stay latent when the optimizer clips the
// gradient norm. The monitors and checksums ride the same faulty run: ABFT
// wraps every layer of every replica without moving a bit of training, and
// the bounds check derives its bounds before the wrapping, from the plain
// layers. Each latent trial then trains again under clipping and is
// classified against a clipped fault-free run.
func Sec6() Artefact {
	w, _ := workloads.ByName("resnet_largedecay")
	w.Iters = 60
	seed := rng.Seed{State: 9, Stream: 77}
	profile := w.NewEngine(seed)
	ranger := baseline.NewRanger(profile.Replica(0).Len(), 4.0)
	ranger.ProfileOnEngine(profile, 40)

	sampler := fault.NewSampler(accel.NVDLAInventory(), rng.NewFromInt(71))
	bias := rng.NewFromInt(72)
	refEngine := w.NewEngine(seed)
	refChecks := withABFT(refEngine)
	ref := train.NewTrace("ref")
	refEngine.Run(0, w.Iters, ref, false)
	if refChecks.Alarms.Load() != 0 {
		panic(fmt.Sprintf("paper: ABFT raised %d alarms on the fault-free reference", refChecks.Alarms.Load()))
	}
	cls := outcome.NewClassifier(ref)
	var rangerHits, boundsHits, abftHits int
	var latent []fault.Injection
	for trial := 0; trial < 80; trial++ {
		inj := sampler.Sample(refEngine.Replica(0).Len(), 40)
		inj.Kind = dangerousKinds[bias.Intn(len(dangerousKinds))]
		inj.N = 1 + bias.Intn(accel.MaxLoopIterations) // worst-case persistence
		inj.Pass = fault.Forward
		if bias.Intn(2) != 0 {
			inj.Pass = fault.BackwardInput
		}
		e := w.NewEngine(seed)
		e.SetInjection(&inj)
		d := detect.ForEngine(e, w.BatchSize(), w.LR, true)
		checks := withABFT(e)
		ranger.Reset()
		ranger.SetIteration(0)
		e.ForwardMonitor = ranger.Check
		tr := train.NewTrace(w.Name)
		caught := false
		e.RunWithHook(0, w.Iters, tr, true, func(iter int) {
			if !caught && iter >= inj.Iteration {
				caught = d.CheckEngine(e) != nil
			}
			ranger.SetIteration(iter + 1)
		})
		if !cls.Classify(tr, inj.Pass).IsLatent() {
			continue
		}
		latent = append(latent, inj)
		if ranger.FirstAlarmIter() >= 0 {
			rangerHits++
		}
		if caught {
			boundsHits++
		}
		if checks.Alarms.Load() > 0 {
			abftHits++
		}
	}

	clipped, plain := *w, w.NewOptimizer
	clipped.NewOptimizer = func() opt.Optimizer { return baseline.NewClipped(plain(), clipNorm) }
	clipRef := train.NewTrace("ref")
	clipped.NewEngine(seed).Run(0, w.Iters, clipRef, false)
	clipCls := outcome.NewClassifier(clipRef)
	stillLatent := 0
	for _, inj := range latent {
		e := clipped.NewEngine(seed)
		e.SetInjection(&inj)
		tr := train.NewTrace(w.Name)
		e.Run(0, w.Iters, tr, true)
		if clipCls.Classify(tr, inj.Pass).IsLatent() {
			stillLatent++
		}
	}
	n := len(latent)
	return Artefact{"sec6", "Sec 6 — latent outcomes: bounds check vs range restriction, ABFT and gradient clipping", []Row{
		share("latent outcomes caught by range restriction", rangerHits, n, 71, percent(33.7, 0.01)),
		share("latent outcomes caught by the bounds check", boundsHits, n, 71, cite{"100 %", &Band{1, 1}}),
		share("latent outcomes ABFT alarms on", abftHits, n, 71, cite{}),
		share("latent outcomes gradient clipping leaves latent", stillLatent, n, 71, cite{text: "cannot mitigate all"}),
	}}
}

// abftTolerance is the relative checksum mismatch Sec 6's ABFT alarms on:
// BenchmarkSec6_ABFTOverhead's, at which the fault-free reference raises no
// alarm (Sec6 panics if it does).
const abftTolerance = 5e-2

// clipNorm is the global gradient norm Sec 6's clipping scales down to. The
// fault-free resnet_largedecay run's largest norm over its 60 iterations is
// 1.97, at iteration 0. So clipping never acts on the fault-free run, and the
// clipped reference is the plain one bit for bit. It acts on any gradient a
// fault inflates past 2.5× that.
const clipNorm = 5

// withABFT wraps every Dense and Conv2D layer of e's replicas with ABFT
// checksums sharing one state, and returns it.
func withABFT(e *train.Engine) *baseline.ABFTState {
	s := baseline.NewABFTState(abftTolerance)
	for d := 0; d < e.Config().Devices; d++ {
		baseline.WrapModel(baseline.ABFTBuilder(s), e.Replica(d))
	}
	return s
}

// Table5 exposes training and inference to the same 20 importance-sampled
// faults on resnet_sgd: each trains for 50 iterations with the fault armed,
// and each is applied once to an evaluation forward pass of the fault-free
// model trained for 30 iterations. It counts the exposures that end in an
// INF/NaN, and the inference exposures that changed a value at all.
func Table5() Artefact {
	w, _ := workloads.ByName("resnet_sgd")
	w.Iters = 50
	seed := rng.Seed{State: 9, Stream: 77}
	trained := w.NewEngine(seed)
	for it := 0; it < 30; it++ {
		trained.RunIteration(it)
	}
	_, test := w.NewDataset()
	batch := test.All()
	sampler := fault.NewSampler(accel.NVDLAInventory(), rng.NewFromInt(81))
	bias := rng.NewFromInt(82)
	const trials = 20
	var trainNaN, evalCorrupted, evalNaN int
	for trial := 0; trial < trials; trial++ {
		inj := sampler.Sample(7, 40)
		inj.Kind = dangerousKinds[bias.Intn(len(dangerousKinds))]
		e := w.NewEngine(seed)
		e.SetInjection(&inj)
		tr := train.NewTrace(w.Name)
		e.Run(0, w.Iters, tr, true)
		if tr.NonFiniteIter >= 0 {
			trainNaN++
		}
		corrupted, nonFinite := infer(trained.Replica(0), batch, inj)
		if corrupted {
			evalCorrupted++
		}
		if nonFinite {
			evalNaN++
		}
	}
	return Artefact{"table5", "Table 5 — INF/NaN outcomes in training vs inference", []Row{
		share("training exposures ending in INF/NaN", trainNaN, trials, 81, cite{text: "a major unexpected class"}),
		share("inference exposures that changed an activation", evalCorrupted, trials, 81, cite{}),
		share("inference exposures ending in INF/NaN", evalNaN, trials, 81, cite{"not observed", &Band{0, 0}}),
	}}
}

// infer applies inj once, to the output of layer inj.LayerIdx in an
// evaluation forward pass of m over batch, and reports whether it changed
// a value and whether the loss came out non-finite.
func infer(m *nn.Sequential, batch data.Batch, inj fault.Injection) (corrupted, nonFinite bool) {
	hook := func(li int, out *tensor.Tensor) *tensor.Tensor {
		if li == inj.LayerIdx {
			corrupted = !inj.Apply(out, accel.PlanFor(accel.OpForward, out.Shape).ChanAxis).Masked
		}
		return nil
	}
	var loss nn.SoftmaxCrossEntropy
	l := loss.Eval(m.Forward(&nn.Context{}, batch.X, hook), batch.Y).Loss
	return corrupted, math.IsNaN(l) || math.IsInf(l, 0)
}

// MixedPrecision trains resnet for 80 iterations in FP32 and on the
// bfloat16 MAC path (Sec 3.1's precision setting).
func MixedPrecision() Artefact {
	a := Artefact{ID: "ablation-precision", Title: "Ablation — bfloat16-MAC vs FP32 training"}
	for _, w := range []*workloads.Workload{workloads.Resnet(), workloads.ResnetMixed()} {
		tr := train.NewTrace(w.Name)
		w.NewEngine(rng.Seed{State: 3, Stream: 3}).Run(0, 80, tr, false)
		label := "FP32 final train accuracy"
		if w.Mixed {
			label = "bfloat16-MAC final train accuracy"
		}
		a.Rows = append(a.Rows, value(label, "%.3f", tr.FinalTrainAcc(10), 80, 3, cite{}))
	}
	return a
}

// DeviceCount measures the weight perturbation one faulty device's
// gradient leaves after one averaged step, at 1, 2, 4 and 8 devices (Sec
// 4.3.3: averaging attenuates it by 1/D).
func DeviceCount() Artefact {
	a := Artefact{ID: "ablation-devices", Title: "Ablation — device count (Sec 4.3.3)"}
	var p1, p8 float64
	for _, devices := range []int{1, 2, 4, 8} {
		p := perturbation(devices)
		if devices == 1 {
			p1 = p
		}
		p8 = p
		a.Rows = append(a.Rows, value(fmt.Sprintf("weight perturbation, D=%d", devices), "%.3e", p, devices, 9, cite{}))
	}
	// Averaging over D devices scales one device's perturbation by 1/D, so
	// the D = 1 perturbation is 8 times the D = 8 one.
	a.Rows = append(a.Rows, value("attenuation D=1 vs D=8", "%.3f×", p1/p8, 8, 9, cite{"1/D", point(8, 1)}))
	return a
}

// perturbation is the largest weight difference between a clean and a
// faulty one-step run on devices devices.
func perturbation(devices int) float64 {
	ds := data.NewGaussianClusters(data.GaussianClustersConfig{
		Classes: 2, Examples: 128, C: 1, H: 2, W: 2, NoiseStd: 0.3, Seed: 5,
	})
	trainSet, testSet := ds.Split(96)
	build := func(r *rng.Rand) *nn.Sequential {
		return nn.NewSequential(nn.NewFlatten(), nn.NewDense("d", 4, 2, r, false))
	}
	mk := func() *train.Engine {
		loader := data.NewLoader(trainSet, devices*4, rng.Seed{State: 1, Stream: 1})
		return train.New(train.Config{Devices: devices, PerDeviceBatch: 4, Seed: rng.Seed{State: 2, Stream: 2}},
			build, opt.NewSGD(1, 0), loader, testSet)
	}
	clean, faulty := mk(), mk()
	faulty.SetInjection(&fault.Injection{Kind: accel.GlobalG2, LayerIdx: 1, Pass: fault.BackwardWeight,
		N: 1, Seed: rng.Seed{State: 9, Stream: 9}})
	clean.RunIteration(0)
	faulty.RunIteration(0)
	var maxDiff float64
	for pi, p := range faulty.Replica(0).Params() {
		cp := clean.Replica(0).Params()[pi]
		for j := range p.Value.Data {
			maxDiff = math.Max(maxDiff, math.Abs(float64(p.Value.Data[j]-cp.Value.Data[j])))
		}
	}
	return maxDiff
}
