package repro_test

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/paper"
	"repro/internal/rng"
	"repro/internal/train"
)

// Train a Table-2 workload fault-free on the simulated 8-device system and
// print its convergence — the baseline every fault-injection experiment is
// compared against.
func Example_quickstart() {
	w, err := repro.WorkloadByName("resnet")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s (stand-in for %s)\n", w.Name, w.Paper)
	fmt.Printf("devices: %d, global batch: %d\n\n", w.Devices, w.BatchSize())

	engine := w.NewEngine(rng.Seed{State: 42, Stream: 1})
	trace := train.NewTrace(w.Name)
	engine.Run(0, w.Iters, trace, false)

	fmt.Printf("%-6s %-10s %s\n", "iter", "loss", "train acc")
	for i := 0; i < len(trace.TrainLoss); i += 10 {
		fmt.Printf("%-6d %-10.4f %.3f\n", i, trace.TrainLoss[i], trace.TrainAcc[i])
	}
	fmt.Printf("\nfinal train accuracy: %.3f\n", trace.FinalTrainAcc(10))
	fmt.Printf("final test accuracy:  %.3f\n", trace.FinalTestAcc())
	fmt.Println("INF/NaN raised:", trace.NonFiniteIter != -1)
	// Output:
	// workload: resnet (stand-in for Resnet18/Cifar10 (BN, Adam))
	// devices: 8, global batch: 16
	//
	// iter   loss       train acc
	// 0      1.4231     0.250
	// 10     1.1286     0.688
	// 20     1.1306     0.500
	// 30     0.8827     0.750
	// 40     0.7330     0.938
	// 50     0.6498     0.938
	// 60     0.5839     0.875
	// 70     0.6259     0.875
	// 80     0.3234     1.000
	// 90     0.4725     0.875
	// 100    0.3077     1.000
	// 110    0.2943     1.000
	//
	// final train accuracy: 0.950
	// final test accuracy:  1.000
	// INF/NaN raised: false
}

// Reproduce the paper's Fig-2a phenomenology: a single transient hardware
// fault in the backward pass corrupts the optimizer's gradient-history
// values, after which training accuracy degrades over the following
// iterations and stays low — with no visible anomaly (no NaN, no error
// message) at any point.
func Example_slowdegrade() {
	// A group-1 control-FF fault (random dynamic-range values across all 16
	// MAC units) corrupting the input-gradient operation early in training.
	// Per the paper's analysis (Sec 4.2.3), SlowDegrade requires a
	// backward-pass fault and an optimizer that normalizes gradients: the
	// corrupted Adam history freezes a swath of weights before the network
	// has converged, and accuracy stays low for the rest of the run. The
	// resnet_nobn workload is used so normalization layers cannot soften
	// the blow (Observation 3). The fault, pinned as Fig 2a's, lands in the
	// global-average-pool's input gradient, which feeds every conv upstream.
	slow := paper.Fig2Faults[0]
	inj := slow.Injection
	fmt.Println("injecting:", inj.Kind, "into the backward pass at iteration", inj.Iteration)

	faulty, ref, err := repro.SingleInjection(slow.Workload, inj, paper.PinnedSeed)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-6s %-12s %s\n", "iter", "faulty acc", "fault-free acc")
	for i := 0; i < len(faulty.TrainAcc); i += 8 {
		marker := ""
		if i == inj.Iteration {
			marker = "          <-- fault injected here"
		}
		fmt.Printf("%-6d %-12.3f %.3f%s\n", i, faulty.TrainAcc[i], ref.TrainAcc[i], marker)
	}

	cls := outcome.NewClassifier(ref)
	o := cls.Classify(faulty, inj.Pass)
	fmt.Printf("\nclassified outcome: %v\n", o)
	fmt.Printf("no INF/NaN was ever raised: %v\n", faulty.NonFiniteIter == -1)
	fmt.Printf("final accuracy: faulty %.3f vs fault-free %.3f\n",
		faulty.FinalTrainAcc(10), ref.FinalTrainAcc(10))

	phases := cls.DetectPhases(faulty)
	fmt.Printf("\nFig-5 phases: degradation from iteration %d, bottom (%.3f) at iteration %d",
		phases.DegradeStart, phases.MinAcc, phases.StagnationStart)
	if phases.RecoveryStart >= 0 {
		fmt.Printf(", recovery from iteration %d\n", phases.RecoveryStart)
	} else {
		fmt.Printf(", no recovery within the run (Sec 4.2.3: the recovery phase may never be reached)\n")
	}
	// Output:
	// injecting: global-g1 into the backward pass at iteration 15
	//
	// iter   faulty acc   fault-free acc
	// 0      0.188        0.188
	// 8      0.062        0.062
	// 16     0.312        0.500
	// 24     0.312        0.375
	// 32     0.250        0.312
	// 40     0.375        0.625
	// 48     0.500        0.625
	// 56     0.375        0.938
	// 64     0.562        1.000
	// 72     0.562        1.000
	// 80     0.688        1.000
	// 88     0.688        1.000
	// 96     0.812        1.000
	// 104    0.625        1.000
	// 112    0.750        1.000
	//
	// classified outcome: SlowDegrade
	// no INF/NaN was ever raised: true
	// final accuracy: faulty 0.750 vs fault-free 1.000
	//
	// Fig-5 phases: degradation from iteration 15, bottom (0.225) at iteration 29, recovery from iteration 42
}

// The paper's full mitigation pipeline (Sec 5): a backward-pass fault that
// would silently corrupt the optimizer state is caught by the Algorithm-1
// bounds check within two iterations and neutralized by re-executing the
// two most recent iterations, after which training proceeds exactly as the
// fault-free run would.
func Example_guarded() {
	g, w, err := repro.NewGuarded("resnet", 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detection bounds derived from workload properties (Algorithm 1):\n")
	fmt.Printf("  |gradient history|  < %.3e\n", g.D.Bounds.GradHistory)
	fmt.Printf("  |gradient history²| < %.3e\n", g.D.Bounds.GradHistorySq)
	fmt.Printf("  mvar                < %.3e\n\n", g.D.Bounds.Mvar)

	g.E.SetInjection(&repro.Injection{
		Kind:      accel.GlobalG1,
		LayerIdx:  0,
		Pass:      repro.BackwardWeight,
		Iteration: 40,
		CycleFrac: 0,
		N:         8,
		Seed:      rng.Seed{State: 21, Stream: 4},
	})

	trace := train.NewTrace(w.Name + "-guarded")
	if err := g.Run(0, w.Iters, trace); err != nil {
		log.Fatal(err)
	}

	if len(g.Events) == 0 {
		fmt.Println("fault was fully masked; nothing to recover")
	}
	for _, ev := range g.Events {
		fmt.Printf("ALARM at iteration %d: %s (value %.3e, bound %.3e)\n",
			ev.Iteration, ev.Alarm.Where, ev.Alarm.Value, ev.Alarm.Bound)
		fmt.Printf("  → rolled back and re-executed from iteration %d (rewind of %d iterations)\n",
			ev.ResumedFrom, ev.Iteration-ev.ResumedFrom+1)
	}

	fmt.Printf("\nfinal train accuracy with mitigation: %.3f\n", trace.FinalTrainAcc(10))
	fmt.Printf("final test accuracy with mitigation:  %.3f\n", trace.FinalTestAcc())
	fmt.Printf("recoveries performed: %d\n", len(g.Events))
	// Output:
	// detection bounds derived from workload properties (Algorithm 1):
	//   |gradient history|  < 1.061e+02
	//   |gradient history²| < 1.125e+04
	//   mvar                < 2.000e+01
	//
	// ALARM at iteration 40: hist-m:conv1/kernel (value 8.616e+34, bound 1.061e+02)
	//   → rolled back and re-executed from iteration 39 (rewind of 2 iterations)
	//
	// final train accuracy with mitigation: 0.925
	// final test accuracy with mitigation:  1.000
	// recoveries performed: 1
}

// A miniature statistical fault-injection study (the paper ran 2.9M
// experiments; this runs a few dozen), printed as the document `repro
// campaign` prints: the Fig-3-style outcome breakdown with 99 % intervals,
// the Table-4 necessary-condition ranges, the Sec-4.3.1 FF-class
// contribution and the detection rows — each only where the sample has a
// row to show — with each row's verdict on the number the paper states.
func Example_campaign() {
	w, err := repro.WorkloadByName("resnet")
	if err != nil {
		log.Fatal(err)
	}
	c := repro.RunCampaignConfig(repro.CampaignConfig{
		Workload: w, Experiments: 40, Seed: 2024, HorizonMult: 1.5,
	})
	if err := paper.WriteCampaign(os.Stdout, c); err != nil {
		log.Fatal(err)
	}
	// Output:
	// # Fault-injection campaign: resnet
	//
	// - experiments: 40 (seed 2024)
	// - fault-free reference accuracy: 0.975
	//
	// ## Outcomes
	//
	// | row | measured | n | seed | 99 % CI | paper | verdict |
	// |---|---|---|---|---|---|---|
	// | Benign | 39/40 (97.5 %) | 40 | 2024 | 81.8–99.7 % | 82.3–90.3 % masked | inconclusive |
	// | SlightDegradation | 1/40 (2.5 %) | 40 | 2024 | 0.3–18.2 % |  |  |
	// | unexpected | 0/40 (0.0 %) | 40 | 2024 | 0.0–14.2 % | 9.7–17.7 % | consistent |
	//
	// ## Sec 4.3.1 — FF-class contribution to unexpected outcomes
	//
	// | row | measured | n | seed | 99 % CI | paper | verdict |
	// |---|---|---|---|---|---|---|
	// | groups 1+3 + local control (9.8 % of FFs): share of unexpected | no trials | 0 | 2024 |  | 55.7–68.5 % |  |
	// | upper exponent bits (5.5 % of FFs): share of unexpected | no trials | 0 | 2024 |  | 31.9–44.3 % |  |
	//
	// ## Detection — bounds-check coverage and latency
	//
	// | row | measured | n | seed | 99 % CI | paper | verdict |
	// |---|---|---|---|---|---|---|
	// | latency p50 / p95 / max (iterations) | 0.0 / 0.0 / 0 | 3 | 2024 |  | ≤ 2 | consistent |
}

// The failure class from the paper's introduction: hardware faults that
// "could only be reproduced intermittently (e.g., when running the same
// workload 10 times on a faulty machine, the unexpected outcome was only
// observed 3 times)". A base fault is expanded into probabilistic
// manifestations over a window of iterations; the guarded trainer then
// detects and re-executes through every manifestation.
func Example_intermittent() {
	base := fault.Injection{
		Kind:      accel.GlobalG1,
		LayerIdx:  5,
		Pass:      repro.BackwardInput,
		Iteration: 15,
		N:         8,
		Seed:      rng.Seed{State: 11, Stream: 2},
	}
	// The fault manifests with probability 0.3 on each of 10 iterations —
	// the intro's 3-in-10 reproduction behavior.
	manifestations := expandIntermittent(base, 10, 0.3)
	fmt.Printf("intermittent fault: %d manifestations over iterations [%d, %d):\n",
		len(manifestations), base.Iteration, base.Iteration+10)
	for _, m := range manifestations {
		fmt.Printf("  - iteration %d\n", m.Iteration)
	}

	// Unguarded: the manifestations silently corrupt training.
	w, err := repro.WorkloadByName("resnet_nobn")
	if err != nil {
		log.Fatal(err)
	}
	unguarded := w.NewEngine(rng.Seed{State: 9, Stream: 77})
	unguarded.SetInjections(manifestations)
	faulty := train.NewTrace("unguarded")
	unguarded.Run(0, w.Iters, faulty, false)

	ref := w.NewEngine(rng.Seed{State: 9, Stream: 77})
	clean := train.NewTrace("ref")
	ref.Run(0, w.Iters, clean, false)

	fmt.Printf("\nunguarded final accuracy: %.3f (fault-free %.3f)\n",
		faulty.FinalTrainAcc(10), clean.FinalTrainAcc(10))

	// Guarded: every manifestation is detected and rolled back.
	g, _, err := repro.NewGuarded("resnet_nobn", 9)
	if err != nil {
		log.Fatal(err)
	}
	g.E.SetInjections(manifestations)
	g.MaxRecoveries = len(manifestations) + 2
	guardedTrace := train.NewTrace("guarded")
	if err := g.Run(0, w.Iters, guardedTrace); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("guarded: %d detections/recoveries\n", len(g.Events))
	for _, ev := range g.Events {
		fmt.Printf("  alarm at iteration %d (%s), re-executed from %d\n",
			ev.Iteration, ev.Alarm.Where, ev.ResumedFrom)
	}
	fmt.Printf("guarded final accuracy: %.3f\n", guardedTrace.FinalTrainAcc(10))
	// Output:
	// intermittent fault: 4 manifestations over iterations [15, 25):
	//   - iteration 15
	//   - iteration 19
	//   - iteration 23
	//   - iteration 24
	//
	// unguarded final accuracy: 0.637 (fault-free 1.000)
	// guarded: 4 detections/recoveries
	//   alarm at iteration 15 (hist-m:conv1/bias), re-executed from 14
	//   alarm at iteration 19 (hist-m:conv1/bias), re-executed from 18
	//   alarm at iteration 23 (hist-m:conv1/bias), re-executed from 22
	//   alarm at iteration 24 (hist-m:conv1/bias), re-executed from 23
	// guarded final accuracy: 1.000
}

// expandIntermittent re-arms base's fault on each of the repeat iterations
// from base.Iteration, independently with probability prob, each
// manifestation with its own derived value seed; the result is
// deterministic in (base.Seed, repeat, prob).
func expandIntermittent(base fault.Injection, repeat int, prob float64) []fault.Injection {
	r := rng.New(base.Seed).Split(0x1f7e)
	var out []fault.Injection
	for k := 0; k < repeat; k++ {
		if r.Float64() >= prob {
			continue
		}
		inj := base
		inj.Iteration = base.Iteration + k
		inj.Seed = rng.Seed{State: r.Uint64(), Stream: r.Uint64() >> 1}
		out = append(out, inj)
	}
	return out
}
