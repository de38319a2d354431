package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/outcome"
	"repro/internal/record"
	"repro/internal/rng"
	"repro/internal/train"
)

// runFaultsim is `repro faultsim`: it runs a single fault-injection
// experiment against one of the Table-2 workloads and prints the
// convergence trend of the faulty run next to the fault-free reference —
// the counterpart of the paper artifact's reproduce_injections.py.
//
//	repro faultsim -workload resnet -kind g1 -layer 1 -pass forward -iter 30
//	repro faultsim -workload resnet -random -seed 7
func runFaultsim(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flagSet("faultsim", stderr)
	var (
		workload = fs.String("workload", "resnet", "workload name (see repro ffstats -workloads)")
		kind     = fs.String("kind", "g1", "FF kind: datapath, upper-exp, local, g1..g10")
		layer    = fs.Int("layer", 0, "target layer index")
		passName = fs.String("pass", "forward", "forward | backward-input | backward-weight")
		iter     = fs.Int("iter", 20, "iteration to inject at")
		n        = fs.Int("n", 1, "fault duration in cycles")
		seed     = fs.Int64("seed", 1, "experiment seed")
		random   = fs.Bool("random", false, "sample a random injection instead of the flags above")
		every    = fs.Int("every", 10, "print the trace every N iterations")
		outTrace = fs.String("out", "", "write the faulty trace to this file (.json or artifact-style .txt)")
		injFile  = fs.String("inj", "", "load the injection from this JSON file instead of flags")
	)
	if err := fs.Parse(args); err != nil {
		return usage(err)
	}

	var inj repro.Injection
	if *injFile != "" {
		f, err := os.Open(*injFile)
		if err != nil {
			return fail(stderr, "faultsim", err)
		}
		inj, err = record.ReadInjectionJSON(f)
		f.Close()
		if err != nil {
			return fail(stderr, "faultsim", err)
		}
	} else if *random {
		var err error
		if inj, err = repro.RandomInjection(*workload, *seed); err != nil {
			return fail(stderr, "faultsim", err)
		}
	} else {
		k, err := record.KindFromName(strings.ToLower(*kind))
		if err != nil {
			return fail(stderr, "faultsim", err)
		}
		p, err := record.PassFromName(strings.ToLower(*passName))
		if err != nil {
			return fail(stderr, "faultsim", err)
		}
		inj = repro.Injection{
			Kind: k, LayerIdx: *layer, Pass: p, Iteration: *iter,
			CycleFrac: 0.3, N: *n, Unit: 2, DeltaFrac: 0.5, BitPos: 30,
			Seed: rng.Seed{State: uint64(*seed) * 2654435761, Stream: uint64(*seed)},
		}
	}
	fmt.Fprintf(stdout, "injection: %v @ layer %d, %v, iteration %d (n=%d)\n",
		inj.Kind, inj.LayerIdx, inj.Pass, inj.Iteration, inj.N)

	faulty, ref, err := repro.SingleInjection(*workload, inj, *seed)
	if err != nil {
		return fail(stderr, "faultsim", err)
	}

	fmt.Fprintf(stdout, "\n%-6s  %-22s  %-22s\n", "iter", "faulty (loss / acc)", "fault-free (loss / acc)")
	for i := 0; i < len(ref.TrainLoss); i += *every {
		f := "   (terminated)"
		if i < len(faulty.TrainLoss) {
			f = fmt.Sprintf("%8.4f / %5.3f", faulty.TrainLoss[i], faulty.TrainAcc[i])
		}
		fmt.Fprintf(stdout, "%-6d  %-22s  %8.4f / %5.3f\n", i, f, ref.TrainLoss[i], ref.TrainAcc[i])
	}
	if faulty.NonFiniteIter >= 0 {
		fmt.Fprintf(stdout, "\nINF/NaN error at iteration %d (%s)\n", faulty.NonFiniteIter, faulty.NonFiniteAt)
	}
	cls := outcome.NewClassifier(ref)
	fmt.Fprintf(stdout, "outcome: %v\n", cls.Classify(faulty, inj.Pass))
	fmt.Fprintf(stdout, "final train acc: faulty %.3f vs fault-free %.3f\n",
		faulty.FinalTrainAcc(10), ref.FinalTrainAcc(10))
	if ta := faulty.FinalTestAcc(); ta >= 0 {
		fmt.Fprintf(stdout, "final test acc:  faulty %.3f vs fault-free %.3f\n", ta, ref.FinalTestAcc())
	}

	if *outTrace != "" {
		err := writeFile(*outTrace, func(w io.Writer) error {
			if strings.HasSuffix(*outTrace, ".json") {
				return record.WriteTraceJSON(w, faulty)
			}
			return record.WriteTraceText(w, faulty)
		})
		if err != nil {
			return fail(stderr, "faultsim", err)
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *outTrace)
	}
	return 0
}

// runOutcomeSearch is `repro outcomesearch`: it sweeps the injection
// parameter space of one workload (FF kind × layer × iteration × pass ×
// value seed) and reports every experiment that produced a latent or
// short-term unexpected outcome. It is the tool used to pin the
// reproducible Fig-2 injections in bench_test.go and Example_slowdegrade.
//
//	repro outcomesearch -workload resnet_nobn -seeds 6
//	repro outcomesearch -workload resnet_sgd -kinds g1,g3 -passes forward
func runOutcomeSearch(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flagSet("outcomesearch", stderr)
	var (
		workload = fs.String("workload", "resnet", "workload to sweep")
		kindsArg = fs.String("kinds", "g1,g3,local,upper-exp", "comma-separated FF kinds")
		passArg  = fs.String("passes", "forward,backward-input,backward-weight", "comma-separated passes")
		seeds    = fs.Int("seeds", 4, "value seeds per configuration")
		n        = fs.Int("n", 8, "fault duration in cycles")
		verbose  = fs.Bool("v", false, "also print benign results")
	)
	if err := fs.Parse(args); err != nil {
		return usage(err)
	}

	w, err := repro.WorkloadByName(*workload)
	if err != nil {
		return fail(stderr, "outcomesearch", err)
	}
	kinds, err := parseNames(*kindsArg, record.KindFromName)
	if err != nil {
		return fail(stderr, "outcomesearch", err)
	}
	passes, err := parseNames(*passArg, record.PassFromName)
	if err != nil {
		return fail(stderr, "outcomesearch", err)
	}

	engineSeed := rng.Seed{State: 9, Stream: 77}
	refEngine := w.NewEngine(engineSeed)
	layers := refEngine.Replica(0).Len()
	ref := train.NewTrace(w.Name + "-ref")
	refEngine.Run(0, w.Iters, ref, false)
	cls := outcome.NewClassifier(ref)
	fmt.Fprintf(stdout, "workload %s: %d layers, %d fault-free iterations, reference acc %.3f\n",
		w.Name, layers, w.Iters, ref.FinalTrainAcc(10))

	counts := map[outcome.Outcome]int{}
	iterPoints := []int{w.Iters / 8, w.Iters / 3, 2 * w.Iters / 3}
	for _, kind := range kinds {
		for layer := 0; layer < layers; layer++ {
			for _, iter := range iterPoints {
				for _, pass := range passes {
					for seed := uint64(1); seed <= uint64(*seeds); seed++ {
						e := w.NewEngine(engineSeed)
						inj := repro.Injection{
							Kind: kind, LayerIdx: layer, Pass: pass,
							Iteration: iter, CycleFrac: 0, N: *n, Unit: 2,
							Seed: rng.Seed{State: seed, Stream: seed * 3},
						}
						e.SetInjection(&inj)
						faulty := train.NewTrace(w.Name)
						e.Run(0, w.Iters, faulty, true)
						o := cls.Classify(faulty, inj.Pass)
						counts[o]++
						if *verbose || o.IsUnexpected() {
							fmt.Fprintf(stdout, "%-18v kind=%-10v layer=%d iter=%-3d pass=%-20v seed={State:%d,Stream:%d} acc=%.3f nan=%d\n",
								o, kind, layer, iter, pass, inj.Seed.State, inj.Seed.Stream,
								faulty.FinalTrainAcc(10), faulty.NonFiniteIter)
						}
					}
				}
			}
		}
	}
	fmt.Fprintln(stdout, "\ntotals:")
	for _, o := range outcome.All() {
		if counts[o] > 0 {
			fmt.Fprintf(stdout, "  %-18v %d\n", o, counts[o])
		}
	}
	return 0
}

// parseNames resolves a comma-separated list of FF kind or pass names
// through the journal's own resolver (record.KindFromName /
// record.PassFromName), ignoring case and surrounding space.
func parseNames[T any](list string, resolve func(string) (T, error)) ([]T, error) {
	var out []T
	for _, name := range strings.Split(list, ",") {
		v, err := resolve(strings.ToLower(strings.TrimSpace(name)))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
