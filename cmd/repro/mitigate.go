package main

import (
	"context"
	"fmt"
	"io"

	"repro"
	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/train"
)

// runMitigate is `repro mitigate`: it demonstrates the Sec-5 mitigation
// stack end to end — bounds checking detects an injected fault and a
// two-iteration re-execution recovers from it; the counterpart of the
// artifact's detection.py / replay.py. The stack's overheads are timed by
// BenchmarkSec53_DetectionOverhead and BenchmarkSec53_RecoveryOverhead.
//
//	repro mitigate -workload resnet -iters 60
func runMitigate(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flagSet("mitigate", stderr)
	var (
		workload = fs.String("workload", "resnet", "workload to guard")
		iters    = fs.Int("iters", 60, "iterations of the guarded run")
		seed     = fs.Int64("seed", 1, "seed")
	)
	if err := fs.Parse(args); err != nil {
		return usage(err)
	}

	g, w, err := repro.NewGuarded(*workload, *seed)
	if err != nil {
		return fail(stderr, "mitigate", err)
	}
	g.E.SetInjection(&fault.Injection{
		Kind: accel.GlobalG1, LayerIdx: 0, Pass: fault.BackwardWeight,
		Iteration: *iters / 3, CycleFrac: 0, N: 8,
		Seed: rng.Seed{State: 21, Stream: 4},
	})
	trace := train.NewTrace(w.Name + "-guarded")
	if err := g.Run(0, *iters, trace); err != nil {
		return fail(stderr, "mitigate", fmt.Errorf("guarded run failed: %w", err))
	}
	fmt.Fprintf(stdout, "end-to-end: injected %v fault at iteration %d\n", accel.GlobalG1, *iters/3)
	if len(g.Events) == 0 {
		fmt.Fprintln(stdout, "  fault was masked or benign; no detection needed")
	}
	for _, ev := range g.Events {
		fmt.Fprintf(stdout, "  detected at iteration %d (%s); re-executed from iteration %d\n",
			ev.Iteration, ev.Alarm.Where, ev.ResumedFrom)
	}
	fmt.Fprintf(stdout, "  final training accuracy: %.3f\n", trace.FinalTrainAcc(10))
	return 0
}
