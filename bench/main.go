// Command bench is the repository's benchmark: classified fault-injection
// experiments per second on four pinned campaigns, measured from outside
// the program through its public functions, with every run's outputs
// checked against a reference pass. README.md describes the workloads, the
// metrics and the noise the bounds were sized to.
//
// Usage (from this directory, or through run.sh from the repository root):
//
//	go run . -workload ff-resnet [-seed N] [-seconds S]
//	go run . -workload dist-resnet -trace 1 -trace-out spans.json
//	go run . -agree 5
//	go run . -describe > ../BENCHMARK.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measuring time the
// pass counts are derived from.
const defaultSeconds = 14

// boolValue is a boolean flag that takes its value as a separate argument
// ("-trace 1"), which is how the benchmark driver passes it; the standard
// boolean flag would stop parsing at the "1".
type boolValue bool

func (b *boolValue) String() string { return strconv.FormatBool(bool(*b)) }

func (b *boolValue) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolValue(v)
	return err
}

func main() {
	var trace boolValue
	var (
		workload = flag.String("workload", "", "workload to run: ff-resnet, ff-resnet-fastpath, devfault-transformer-jit or dist-resnet")
		seed     = flag.Int64("seed", 1, "benchmark seed: selects one of the workload's matched campaign populations")
		seconds  = flag.Int("seconds", defaultSeconds, "measuring time the timed pass count is derived from (pass counts, not a stopwatch, fix the work)")
		passes   = flag.Int("passes", 0, "timed passes (0 = derive from -seconds)")
		n        = flag.Int("n", defaultPopulation, "experiments per campaign")
		iters    = flag.Int("iters", 0, "override the model's fault-free training length (0 = default)")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON")
		agree    = flag.Int("agree", 0, "run two interleaved sets of this many runs of every workload and compare them against the bounds")
		desc     = flag.Bool("describe", false, "print BENCHMARK.json, generated from the metric registry, and exit")
		scan     = flag.String("scan-seeds", "", "print the executed training iterations of -workload's campaign for each campaign seed in lo:hi and exit (how the matched seed tables were made)")
	)
	flag.Var(&trace, "trace", "1: run half the passes behind span recorders, run the layer probes and report the per-layer metrics instead of the end-to-end ones")
	flag.Parse()

	if *desc {
		exitOn(describe(os.Stdout))
		return
	}
	// The load is two campaign workers; on one CPU they would time-share
	// and every number would silently mean something else.
	if runtime.NumCPU() < campaignWorkers {
		exitOn(fmt.Errorf("need at least %d CPUs, have %d", campaignWorkers, runtime.NumCPU()))
	}
	if *agree > 0 {
		exitOn(runAgree(*agree, *seconds, os.Stdout))
		return
	}
	def, err := workloadByName(*workload)
	exitOn(err)
	if *scan != "" {
		exitOn(scanSeeds(def, *scan, *n, os.Stdout))
		return
	}
	if *n < 1 || *seconds < 1 || *passes < 0 || *iters < 0 {
		exitOn(fmt.Errorf("-n and -seconds must be positive, -passes and -iters non-negative"))
	}
	p := params{def: def, seed: *seed, population: *n, iters: *iters,
		passes: *passes, trace: bool(trace), traceOut: *traceOut}
	if p.passes == 0 {
		p.passes = def.passes(*seconds)
	}
	if p.trace && p.passes < 2 {
		p.passes = 2 // one bare pass and one traced
	}

	printHostFacts(os.Stdout)
	fmt.Printf("run: workload=%s seed=%d campaign_seed=%d population=%d timed_passes=%d setup_reps=%d trace=%t\n",
		def.name, p.seed, def.campaignSeed(p.seed), p.population, p.passes, def.setupReps(), p.trace)
	failed, err := runWorkload(p, os.Stdout)
	exitOn(err)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d experiments failed the output check\n", failed)
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
