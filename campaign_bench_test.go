// Campaign-level benchmarks: forked execution (the golden-prefix snapshot
// cache) and the campaign equivalence layer (injection dedup + masked early
// termination) against the cold-start campaign that replays the full prefix
// for every experiment ("exhaustive" execution).
//
// Run with:
//
//	go test -bench 'Campaign' -benchmem -run '^$' .
//
// All modes produce byte-identical Records/Tally
// (TestForkedCampaignEquivalence and TestEquivalenceFastPathsExact in
// internal/experiment), so the ns/op ratios are pure wall-clock win.
// Forking skips every experiment's golden prefix; the equivalence layer
// then terminates bitwise-masked experiments right after their injection
// and adopts duplicate-corruption records without executing. For speed
// claims use the repo's benchmark, bash bench/run.sh.
package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/recovery"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// benchCampaignConfig is the shared campaign shape: the paper's default
// injection window (first 80% of the fault-free run) and `repro campaign`'s
// default horizon (1.5×). The 48-experiment seed-10 population carries
// both duplicate corruptions and a bitwise-masked share (~46%) in line
// with the paper's masked-majority outcome distribution (Fig. 3) — seed 9
// at this size is an outlier on the pessimistic side (~37%). Every leg
// below runs this same population, so the ratios are apples-to-apples.
func benchCampaignConfig(b *testing.B) experiment.Config {
	w, err := workloads.ByName("resnet")
	if err != nil {
		b.Fatal(err)
	}
	w.Iters = 30 // laptop-scale; the skip ratio only depends on the fractions
	return experiment.Config{
		Workload:    w,
		Experiments: 48,
		Seed:        10,
		HorizonMult: 1.5,
		InjectFrac:  0.8,
	}
}

func BenchmarkCampaignCold(b *testing.B) {
	cfg := benchCampaignConfig(b)
	cfg.SnapshotStride = -1 // replay every prefix from iteration 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiment.Run(cfg)
	}
}

func BenchmarkCampaignForked(b *testing.B) {
	cfg := benchCampaignConfig(b) // default: auto stride
	b.ReportAllocs()
	b.ResetTimer()
	var c *experiment.Campaign
	for i := 0; i < b.N; i++ {
		c = experiment.Run(cfg)
	}
	b.ReportMetric(float64(c.WarmRestores), "warm-restores")
	b.ReportMetric(float64(c.ColdRestores), "cold-restores")
}

// BenchmarkCampaignForkedTelemetry is BenchmarkCampaignForked with a live
// CampaignStats ledger attached. The ledger takes one lock per landed
// record, never one per iteration; BenchmarkCampaignStatsLand in
// internal/telemetry measures that lock alone.
func BenchmarkCampaignForkedTelemetry(b *testing.B) {
	cfg := benchCampaignConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := telemetry.NewCampaignStats(cfg.Workload.Name, cfg.Experiments, 0)
		_, _ = experiment.Resume(cfg, experiment.RunOptions{Stats: stats})
	}
}

// BenchmarkCampaignDedupEarlyExit adds the campaign equivalence layer
// (injection dedup + masked early termination, internal/experiment
// dedup.go / earlyexit.go) on top of forked execution. Both
// fast-paths are exact — records and Tally match exhaustive execution
// byte for byte modulo provenance fields (TestEquivalenceFastPathsExact)
// — so the ratio against BenchmarkCampaignForked is again pure wall-clock
// win. The dedup-hits / early-exits / synth-iters metrics report how much
// of the population the equivalence layer resolved without execution.
func BenchmarkCampaignDedupEarlyExit(b *testing.B) {
	cfg := benchCampaignConfig(b)
	cfg.Dedup = true
	cfg.EarlyExit = true
	b.ReportAllocs()
	b.ResetTimer()
	var c *experiment.Campaign
	for i := 0; i < b.N; i++ {
		c = experiment.Run(cfg)
	}
	b.ReportMetric(float64(c.ExperimentsAdopted), "dedup-hits")
	b.ReportMetric(float64(c.EarlyExits), "early-exits")
	b.ReportMetric(float64(c.IterationsSynthesized), "synth-iters")
}

// BenchmarkPrepareGolden times the fault-free reference run every campaign
// starts with: resnet FF, and transformer with device faults (whose golden
// run also records the cross-replica check's verdicts), each at one and two
// workers. The golden run steps its devices on min(Workers, GOMAXPROCS,
// Devices) lanes, so at -cpu 1 both worker counts run one lane; the Golden
// is the same bits at every count (TestPrepareGoldenLaneInvariant in
// internal/experiment).
//
//	go test -run '^$' -bench PrepareGolden .
func BenchmarkPrepareGolden(b *testing.B) {
	for _, leg := range []struct {
		model        string
		deviceFaults bool
	}{{"resnet", false}, {"transformer", true}} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", leg.model, workers), func(b *testing.B) {
				w, err := workloads.ByName(leg.model)
				if err != nil {
					b.Fatal(err)
				}
				cfg := experiment.Config{Workload: w, Experiments: 64, Seed: 11, Workers: workers,
					HorizonMult: 1.5, DeviceFaults: leg.deviceFaults}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = experiment.PrepareGolden(cfg)
				}
			})
		}
	}
}

// BenchmarkCampaignInertShare regenerates EXPERIMENTS.md's "Golden by
// construction" share tables: for each pinned population of the repository
// benchmark's ff-resnet and devfault-transformer-jit workloads (the campaign
// seeds of bench/seeds.go, copied here because bench/ is its own module; 64
// experiments, horizon 1.5×), how many experiments an EarlyExit campaign
// proves golden before anything runs, and what share of the exhaustive
// campaign's iterations they are: for every proven experiment, the iterations
// from its fork boundary to the horizon — it runs to the end, being the golden
// run. The proven experiments are recognised from the exhaustive campaign's
// records alone (an FF record with no injected element; a straggler, all of
// which the default policy's 700-tick budget admits) and the count is checked
// against what the EarlyExit campaign reports. In a device-fault campaign
// nothing else shortens a run, so there the executed count is checked too.
//
//	go test -run '^$' -bench CampaignInertShare -benchtime 1x .
func BenchmarkCampaignInertShare(b *testing.B) {
	tables := []struct {
		workload, model string
		seeds           []int64
		configure       func(*experiment.Config)
	}{
		{"ff-resnet (and dist-resnet)", "resnet", []int64{11, 28, 39, 50, 63, 86, 91, 94, 102, 108}, nil},
		{"devfault-transformer-jit", "transformer", []int64{3, 14, 15, 18, 28, 36, 37, 48, 58, 59},
			func(c *experiment.Config) { c.DeviceFaults, c.Recovery = true, recovery.StrategyJIT }},
	}
	for i := 0; i < b.N; i++ {
		for _, tb := range tables {
			var out strings.Builder
			fmt.Fprintf(&out, "\n%s\n| campaign seed | proven golden (of 64) | iterations executed, exhaustive | without the proven | share of iterations |\n|---|---|---|---|---|\n", tb.workload)
			var shareSum float64
			for _, seed := range tb.seeds {
				w, err := workloads.ByName(tb.model)
				if err != nil {
					b.Fatal(err)
				}
				cfg := experiment.Config{Workload: w, Experiments: 64, Seed: seed, Workers: 2, HorizonMult: 1.5}
				if tb.configure != nil {
					tb.configure(&cfg)
				}
				g := experiment.PrepareGolden(cfg)
				c := experiment.RunWithGolden(cfg, g)
				horizon := int(float64(w.Iters) * cfg.HorizonMult)
				proven, saved := 0, int64(0)
				for _, rec := range c.Records {
					at := rec.Injection.Iteration
					if cfg.DeviceFaults {
						if rec.DeviceFault.Kind != fault.DeviceStraggler {
							continue
						}
						at = max(rec.DeviceFault.Iteration-1, 0) // forked strictly before the onset
					} else if rec.InjectedElems != 0 {
						continue
					}
					proven++
					fork := 0
					if c.Stride > 0 {
						fork = at / c.Stride * c.Stride
					}
					saved += int64(horizon - fork)
				}
				cfg.EarlyExit = true
				fast := experiment.RunWithGolden(cfg, g)
				if c.GoldenByConstruction != 0 || proven != fast.GoldenByConstruction {
					b.Fatalf("%s seed %d: %d records look golden by construction; the exhaustive campaign proved %d, the EarlyExit one %d",
						tb.workload, seed, proven, c.GoldenByConstruction, fast.GoldenByConstruction)
				}
				after := c.IterationsExecuted - saved
				if cfg.DeviceFaults && fast.IterationsExecuted != after {
					b.Fatalf("%s seed %d: the EarlyExit campaign executed %d iterations, want %d", tb.workload, seed, fast.IterationsExecuted, after)
				}
				share := 100 * float64(saved) / float64(c.IterationsExecuted)
				shareSum += share
				fmt.Fprintf(&out, "| %d | %d | %d | %d | %.1f %% |\n", seed, proven, c.IterationsExecuted, after, share)
			}
			fmt.Fprintf(&out, "| mean | | | | %.1f %% |\n", shareSum/float64(len(tb.seeds)))
			fmt.Print(out.String()) // b.Log truncates a table
		}
	}
}
