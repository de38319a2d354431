package experiment_test

// Golden by construction against its oracle: the executors. Everything the
// dispatcher's predicate holds for is also executed here, on a pooled engine
// as a campaign worker would, and the synthesized record must encode to the
// same journal line as the executed one. The negative table holds the
// predicate to false wherever a value, a group membership or the record's
// meaning could move — and wherever the campaign did not ask for EarlyExit.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/comm"
	"repro/internal/detect"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/opt"
	"repro/internal/record"
	"repro/internal/recovery"
	"repro/internal/telemetry"
	"repro/internal/train"
	"repro/internal/workloads"
)

// everyStrategy is unmitigated plus the four guarded strategies.
var everyStrategy = append([]recovery.Strategy{recovery.StrategyNone}, recovery.Strategies...)

func journalLine(t *testing.T, i int, rec experiment.Record) string {
	t.Helper()
	line, err := record.EncodeJournalLine(i, rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

// assertSameLine executes one experiment and compares it with the
// synthesized record got, adoption provenance aside (an adoptee's own
// execution does not know it was adopted).
func assertSameLine(t *testing.T, g *experiment.Golden, e *train.Engine, cfg experiment.Config,
	i int, inj fault.Injection, df fault.DeviceFault, got experiment.Record) {
	t.Helper()
	cfg.Dedup = false
	want := g.Execute(e, cfg, inj, df)
	want.AdoptedFrom = got.AdoptedFrom
	if w, c := journalLine(t, i, want), journalLine(t, i, got); w != c {
		t.Fatalf("experiment %d:\nexecuted:    %s\nconstructed: %s", i, w, c)
	}
}

// constructedCampaign runs cfg through Resume with every experiment the
// predicate does not hold for already journaled (a placeholder prior), so the
// call's pending set is exactly what is golden by construction. It checks
// that such a call touches no engine, compares every record it produced with
// execution, and returns the proven indexes.
func constructedCampaign(t *testing.T, g *experiment.Golden, e *train.Engine, cfg experiment.Config) []int {
	t.Helper()
	injs, dfs := g.SampleFaults(cfg)
	faultOf := func(i int) (inj fault.Injection, df fault.DeviceFault) {
		if cfg.DeviceFaults {
			return inj, dfs[i]
		}
		return injs[i], df
	}
	prior := map[int]experiment.Record{}
	var proven []int
	for i := 0; i < cfg.Experiments; i++ {
		inj, df := faultOf(i)
		if _, ok := g.ByConstruction(cfg, inj, df, comm.DefaultPolicy()); ok {
			proven = append(proven, i)
		} else {
			prior[i] = experiment.Record{Injection: inj, DeviceFault: df, AdoptedFrom: -1, EarlyExitIter: -1, ConvergedIter: -1}
		}
	}
	c, err := experiment.Resume(cfg, experiment.RunOptions{Golden: g, Prior: prior})
	if err != nil {
		t.Fatal(err)
	}
	if c.Completed != cfg.Experiments {
		t.Fatalf("completed %d of %d", c.Completed, cfg.Experiments)
	}
	adopted := 0
	for _, i := range proven {
		if c.Records[i].AdoptedFrom >= 0 {
			adopted++
		}
	}
	if c.GoldenByConstruction+adopted != len(proven) {
		t.Fatalf("GoldenByConstruction = %d (+%d adopted from those), predicate holds for %d", c.GoldenByConstruction, adopted, len(proven))
	}
	if c.IterationsExecuted != 0 || c.IterationsSkipped != 0 || c.IterationsSynthesized != 0 ||
		c.WarmRestores+c.ColdRestores != 0 || c.Evaluations != 0 {
		t.Fatalf("a call with nothing to execute reports %d executed / %d skipped / %d synthesized iterations, %d restores, %d evaluations",
			c.IterationsExecuted, c.IterationsSkipped, c.IterationsSynthesized, c.WarmRestores+c.ColdRestores, c.Evaluations)
	}
	for _, i := range proven {
		inj, df := faultOf(i)
		assertSameLine(t, g, e, cfg, i, inj, df, c.Records[i])
	}
	return proven
}

// TestGoldenByConstructionExact is the exactness proof; ci.sh runs it under
// -race. Horizons are 15 iterations (10 in the boundary variant), so the
// TestEvery = 10 boundary falls inside every run.
func TestGoldenByConstructionExact(t *testing.T) {
	const iters = 10
	fired, silent := 0, 0
	for _, w := range workloads.All() {
		w.Iters = iters
		t.Run("ff/"+w.Name, func(t *testing.T) {
			base := experiment.Config{Workload: w, Experiments: 24, Seed: 5, HorizonMult: 1.5, Workers: 2, EarlyExit: true}
			g := experiment.PrepareGolden(base)
			e := g.NewPooledEngine(base)
			variants := map[string]func(*experiment.Config){
				"stride 1": func(*experiment.Config) {},
				"stride 3": func(c *experiment.Config) { c.EarlyExitStride = 3 },
				"dedup":    func(c *experiment.Config) { c.Dedup = true },
			}
			var proven []int
			for name, set := range variants {
				cfg := base
				set(&cfg)
				proven = constructedCampaign(t, g, e, cfg)
				if len(proven) == 0 {
					t.Fatalf("%s: the population holds nothing golden by construction", name)
				}
			}

			// The executed loop's boundaries: with the injection window and
			// the horizon both the whole run, re-time what the predicate
			// holds for (a program is the same at every iteration) to the
			// last three iterations, where runOne records no t+1 or compares
			// no digest.
			edge := base
			edge.InjectFrac, edge.HorizonMult = 1.0, 1.0
			ge := experiment.PrepareGolden(edge)
			injs, _ := g.SampleFaults(base)
			var sawFired, sawSilent bool
			for _, i := range proven {
				if f := g.SiteFires(injs[i]); (f && sawFired) || (!f && sawSilent) {
					continue
				} else if f {
					sawFired = true
					fired++
				} else {
					sawSilent = true
					silent++
				}
				for _, at := range []int{0, iters - 3, iters - 2, iters - 1} {
					inj := injs[i]
					inj.Iteration = at
					got, ok := ge.ByConstruction(edge, inj, fault.DeviceFault{}, comm.DefaultPolicy())
					if !ok {
						t.Fatalf("injection %+v is golden by construction at its sampled iteration but not at %d", injs[i], at)
					}
					if wantExit := at+1 < iters-1; (got.EarlyExitIter >= 0) != wantExit {
						t.Fatalf("injection at %d of %d: EarlyExitIter = %d", at, iters, got.EarlyExitIter)
					}
					assertSameLine(t, ge, e, edge, i, inj, fault.DeviceFault{}, got)
				}
			}
		})

		t.Run("devfault/"+w.Name, func(t *testing.T) {
			base := experiment.Config{Workload: w, Experiments: 12, Seed: 5, HorizonMult: 1.5, DeviceFaults: true, Workers: 2, EarlyExit: true}
			g := experiment.PrepareGolden(base)
			if g.GroupAlarms() != 0 {
				t.Fatalf("the golden run alarms the cross-replica check %d times", g.GroupAlarms())
			}
			e := g.NewPooledEngine(base)
			for _, s := range everyStrategy {
				cfg := base
				cfg.Recovery = s
				if len(constructedCampaign(t, g, e, cfg)) == 0 {
					t.Fatalf("%s: the population holds no straggler", s)
				}
			}
		})
	}
	if fired == 0 || silent == 0 {
		t.Fatalf("the zoo's populations hold %d fired-and-empty and %d never-firing injections; both cases must be exercised", fired, silent)
	}

	// A golden run the static-bounds detector alarms on (momentum SGD at a
	// learning rate of 5 carries gradient history past the bound from
	// iteration 4 on, and stays finite): DetectIter is then the first golden
	// alarm at or after the injection, which the executed run reads off its
	// engine before an early exit and off the golden schedule after it.
	t.Run("ff/alarming-golden", func(t *testing.T) {
		w, err := workloads.ByName("resnet")
		if err != nil {
			t.Fatal(err)
		}
		w.Iters = iters
		w.NewOptimizer = func() opt.Optimizer { return opt.NewSGD(5, 0.9) }
		cfg := experiment.Config{Workload: w, Experiments: 24, Seed: 5, HorizonMult: 1.5, Workers: 2, EarlyExit: true}
		g := experiment.PrepareGolden(cfg)
		if n := g.DetectorAlarms(); !g.Finite() || n == 0 || n == g.Horizon() {
			t.Fatalf("golden run finite=%v with %d alarms in %d iterations; want a finite run that starts alarming midway", g.Finite(), n, g.Horizon())
		}
		e := g.NewPooledEngine(cfg)
		injs, _ := g.SampleFaults(cfg)
		later := false
		for _, i := range constructedCampaign(t, g, e, cfg) {
			for at := 0; at < 8; at++ {
				inj := injs[i]
				inj.Iteration = at
				got, ok := g.ByConstruction(cfg, inj, fault.DeviceFault{}, comm.DefaultPolicy())
				if !ok || got.DetectIter < at {
					t.Fatalf("injection at %d: golden by construction %v, DetectIter %d", at, ok, got.DetectIter)
				}
				later = later || got.DetectIter > at
				assertSameLine(t, g, e, cfg, i, inj, fault.DeviceFault{}, got)
			}
		}
		if !later {
			t.Fatal("no injection precedes the first golden alarm")
		}
	})

	// Stragglers across the retry budget's steps (100, 250, 450, 700 ticks),
	// at the run's first iterations and with a repair, under every strategy.
	t.Run("devfault/budget", func(t *testing.T) {
		w, err := workloads.ByName("transformer")
		if err != nil {
			t.Fatal(err)
		}
		w.Iters = iters
		base := experiment.Config{Workload: w, Seed: 5, HorizonMult: 1.5, DeviceFaults: true, EarlyExit: true}
		g := experiment.PrepareGolden(base)
		e := g.NewPooledEngine(base)
		for _, s := range everyStrategy {
			cfg := base
			cfg.Recovery = s
			for i, df := range []fault.DeviceFault{
				{Kind: fault.DeviceStraggler, Device: 0, Iteration: 0, DelayTicks: 1},
				{Kind: fault.DeviceStraggler, Device: 3, Iteration: 1, DelayTicks: 100},
				{Kind: fault.DeviceStraggler, Device: 7, Iteration: 4, DelayTicks: 101},
				{Kind: fault.DeviceStraggler, Device: 2, Iteration: 7, DelayTicks: 451},
				{Kind: fault.DeviceStraggler, Device: 1, Iteration: 2, DelayTicks: 700, RepairIter: 6},
			} {
				got, ok := g.ByConstruction(cfg, fault.Injection{}, df, comm.DefaultPolicy())
				if !ok {
					t.Fatalf("%s under %s arrives within the budget but is not golden by construction", df.Describe(), s)
				}
				assertSameLine(t, g, e, cfg, i, fault.Injection{}, df, got)
			}
		}
	})
}

// TestGoldenByConstructionMustExecute is the negative table: none of these
// may be classified without running.
func TestGoldenByConstructionMustExecute(t *testing.T) {
	w, err := workloads.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 10
	dfCfg := experiment.Config{Workload: w, Experiments: 12, Seed: 5, HorizonMult: 1.5, DeviceFaults: true,
		Recovery: recovery.StrategyJIT, Workers: 2, EarlyExit: true}
	g := experiment.PrepareGolden(dfCfg)
	straggler := fault.DeviceFault{Kind: fault.DeviceStraggler, Device: 1, Iteration: 3, DelayTicks: 300}
	if _, ok := g.ByConstruction(dfCfg, fault.Injection{}, straggler, comm.DefaultPolicy()); !ok {
		t.Fatal("the table's base straggler is not golden by construction; the rows below prove nothing")
	}
	past := straggler
	past.DelayTicks = 701
	tight := comm.Policy{TimeoutTicks: 100, MaxRetries: 1, BackoffTicks: 50} // budget 250 < 300
	for name, tc := range map[string]struct {
		df fault.DeviceFault
		p  comm.Policy
	}{
		"straggler past the budget":   {past, comm.DefaultPolicy()},
		"straggler, tightened policy": {straggler, tight},
		"crash":                       {fault.DeviceFault{Kind: fault.DeviceCrash, Device: 1, Iteration: 3}, comm.DefaultPolicy()},
		"crash that repairs":          {fault.DeviceFault{Kind: fault.DeviceCrash, Device: 1, Iteration: 3, RepairIter: 5}, comm.DefaultPolicy()},
		"link SDC":                    {fault.DeviceFault{Kind: fault.DeviceLinkSDC, Device: 1, Iteration: 3, BitPos: 3, Flips: 1}, comm.DefaultPolicy()},
		"stuck-at":                    {fault.DeviceFault{Kind: fault.DeviceStuckAt, Device: 1, Iteration: 3, BitPos: 3}, comm.DefaultPolicy()},
		"straggler past the horizon":  {fault.DeviceFault{Kind: fault.DeviceStraggler, Device: 1, Iteration: g.Horizon(), DelayTicks: 1}, comm.DefaultPolicy()},
	} {
		for _, s := range everyStrategy {
			cfg := dfCfg
			cfg.Recovery = s
			if _, ok := g.ByConstruction(cfg, fault.Injection{}, tc.df, tc.p); ok {
				t.Errorf("%s under %s: classified without running", name, s)
			}
		}
	}

	// The exhaustive campaign is the oracle: without EarlyExit everything
	// executes, under every strategy, and the records are the same.
	want := experiment.RunWithGolden(dfCfg, g)
	if want.GoldenByConstruction == 0 {
		t.Fatal("the reference campaign holds no straggler")
	}
	exhaustive := dfCfg
	exhaustive.EarlyExit = false
	if _, ok := g.ByConstruction(exhaustive, fault.Injection{}, straggler, comm.DefaultPolicy()); ok {
		t.Error("a straggler of a campaign without EarlyExit was classified without running")
	}
	all := experiment.RunWithGolden(exhaustive, g)
	if all.GoldenByConstruction != 0 || all.IterationsExecuted <= want.IterationsExecuted {
		t.Errorf("exhaustive device-fault campaign: %d classified without running, %d iterations executed against %d under EarlyExit",
			all.GoldenByConstruction, all.IterationsExecuted, want.IterationsExecuted)
	}
	for i := range want.Records {
		if journalLine(t, i, want.Records[i]) != journalLine(t, i, all.Records[i]) {
			t.Errorf("record %d differs between the exhaustive campaign and the EarlyExit one", i)
		}
	}

	// A Golden without the cross-replica schedule, and one whose golden run
	// alarms (thresholds lowered until every collective does): a guarded run
	// would quarantine, so every guarded experiment executes — the whole
	// campaign, records unchanged. Unguarded runs check nothing and still
	// need neither.
	alarming := experiment.PrepareGoldenWithCheck(dfCfg, &detect.GroupCheck{})
	if alarming.GroupAlarms() == 0 {
		t.Fatal("zero thresholds did not alarm the golden run")
	}
	for name, bad := range map[string]*experiment.Golden{"no schedule": g.WithoutGroupSchedule(), "golden alarm": alarming} {
		c := experiment.RunWithGolden(dfCfg, bad)
		if c.GoldenByConstruction != 0 {
			t.Errorf("%s: %d guarded experiments classified without running", name, c.GoldenByConstruction)
		}
		for i := range want.Records {
			if journalLine(t, i, want.Records[i]) != journalLine(t, i, c.Records[i]) {
				t.Errorf("%s: record %d differs from the campaign on the sound Golden", name, i)
			}
		}
		unguarded := dfCfg
		unguarded.Recovery = recovery.StrategyNone
		if _, ok := bad.ByConstruction(unguarded, fault.Injection{}, straggler, comm.DefaultPolicy()); !ok {
			t.Errorf("%s: an unguarded straggler runs no cross-replica check, yet executes", name)
		}
	}

	// FF side: a program that writes, a ConvergedTail campaign, a non-finite
	// golden run.
	r, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	r.Iters = 10
	ffCfg := experiment.Config{Workload: r, Experiments: 24, Seed: 9, HorizonMult: 1.5, Workers: 2, EarlyExit: true}
	gf := experiment.PrepareGolden(ffCfg)
	injs, _ := gf.SampleFaults(ffCfg)
	var inert *fault.Injection
	for i := range injs {
		if _, ok := gf.ByConstruction(ffCfg, injs[i], fault.DeviceFault{}, comm.DefaultPolicy()); ok {
			inert = &injs[i]
			break
		}
	}
	if inert == nil {
		t.Fatal("the FF population holds nothing golden by construction")
	}
	writes := fault.Injection{Kind: accel.GlobalG2, LayerIdx: 0, Pass: fault.Forward, Iteration: 3, N: 4, CycleFrac: 0.1}
	if _, ok := gf.ByConstruction(ffCfg, writes, fault.DeviceFault{}, comm.DefaultPolicy()); ok {
		t.Error("an injection with a non-empty program was classified without running")
	}
	late := *inert
	late.Iteration = gf.Horizon()
	if _, ok := gf.ByConstruction(ffCfg, late, fault.DeviceFault{}, comm.DefaultPolicy()); ok {
		t.Error("an injection past the horizon was classified without running")
	}
	plain := ffCfg
	plain.EarlyExit = false
	if _, ok := gf.ByConstruction(plain, *inert, fault.DeviceFault{}, comm.DefaultPolicy()); ok {
		t.Error("an injection of a campaign without EarlyExit was classified without running")
	}
	if c := experiment.RunWithGolden(plain, gf); c.GoldenByConstruction != 0 {
		t.Errorf("exhaustive FF campaign: %d experiments classified without running", c.GoldenByConstruction)
	}
	conv := ffCfg
	conv.ConvergedTail = true
	if _, ok := gf.ByConstruction(conv, *inert, fault.DeviceFault{}, comm.DefaultPolicy()); ok {
		t.Error("a ConvergedTail experiment was classified without running")
	}
	if c := experiment.RunWithGolden(conv, gf); c.GoldenByConstruction != 0 {
		t.Errorf("ConvergedTail campaign: %d experiments classified without running", c.GoldenByConstruction)
	}

	hot, err := workloads.ByName("resnet_nobn")
	if err != nil {
		t.Fatal(err)
	}
	hot.Iters, hot.LR = 10, 1e30
	hot.NewOptimizer = func() opt.Optimizer { return opt.NewSGD(1e30, 0) }
	nfCfg := experiment.Config{Workload: hot, Experiments: 24, Seed: 9, HorizonMult: 1.5, Workers: 2, EarlyExit: true}
	gn := experiment.PrepareGolden(nfCfg)
	if gn.Finite() {
		t.Fatal("a learning rate of 1e30 left the golden run finite; the row proves nothing")
	}
	if c := experiment.RunWithGolden(nfCfg, gn); c.GoldenByConstruction != 0 {
		t.Errorf("non-finite golden: %d experiments classified without running", c.GoldenByConstruction)
	}
}

// TestGoldenByConstructionIsReported: the runtime-only counter reaches the
// report (after the tally, on the equivalence line) and the live ledger, whose
// early-exit count agrees with the record-derived one; a campaign resumed from
// its own complete record set proves nothing again and tallies the same.
func TestGoldenByConstructionIsReported(t *testing.T) {
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 10
	cfg := experiment.Config{Workload: w, Experiments: 24, Seed: 5, HorizonMult: 1.5, Workers: 2, EarlyExit: true}
	g := experiment.PrepareGolden(cfg)
	stats := telemetry.NewCampaignStats(w.Name, cfg.Experiments, cfg.Workers)
	first, err := experiment.Resume(cfg, experiment.RunOptions{Golden: g, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if first.GoldenByConstruction == 0 {
		t.Fatal("nothing golden by construction")
	}
	var report strings.Builder
	first.Report(&report)
	tally := strings.Index(report.String(), "unexpected-total")
	line := strings.Index(report.String(), fmt.Sprintf(", %d golden by construction\n", first.GoldenByConstruction))
	if tally < 0 || line < tally {
		t.Fatalf("report does not carry the count after the tally:\n%s", report.String())
	}
	snap := stats.Snapshot()
	if snap.GoldenByConstruction != int64(first.GoldenByConstruction) || snap.EarlyExits != int64(first.EarlyExits) ||
		snap.Done != cfg.Experiments || snap.ItersExecuted != first.IterationsExecuted {
		t.Fatalf("ledger %+v disagrees with the campaign: %d golden by construction, %d early exits, %d iterations executed",
			snap, first.GoldenByConstruction, first.EarlyExits, first.IterationsExecuted)
	}

	prior := map[int]experiment.Record{}
	for i, rec := range first.Records {
		prior[i] = rec
	}
	again, err := experiment.Resume(cfg, experiment.RunOptions{Golden: g, Prior: prior})
	if err != nil {
		t.Fatal(err)
	}
	if again.GoldenByConstruction != 0 || again.Tally != first.Tally || again.EarlyExits != first.EarlyExits {
		t.Fatalf("resume of a complete campaign: %d golden by construction, %d early exits, tally %+v; first run %d early exits, tally %+v",
			again.GoldenByConstruction, again.EarlyExits, again.Tally, first.EarlyExits, first.Tally)
	}
}
