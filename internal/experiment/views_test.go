package experiment_test

// The campaign aggregates live in internal/paper, which imports this
// package; these tests hold its rows to the campaigns this package runs.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/paper"
	"repro/internal/recovery"
	"repro/internal/workloads"
)

// row returns the row labelled label, failing the test when rows has none.
func row(t *testing.T, rows []paper.Row, label string) paper.Row {
	t.Helper()
	for _, r := range rows {
		if r.Label == label {
			return r
		}
	}
	t.Fatalf("no %q row in %+v", label, rows)
	return paper.Row{}
}

// document is the Markdown document `repro campaign` prints for c.
func document(t *testing.T, c *experiment.Campaign) string {
	t.Helper()
	var sb strings.Builder
	if err := paper.WriteCampaign(&sb, c); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestFFContributionAccountsForAll: every unexpected outcome is counted
// under exactly one FF class, no class has more unexpected outcomes than
// injections, and the family shares are of all unexpected outcomes.
func TestFFContributionAccountsForAll(t *testing.T) {
	c := experiment.Shared()
	rows := paper.Contribution(c)
	perKind := 0
	for _, r := range rows[:len(rows)-2] {
		if r.Share.Successes > r.Share.Trials {
			t.Fatalf("%s: %d unexpected of %d injections", r.Label, r.Share.Successes, r.Share.Trials)
		}
		perKind += r.Share.Successes
	}
	unexpected := row(t, paper.Outcomes(c), "unexpected").Share.Successes
	for _, r := range rows[len(rows)-2:] {
		if r.N != unexpected {
			t.Fatalf("%s: share of %d, campaign has %d unexpected outcomes", r.Label, r.N, unexpected)
		}
	}
	if perKind != unexpected {
		t.Fatalf("FF classes account for %d of %d unexpected outcomes", perKind, unexpected)
	}
}

// TestOutcomesByPassPartition: Fig 4's rows count every record once, under
// the pass it was injected into.
func TestOutcomesByPassPartition(t *testing.T) {
	c := experiment.Shared()
	total := 0
	for _, r := range paper.Passes(c) {
		total += r.Share.Successes
	}
	if total != c.Tally.Total {
		t.Fatalf("pass partition covers %d/%d", total, c.Tally.Total)
	}
}

// TestDetectionCoverage: coverage never exceeds the latent and short-term
// outcomes, and no alarm comes later than the paper's two iterations.
func TestDetectionCoverage(t *testing.T) {
	c := experiment.Shared()
	for _, r := range paper.Detection(c) {
		if r.Share != nil && r.Share.Successes > r.Share.Trials {
			t.Fatalf("%s: detected %d > total %d", r.Label, r.Share.Successes, r.Share.Trials)
		}
		if r.Share == nil && r.Value > 2 {
			t.Fatalf("detection latency %g exceeds the 2-iteration guarantee", r.Value)
		}
	}
}

// TestReportRenders: a campaign's document names its workload and carries
// the outcome breakdown.
func TestReportRenders(t *testing.T) {
	out := document(t, experiment.Shared())
	if !strings.Contains(out, "# Fault-injection campaign: resnet\n") || !strings.Contains(out, "| unexpected |") {
		t.Fatalf("document missing fields:\n%s", out)
	}
}

// TestConditionRangesOnlyForConditionedOutcomes: Table 4 ranges latent and
// short-term outcomes only.
func TestConditionRangesOnlyForConditionedOutcomes(t *testing.T) {
	conditioned := map[string]bool{}
	for _, o := range outcome.All() {
		if o.IsLatent() || o == outcome.ShortTermINFNaN {
			conditioned[o.String()] = true
		}
	}
	for _, r := range paper.Conditions(experiment.Shared()) {
		if o, _, _ := strings.Cut(r.Label, " "); !conditioned[o] {
			t.Fatalf("condition range recorded for %s", o)
		}
	}
}

// latencyCampaign builds a synthetic campaign whose records alarm with the
// given fault-to-alarm latencies (in iterations); latency -1 means the
// detector never fired for that record.
func latencyCampaign(t *testing.T, latencies []int) *experiment.Campaign {
	t.Helper()
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	c := &experiment.Campaign{Cfg: experiment.Config{Workload: w, Experiments: len(latencies)}}
	for _, lat := range latencies {
		rec := experiment.Record{
			Injection:  fault.Injection{Iteration: 10},
			Outcome:    outcome.SlowDegrade,
			DetectIter: -1,
		}
		if lat >= 0 {
			rec.DetectIter = 10 + lat
		}
		c.Records = append(c.Records, rec)
		c.Tally.Add(rec.Outcome)
		c.Completed++
	}
	return c
}

// TestDetectionLatencyStats covers the p50/p95/max latency row (linear
// interpolation between closest ranks), printed whenever an alarm fired.
func TestDetectionLatencyStats(t *testing.T) {
	const latency = "latency p50 / p95 / max (iterations)"
	cases := []struct {
		name      string
		latencies []int
		want      string // "" = no latency row
		alarms    int
	}{
		{name: "no alarms", latencies: []int{-1, -1, -1}},
		{name: "single alarm", latencies: []int{-1, 2, -1}, want: "2.0 / 2.0 / 2", alarms: 1},
		{name: "uniform latencies", latencies: []int{1, 1, 1, 1}, want: "1.0 / 1.0 / 1", alarms: 4},
		// Sorted latencies 0,1,1,2: p50 interpolates to 1, p95 to
		// 1.8499999999999996.
		{name: "mixed latencies with undetected records", latencies: []int{2, -1, 0, 1, 1, -1}, want: "1.0 / 1.8 / 2", alarms: 4},
		// 0..10 inclusive: p50 = 5, p95 = 9.5.
		{name: "eleven-point ramp", latencies: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, want: "5.0 / 9.5 / 10", alarms: 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := paper.Detection(latencyCampaign(t, tc.latencies))
			if flagged := row(t, rows, "latent + short-term outcomes flagged"); flagged.Share.Successes != tc.alarms {
				t.Fatalf("coverage %s, want %d flagged", flagged.Measured, tc.alarms)
			}
			if tc.want == "" {
				if len(rows) != 1 {
					t.Fatalf("a latency row with zero alarms: %+v", rows)
				}
				return
			}
			if got := row(t, rows, latency); got.Measured != tc.want || got.N != tc.alarms {
				t.Fatalf("latency row %q over %d alarms, want %q over %d", got.Measured, got.N, tc.want, tc.alarms)
			}
		})
	}
}

// TestReportIncludesLatencyPercentiles: the document carries the latency
// row exactly when alarms exist.
func TestReportIncludesLatencyPercentiles(t *testing.T) {
	out := document(t, latencyCampaign(t, []int{2, -1, 0, 1, 1, -1}))
	if !strings.Contains(out, "| latency p50 / p95 / max (iterations) | 1.0 / 1.8 / 2 | 4 | 0 |  | ≤ 2 | consistent |\n") {
		t.Fatalf("document missing the latency row:\n%s", out)
	}
	if out := document(t, latencyCampaign(t, []int{-1, -1})); strings.Contains(out, "latency p50") {
		t.Fatalf("document has a latency row with zero alarms:\n%s", out)
	}
}

// TestDeviceFaultReportRenders: a device-fault campaign's document carries
// the group-mitigation account in place of the per-FF views.
func TestDeviceFaultReportRenders(t *testing.T) {
	out := document(t, experiment.Run(experiment.DeviceFaultConfig(t)))
	if !strings.Contains(out, "## Recovery — strategy reexec\n") || !strings.Contains(out, "| quarantines |") ||
		strings.Contains(out, "## Table 4") {
		t.Fatalf("document missing the mitigation account:\n%s", out)
	}
}

// TestRecoveryReportRenders: a JIT campaign's document names the strategy
// and counts its snapshots.
func TestRecoveryReportRenders(t *testing.T) {
	cfg := experiment.DeviceFaultConfig(t)
	cfg.DeviceFaultKinds = []fault.DeviceFaultKind{fault.DeviceCrash}
	cfg.Recovery = recovery.StrategyJIT
	c := experiment.Run(cfg)
	rows := paper.Recovery(c)
	if snaps := row(t, rows, "JIT snapshots"); snaps.Value != float64(c.JITSnapshots) || snaps.Value == 0 {
		t.Fatalf("JIT snapshots row %s, ledger %d", snaps.Measured, c.JITSnapshots)
	}
	if out := document(t, c); !strings.Contains(out, "## Recovery — strategy jit\n") {
		t.Fatalf("document missing the recovery account:\n%s", out)
	}
}

// indexSink collects appended records by index.
type indexSink struct {
	mu   sync.Mutex
	recs map[int]experiment.Record
}

func (s *indexSink) Append(i int, rec experiment.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[i] = rec
	return nil
}

func (s *indexSink) Flush() error { return nil }

// TestShardAggregatesReadOnlyLandedRecords: a Shard-restricted campaign
// leaves the slots outside its shard zero-valued, and no row may read them —
// a zero slot would pass for a record recovered at TTR 0 and for an alarm at
// latency 0.
func TestShardAggregatesReadOnlyLandedRecords(t *testing.T) {
	ff := experiment.ShardTestConfig(t)
	df := experiment.DeviceFaultConfig(t)
	df.DeviceFaultKinds = []fault.DeviceFaultKind{fault.DeviceCrash}
	df.Recovery = recovery.StrategyJIT
	for name, cfg := range map[string]experiment.Config{"ff": ff, "devfault/jit": df} {
		t.Run(name, func(t *testing.T) {
			sink := &indexSink{recs: map[int]experiment.Record{}}
			sh := experiment.Shard{Lo: 3, Hi: 7}
			c, err := experiment.Resume(cfg, experiment.RunOptions{Sink: sink, Shard: &sh})
			if err != nil {
				t.Fatal(err)
			}
			var recovered, alarms int
			for _, r := range sink.recs {
				if r.TimeToRecoverIters >= 0 {
					recovered++
				}
				if r.DetectIter >= 0 {
					alarms++
				}
			}
			n := len(sink.recs)
			passes := 0
			for _, r := range paper.Passes(c) {
				passes += r.Share.Successes
			}
			rec := paper.Recovery(c)
			hangs, back := row(t, rec, "group hangs"), row(t, rec, "recovered to full strength")
			readAlarms := 0
			for _, r := range paper.Detection(c) {
				if r.Share == nil {
					readAlarms = r.N
				}
			}
			if c.Completed != n || hangs.N != n || back.Share.Successes != recovered || readAlarms != alarms || passes != n {
				t.Fatalf("shard [%d,%d) landed %d records (%d recovered, %d alarms); rows read %d completed, %d records, %d recovered, %d alarms, %d pass outcomes",
					sh.Lo, sh.Hi, n, recovered, alarms, c.Completed, hangs.N, back.Share.Successes, readAlarms, passes)
			}
		})
	}
}
