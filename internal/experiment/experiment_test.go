package experiment

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/workloads"
)

// shared returns a campaign computed once and reused by the read-only
// assertions (campaigns are deterministic, so sharing is safe).
var shared = sync.OnceValue(func() *Campaign {
	w, err := workloads.ByName("resnet")
	if err != nil {
		panic(err)
	}
	w.Iters = 60 // shrink for test speed; mechanics are unchanged
	return Run(Config{Workload: w, Experiments: 32, Seed: 1, HorizonMult: 1.0})
})

func TestCampaignBasics(t *testing.T) {
	c := shared()
	if len(c.Records) != 32 || c.Tally.Total != 32 {
		t.Fatalf("records %d tally %d", len(c.Records), c.Tally.Total)
	}
	if c.RefAcc < 0.8 {
		t.Fatalf("reference accuracy %v too low — campaign baseline broken", c.RefAcc)
	}
	// Most experiments must be benign (paper: 82.3%–90.3% category 1).
	benign := c.Tally.Counts[outcome.Benign] + c.Tally.Counts[outcome.SlightDegradation]
	if float64(benign)/32 < 0.5 {
		t.Fatalf("only %d/32 benign — masking behavior implausible", benign)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	run := func() *Campaign {
		w, err := workloads.ByName("resnet")
		if err != nil {
			t.Fatal(err)
		}
		w.Iters = 40
		return Run(Config{Workload: w, Experiments: 6, Seed: 2, HorizonMult: 1.0})
	}
	a, b := run(), run()
	for i := range a.Records {
		if a.Records[i].Outcome != b.Records[i].Outcome {
			t.Fatalf("experiment %d: %v vs %v", i, a.Records[i].Outcome, b.Records[i].Outcome)
		}
		if a.Records[i].HistAtT != b.Records[i].HistAtT {
			t.Fatalf("experiment %d condition values differ", i)
		}
	}
}

func TestConditionValuesRecordedWithinTwoIterations(t *testing.T) {
	c := shared()
	for i, r := range c.Records {
		if r.Outcome.IsLatent() || r.Outcome == outcome.ShortTermINFNaN {
			if r.HistAtT == 0 && r.HistAtT1 == 0 && r.MvarAtT == 0 && r.MvarAtT1 == 0 {
				t.Errorf("experiment %d (%v): no condition values recorded", i, r.Outcome)
			}
		}
	}
}

func TestFFContributionAccountsForAll(t *testing.T) {
	c := shared()
	var total int
	for _, s := range c.FFContribution() {
		total += s.Total
		if s.Unexpected > s.Total {
			t.Fatalf("kind %v: unexpected %d > total %d", s.Kind, s.Unexpected, s.Total)
		}
	}
	if total != c.Tally.Total {
		t.Fatalf("FF contribution covers %d/%d", total, c.Tally.Total)
	}
}

func TestOutcomesByPassPartition(t *testing.T) {
	c := shared()
	var total int
	for _, tally := range c.OutcomesByPass() {
		total += tally.Total
	}
	if total != c.Tally.Total {
		t.Fatalf("pass partition covers %d/%d", total, c.Tally.Total)
	}
}

func TestDetectionCoverage(t *testing.T) {
	c := shared()
	detected, total, maxLat := c.DetectionCoverage()
	if detected > total {
		t.Fatalf("detected %d > total %d", detected, total)
	}
	if total > 0 && detected == 0 {
		t.Logf("note: %d latent outcomes, none bounds-detected in this small sample", total)
	}
	if maxLat > 2 {
		t.Fatalf("detection latency %d exceeds the 2-iteration guarantee", maxLat)
	}
}

func TestReportRenders(t *testing.T) {
	c := shared()
	var buf bytes.Buffer
	c.Report(&buf)
	out := buf.String()
	if !strings.Contains(out, "resnet") || !strings.Contains(out, "unexpected-total") {
		t.Fatalf("report missing fields:\n%s", out)
	}
}

func TestBiasKindsRestrictsSampling(t *testing.T) {
	w, err := workloads.ByName("yolo")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 20
	bias := []accel.FFKind{accel.GlobalG1, accel.GlobalG3}
	c := Run(Config{
		Workload: w, Experiments: 10, Seed: 4, HorizonMult: 1,
		BiasKinds: bias,
	})
	for i, r := range c.Records {
		if r.Injection.Kind != accel.GlobalG1 && r.Injection.Kind != accel.GlobalG3 {
			t.Fatalf("experiment %d sampled kind %v outside bias set", i, r.Injection.Kind)
		}
	}
}

func TestBiasPassesRestrictsSampling(t *testing.T) {
	w, err := workloads.ByName("yolo")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 20
	c := Run(Config{
		Workload: w, Experiments: 10, Seed: 4, HorizonMult: 1,
		BiasPasses: []fault.Pass{fault.Forward},
	})
	for i, r := range c.Records {
		if r.Injection.Pass != fault.Forward {
			t.Fatalf("experiment %d sampled pass %v outside bias set", i, r.Injection.Pass)
		}
	}
}

func TestConditionRangesOnlyForConditionedOutcomes(t *testing.T) {
	c := shared()
	for o := range c.ConditionRanges() {
		if !o.IsLatent() && o != outcome.ShortTermINFNaN {
			t.Fatalf("condition range recorded for %v", o)
		}
	}
}

func TestDetectionLatenciesNonNegative(t *testing.T) {
	c := shared()
	for _, l := range c.DetectionLatencies() {
		if l < 0 {
			t.Fatalf("negative detection latency %d", l)
		}
	}
}
