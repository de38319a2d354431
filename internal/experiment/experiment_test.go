package experiment

import (
	"sync"
	"testing"

	"repro/internal/accel"
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

// TestDetectionLatenciesNonNegative: no alarm precedes its fault, so every
// latency the detection rows summarize is non-negative.
func TestDetectionLatenciesNonNegative(t *testing.T) {
	for r := range shared().Landed() {
		if r.DetectIter >= 0 && r.DetectIter < r.FaultIteration() {
			t.Fatalf("alarm at iteration %d precedes the fault at %d", r.DetectIter, r.FaultIteration())
		}
	}
}
