package experiment

import (
	"strings"
	"testing"

	"repro/internal/workloads"
)

// equivTestConfig is a small FF campaign known (deterministically — the
// injection population is a pure function of the config) to contain both
// dedup duplicates and masked early exits.
func equivTestConfig(t *testing.T) Config {
	t.Helper()
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 12 // shrink for test speed; mechanics are unchanged
	return Config{Workload: w, Experiments: 24, Seed: 9, HorizonMult: 1.5}
}

// TestEquivalenceFastPathsExact is the tentpole exactness proof: a campaign
// run with -dedup -early-exit produces records whose outcome payloads are
// byte-identical to exhaustive execution — only the provenance fields
// (AdoptedFrom, EarlyExitIter) differ — with an identical Tally, while
// executing strictly fewer iterations.
func TestEquivalenceFastPathsExact(t *testing.T) {
	base := equivTestConfig(t)
	want := Run(base)

	fast := base
	fast.Dedup = true
	fast.EarlyExit = true
	got := Run(fast)

	if len(got.Records) != len(want.Records) {
		t.Fatalf("fast campaign has %d records, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if !recordsEquivalent(&want.Records[i], &got.Records[i]) {
			t.Fatalf("record %d payload differs:\nexhaustive: %+v\nfast:       %+v",
				i, want.Records[i], got.Records[i])
		}
	}
	if want.Tally != got.Tally {
		t.Fatalf("tally differs:\nexhaustive: %+v\nfast:       %+v", want.Tally, got.Tally)
	}
	// Exhaustive records must carry no fast-path provenance.
	for i := range want.Records {
		r := &want.Records[i]
		if r.AdoptedFrom != -1 || r.EarlyExitIter != -1 {
			t.Fatalf("exhaustive record %d carries fast-path provenance: %+v", i, r)
		}
	}
	if got.ExperimentsAdopted == 0 {
		t.Fatal("test config produced no dedup adoptions; pick a config with duplicates")
	}
	if got.EarlyExits == 0 {
		t.Fatal("test config produced no early exits; pick a config with masked experiments")
	}
	if got.IterationsSynthesized == 0 {
		t.Fatal("early exits recorded but no iterations synthesized")
	}
	if got.IterationsExecuted >= want.IterationsExecuted {
		t.Fatalf("fast path executed %d iterations, exhaustive %d — no work was saved",
			got.IterationsExecuted, want.IterationsExecuted)
	}
}

// TestDedupAdoptionProvenance validates every adoption in the fast
// campaign: the owner is an earlier, non-adopted record with an equal
// corruption key and a payload-equal record, and EarlyExitIter is
// inherited verbatim from the owner.
func TestDedupAdoptionProvenance(t *testing.T) {
	cfg := equivTestConfig(t)
	cfg.Dedup = true
	cfg.EarlyExit = true
	g := PrepareGolden(cfg)
	c := RunWithGolden(cfg, g)

	adoptions := 0
	for i := range c.Records {
		r := &c.Records[i]
		if r.AdoptedFrom < 0 {
			continue
		}
		adoptions++
		if r.AdoptedFrom >= i {
			t.Fatalf("record %d adopted from %d — owners must precede adoptees", i, r.AdoptedFrom)
		}
		owner := &c.Records[r.AdoptedFrom]
		if owner.AdoptedFrom != -1 {
			t.Fatalf("record %d adopted from %d, which is itself adopted", i, r.AdoptedFrom)
		}
		if g.corruptionKey(&r.Injection) != g.corruptionKey(&owner.Injection) {
			t.Fatalf("record %d adopted from %d but their corruption keys differ", i, r.AdoptedFrom)
		}
		// Adoptees keep their own injection identity; everything else is
		// the owner's record verbatim.
		shared := *r
		shared.Injection = owner.Injection
		if !recordsEquivalent(owner, &shared) {
			t.Fatalf("record %d payload differs from its owner %d", i, r.AdoptedFrom)
		}
		if r.EarlyExitIter != owner.EarlyExitIter {
			t.Fatalf("record %d early-exit provenance %d differs from owner's %d",
				i, r.EarlyExitIter, owner.EarlyExitIter)
		}
	}
	if adoptions != c.ExperimentsAdopted {
		t.Fatalf("%d adopted records but campaign counted %d", adoptions, c.ExperimentsAdopted)
	}
	if adoptions == 0 {
		t.Fatal("test config produced no adoptions")
	}
}

// TestEarlyExitIterBounds: a bitwise early exit can only happen strictly
// after the injection iteration (the t+1 measurements must be real) and
// before the horizon.
func TestEarlyExitIterBounds(t *testing.T) {
	cfg := equivTestConfig(t)
	cfg.EarlyExit = true
	c := Run(cfg)
	exits := 0
	for i := range c.Records {
		r := &c.Records[i]
		if r.EarlyExitIter < 0 {
			continue
		}
		exits++
		if r.EarlyExitIter <= r.Injection.Iteration {
			t.Fatalf("record %d exited at %d, not after its injection iteration %d",
				i, r.EarlyExitIter, r.Injection.Iteration)
		}
	}
	if exits == 0 || exits != c.EarlyExits {
		t.Fatalf("%d early-exit records, campaign counted %d (want >0 and equal)", exits, c.EarlyExits)
	}
}

// TestResumeRefusesEarlyExitStride: the early exit compares digests at every
// boundary, and a coarser EarlyExitStride is refused before a golden run is
// prepared — the Config names no workload, so preparing one would panic.
func TestResumeRefusesEarlyExitStride(t *testing.T) {
	cfg := Config{Experiments: 4, EarlyExit: true, EarlyExitStride: 3}
	if _, err := Resume(cfg, RunOptions{}); err == nil || !strings.Contains(err.Error(), "EarlyExitStride 3") {
		t.Fatalf("Resume with EarlyExitStride 3: %v, want a refusal naming it", err)
	}
}

// TestEquivalenceRejectsDeviceFaults: the dedup keys do not cover device
// faults (random value streams, multi-shot arming), so enabling dedup must
// fail loudly. EarlyExit is accepted: it compares no digest in a
// device-fault campaign and exits only what is golden by construction, which
// is decided before anything runs (TestGoldenByConstructionExact holds those
// records to execution).
func TestEquivalenceRejectsDeviceFaults(t *testing.T) {
	cfg := equivTestConfig(t)
	cfg.DeviceFaults = true
	cfg.Dedup = true
	if _, err := Resume(cfg, RunOptions{}); err == nil {
		t.Fatal("Resume accepted dedup on a device-fault campaign")
	}
	cfg.Dedup = false
	cfg.EarlyExit = true
	c, err := Resume(cfg, RunOptions{})
	if err != nil {
		t.Fatalf("Resume refused early-exit on a device-fault campaign: %v", err)
	}
	if c.GoldenByConstruction == 0 || c.EarlyExits != 0 {
		t.Fatalf("device-fault campaign under early-exit: %d golden by construction, %d digest exits; want some and none",
			c.GoldenByConstruction, c.EarlyExits)
	}
}
