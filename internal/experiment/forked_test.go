package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/workloads"
)

// recordsEqual compares two records field by field, treating floats as
// equal only when their bit patterns match (NaN-safe "byte-identical").
func recordsEqual(a, b *Record) bool {
	f64 := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Injection == b.Injection &&
		a.Outcome == b.Outcome &&
		f64(a.FinalTrainAcc, b.FinalTrainAcc) &&
		f64(a.FinalTestAcc, b.FinalTestAcc) &&
		a.NonFiniteIter == b.NonFiniteIter &&
		f64(a.HistAtT, b.HistAtT) && f64(a.HistAtT1, b.HistAtT1) &&
		f64(a.MvarAtT, b.MvarAtT) && f64(a.MvarAtT1, b.MvarAtT1) &&
		a.DetectIter == b.DetectIter &&
		a.InjectedElems == b.InjectedElems &&
		a.Masked == b.Masked &&
		a.DeviceFault == b.DeviceFault &&
		a.QuarantineIter == b.QuarantineIter &&
		a.Quarantines == b.Quarantines &&
		a.Rejoins == b.Rejoins &&
		a.DegradedIters == b.DegradedIters &&
		a.CommRetries == b.CommRetries &&
		a.AdoptedFrom == b.AdoptedFrom &&
		a.EarlyExitIter == b.EarlyExitIter &&
		a.ConvergedIter == b.ConvergedIter &&
		a.RecoveryStrategy == b.RecoveryStrategy &&
		a.TimeToRecoverIters == b.TimeToRecoverIters &&
		f64(a.AccuracyCost, b.AccuracyCost) &&
		a.JITSnapshots == b.JITSnapshots &&
		a.Resizes == b.Resizes &&
		a.Readmits == b.Readmits
}

// recordsEquivalent compares only the outcome payload — everything except
// the equivalence-layer provenance fields (AdoptedFrom, EarlyExitIter,
// ConvergedIter), which legitimately differ between an exhaustive run and a
// dedup/early-exit run of the same campaign.
func recordsEquivalent(a, b *Record) bool {
	ap, bp := *a, *b
	ap.AdoptedFrom, bp.AdoptedFrom = -1, -1
	ap.EarlyExitIter, bp.EarlyExitIter = -1, -1
	ap.ConvergedIter, bp.ConvergedIter = -1, -1
	return recordsEqual(&ap, &bp)
}

func assertCampaignsIdentical(t *testing.T, label string, want, got *Campaign) {
	t.Helper()
	if len(want.Records) != len(got.Records) {
		t.Fatalf("%s: %d records, want %d", label, len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if !recordsEqual(&want.Records[i], &got.Records[i]) {
			t.Fatalf("%s: record %d differs:\ncold:   %+v\nforked: %+v",
				label, i, want.Records[i], got.Records[i])
		}
	}
	if want.Tally != got.Tally {
		t.Fatalf("%s: tally differs:\ncold:   %+v\nforked: %+v", label, want.Tally, got.Tally)
	}
}

// TestForkedCampaignEquivalence is the campaign-level exactness proof: a
// forked campaign produces byte-identical Records and Tally to the
// cold-start campaign (one worker replaying every experiment from iteration
// 0 in index order), for multiple strides (explicit dense, explicit sparse,
// auto) and worker counts. ci.sh runs this under -race so the forked path
// can never silently diverge.
func TestForkedCampaignEquivalence(t *testing.T) {
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 20 // shrink for test speed; mechanics are unchanged
	base := Config{Workload: w, Experiments: 8, Seed: 3, HorizonMult: 2, InjectFrac: 0.8}

	cold := base
	cold.SnapshotStride = -1
	cold.Workers = 1
	want := Run(cold)
	if want.IterationsSkipped != 0 {
		t.Fatalf("cold campaign skipped %d iterations", want.IterationsSkipped)
	}

	cases := []struct {
		label   string
		stride  int
		workers int
	}{
		{"stride1-1worker", 1, 1},
		{"stride5-3workers", 5, 3},
		{"auto-2workers", 0, 2},
		{"unforked-2workers", -1, 2},
		{"stride5-2workers", 5, 2},
	}
	for _, tc := range cases {
		cfg := base
		cfg.SnapshotStride = tc.stride
		cfg.Workers = tc.workers
		got := Run(cfg)
		assertCampaignsIdentical(t, tc.label, want, got)
		if tc.stride >= 0 && got.IterationsSkipped == 0 {
			t.Errorf("%s: forking enabled but no iterations were skipped", tc.label)
		}
		if tc.stride == -1 && got.IterationsSkipped != 0 {
			t.Errorf("%s: forking disabled but %d iterations skipped", tc.label, got.IterationsSkipped)
		}
	}
}

// TestForkAccounting checks the skip/execute bookkeeping: skipped+executed
// equals the cold campaign's executed total (both paths terminate INF/NaN
// runs at the same iteration), and the summary line renders the reuse.
func TestForkAccounting(t *testing.T) {
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 20
	base := Config{Workload: w, Experiments: 6, Seed: 5, HorizonMult: 1.5}

	cold := base
	cold.SnapshotStride = -1
	coldC := Run(cold)

	forked := base
	forked.SnapshotStride = 1
	forkedC := Run(forked)

	if coldC.IterationsExecuted != forkedC.IterationsExecuted+forkedC.IterationsSkipped {
		t.Fatalf("work accounting broken: cold executed %d, forked executed %d + skipped %d",
			coldC.IterationsExecuted, forkedC.IterationsExecuted, forkedC.IterationsSkipped)
	}
	s := forkedC.ForkSummary()
	if !strings.Contains(s, "reused") || !strings.Contains(s, "snapshots") {
		t.Fatalf("fork summary missing fields: %q", s)
	}
}

// TestAutoStrideRespectsBudget: a tiny memory budget must collapse the
// cache to the initial snapshot only; a huge one must go dense (stride 1).
func TestAutoStrideRespectsBudget(t *testing.T) {
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 20
	base := Config{Workload: w, Experiments: 1, Seed: 7, HorizonMult: 1}

	tiny := base
	tiny.SnapshotMemBudget = 1 // can't even hold the initial snapshot twice
	g := PrepareGolden(tiny)
	if n, _ := g.Snapshots(); n != 1 || g.Stride() != 0 {
		t.Fatalf("tiny budget: %d snapshots stride %d, want 1/0", n, g.Stride())
	}

	huge := base
	huge.SnapshotMemBudget = 1 << 40
	g = PrepareGolden(huge)
	if g.Stride() != 1 {
		t.Fatalf("huge budget: stride %d, want 1", g.Stride())
	}
	if n, _ := g.Snapshots(); n != maxInjectIterFor(huge.withDefaults()) {
		t.Fatalf("huge budget: %d snapshots, want one per boundary", n)
	}
}

// TestGoldenCompatibilityPanics: forking a campaign from a golden prepared
// for a different shape must panic rather than silently mis-fork.
func TestGoldenCompatibilityPanics(t *testing.T) {
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 10
	g := PrepareGolden(Config{Workload: w, Experiments: 1, Seed: 1, HorizonMult: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched golden did not panic")
		}
	}()
	RunWithGolden(Config{Workload: w, Experiments: 1, Seed: 2, HorizonMult: 1}, g)
}

// TestKindSweepSharesGolden: every per-kind campaign of a sweep must carry
// the same reference trace (shared golden), a restricted injection kind
// set, and the full experiment count.
func TestKindSweepSharesGolden(t *testing.T) {
	w, err := workloads.ByName("yolo")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 12
	kinds := []accel.FFKind{accel.GlobalG1, accel.DatapathUpperExponent}
	sweep := KindSweep(Config{Workload: w, Experiments: 4, Seed: 9, HorizonMult: 1}, kinds)
	if len(sweep) != len(kinds) {
		t.Fatalf("sweep has %d campaigns, want %d", len(sweep), len(kinds))
	}
	var ref *Campaign
	for _, k := range kinds {
		c := sweep[k]
		if c == nil {
			t.Fatalf("no campaign for kind %v", k)
		}
		if len(c.Records) != 4 {
			t.Fatalf("kind %v: %d records", k, len(c.Records))
		}
		for i := range c.Records {
			if c.Records[i].Injection.Kind != k {
				t.Fatalf("kind %v campaign sampled kind %v", k, c.Records[i].Injection.Kind)
			}
		}
		if ref == nil {
			ref = c
		} else if c.Ref != ref.Ref {
			t.Fatal("sweep campaigns do not share the golden reference trace")
		}
	}
}

// TestSignatureCollectionIsNeutral: a device-fault campaign's golden run
// collects contribution signatures (the cross-replica schedule needs them)
// and an FF campaign's does not; the two runs must be the same run — equal
// trace digest, equal state digest after every iteration — or the journal
// header's golden digest would depend on the campaign flavor.
func TestSignatureCollectionIsNeutral(t *testing.T) {
	for _, w := range workloads.All() {
		w.Iters = 8
		cfg := Config{Workload: w, Experiments: 1, Seed: 5, HorizonMult: 1.5}
		plain := PrepareGolden(cfg)
		cfg.DeviceFaults = true
		sigs := PrepareGolden(cfg)
		if len(sigs.groupAlarms) != sigs.horizon || plain.groupAlarms != nil {
			t.Fatalf("%s: cross-replica schedule has %d entries with device faults, %d without; want %d and none",
				w.Name, len(sigs.groupAlarms), len(plain.groupAlarms), sigs.horizon)
		}
		if p, s := plain.ref.Digest(), sigs.ref.Digest(); p != s {
			t.Fatalf("%s: golden trace digest %s without signature collection, %s with", w.Name, p, s)
		}
		for i := range plain.digests {
			if plain.digests[i] != sigs.digests[i] {
				t.Fatalf("%s: state digest after iteration %d differs with signature collection", w.Name, i)
			}
		}
	}
}
