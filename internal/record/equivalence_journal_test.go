package record

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/outcome"
	"repro/internal/workloads"
)

// equivJournalConfig is a single-worker dedup + early-exit campaign whose
// injection population (a pure function of the config) contains both dedup
// duplicates and masked early exits. One worker makes the journal's append
// order deterministic: experiments in index order, each dedup owner
// immediately followed by its adoptees.
func equivJournalConfig(t *testing.T) experiment.Config {
	t.Helper()
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 12 // shrink for test speed
	return experiment.Config{Workload: w, Experiments: 24, Seed: 9, HorizonMult: 1.5,
		Workers: 1, Dedup: true, EarlyExit: true}
}

// runJournaled executes cfg journaling to path, optionally cancelling after
// `interruptAfter` appends (0 = run to completion), and returns the prior
// map a subsequent OpenJournal replays (nil when run to completion).
func runJournaled(t *testing.T, cfg experiment.Config, g *experiment.Golden, path string, interruptAfter int) {
	t.Helper()
	digest := g.Ref().Digest()
	var j *Journal
	var prior map[int]experiment.Record
	var err error
	if _, statErr := os.Stat(path); statErr == nil {
		j, prior, err = OpenJournal(path, cfg, digest)
	} else {
		j, err = CreateJournal(path, cfg, digest)
	}
	if err != nil {
		t.Fatal(err)
	}
	opts := experiment.RunOptions{Golden: g, Prior: prior, Sink: j}
	if interruptAfter > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts.Context = ctx
		opts.Sink = &interruptingSink{Journal: j, after: interruptAfter, cancel: cancel}
	}
	_, runErr := experiment.Resume(cfg, opts)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		t.Fatal(runErr)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDedupJournalInterruptByteIdentity is the satellite end-to-end proof:
// SIGINT a single-worker dedup + early-exit campaign mid-run (modeled as
// context cancellation at a controlled append count — the same path the
// signal handler drives), resume it, and require the merged journal to be
// BYTE-identical to an uninterrupted dedup run's journal, and its outcome
// Tally identical to exhaustive execution.
func TestDedupJournalInterruptByteIdentity(t *testing.T) {
	cfg := equivJournalConfig(t)
	g := experiment.PrepareGolden(cfg)
	digest := g.Ref().Digest()

	dir := t.TempDir()
	unbroken := filepath.Join(dir, "unbroken.jsonl")
	runJournaled(t, cfg, g, unbroken, 0)
	want, err := os.ReadFile(unbroken)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{2, 9} {
		path := filepath.Join(dir, "interrupted.jsonl")
		runJournaled(t, cfg, g, path, k)
		partial, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(partial) >= len(want) {
			t.Fatalf("K=%d: interruption did not interrupt: partial journal %d bytes, full %d",
				k, len(partial), len(want))
		}
		runJournaled(t, cfg, g, path, 0) // resume to completion
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("K=%d: resumed journal is not byte-identical to the uninterrupted one (%d vs %d bytes)",
				k, len(got), len(want))
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}

	// The dedup journal's outcomes equal exhaustive execution's.
	_, prior, err := OpenJournal(unbroken, cfg, digest)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != cfg.Experiments {
		t.Fatalf("journal holds %d records, want %d", len(prior), cfg.Experiments)
	}
	exhaustive := cfg
	exhaustive.Dedup = false
	exhaustive.EarlyExit = false
	ex := experiment.RunWithGolden(exhaustive, g)
	var tally outcome.Tally
	for _, rec := range prior {
		tally.Add(rec.Outcome)
	}
	if tally != ex.Tally {
		t.Fatalf("dedup journal tally %+v differs from exhaustive %+v", tally, ex.Tally)
	}
}
