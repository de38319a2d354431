package experiment

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// seqSink records the exact append sequence a campaign produces, plus every
// record. An identical append sequence over bit-identical records implies an
// identical journal file, so these tests pin journal bytes without importing
// internal/record (which depends on this package).
type seqSink struct {
	mu    sync.Mutex
	order []int
	recs  map[int]Record
}

func (s *seqSink) Append(i int, rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.order = append(s.order, i)
	s.recs[i] = rec
	return nil
}

func (s *seqSink) Flush() error { return nil }

// assertSameAppends requires got to have appended exactly the same index
// sequence and record bytes as the reference sink.
func assertSameAppends(t *testing.T, tag string, want, got *seqSink) {
	t.Helper()
	if len(got.order) != len(want.order) {
		t.Fatalf("%s: %d appends, reference made %d", tag, len(got.order), len(want.order))
	}
	for p, idx := range want.order {
		if got.order[p] != idx {
			t.Fatalf("%s: append %d is record %d, reference appended %d", tag, p, got.order[p], idx)
		}
	}
	for i, rec := range got.recs {
		w, ok := want.recs[i]
		if !ok {
			t.Fatalf("%s: appended record %d absent from reference", tag, i)
		}
		r := rec
		if !recordsEqual(&w, &r) {
			t.Fatalf("%s: appended record %d differs from reference", tag, i)
		}
	}
}

// TestAffineSchedulingEquivalence is the scheduling exactness proof:
// snapshot-affine dispatch must produce byte-identical Records, Tally, and
// journal append sequence versus the cold-start campaign, for every worker
// count — scheduling is a pure locality optimization. ci.sh runs this under
// -race.
func TestAffineSchedulingEquivalence(t *testing.T) {
	base := resumeTestConfig(t)

	// Reference: the cold-start campaign. With forking off every experiment
	// forks from boundary 0, the stable regrouping leaves index order, and
	// one worker appends in it — the schedule whose natural append order the
	// canonical journal sequence mirrors.
	refCfg := base
	refCfg.SnapshotStride = -1
	refCfg.Workers = 1
	refSink := &seqSink{recs: map[int]Record{}}
	want, err := Resume(refCfg, RunOptions{Sink: refSink})
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	if want.Completed != base.Experiments {
		t.Fatalf("reference run completed %d/%d", want.Completed, base.Experiments)
	}
	// Experiments proven golden by construction restore nothing.
	executed := int64(base.Experiments - want.GoldenByConstruction)
	if want.ColdRestores != 1 || want.WarmRestores != executed-1 {
		t.Fatalf("reference run: %d warm + %d cold restores, want every restore after the first warm",
			want.WarmRestores, want.ColdRestores)
	}

	for _, workers := range []int{1, 2, 3} {
		cfg := base
		cfg.Workers = workers
		sink := &seqSink{recs: map[int]Record{}}
		stats := telemetry.NewCampaignStats("resnet", cfg.Experiments, workers)
		got, err := Resume(cfg, RunOptions{Sink: sink, Stats: stats})
		tag := fmt.Sprintf("workers=%d", workers)
		if err != nil {
			t.Fatalf("%s: run failed: %v", tag, err)
		}
		assertCampaignsIdentical(t, tag, want, got)
		assertSameAppends(t, tag, refSink, sink)

		// Every dispatched experiment restores exactly one snapshot into
		// its pooled engine, warm or cold; the telemetry mirror must agree.
		if got.WarmRestores+got.ColdRestores != executed {
			t.Fatalf("%s: %d warm + %d cold restores, want %d total",
				tag, got.WarmRestores, got.ColdRestores, executed)
		}
		snap := stats.Snapshot()
		if snap.WarmRestores != got.WarmRestores || snap.ColdRestores != got.ColdRestores {
			t.Fatalf("%s: telemetry restores (%d, %d) != campaign (%d, %d)", tag,
				snap.WarmRestores, snap.ColdRestores, got.WarmRestores, got.ColdRestores)
		}
	}
}

// TestAffineSchedulingDedupJournal extends the scheduling proof to dedup
// campaigns, whose journals interleave owner records with synthesized
// adoptees: the canonical owner→adoptees sequence must hold for affine
// multi-worker runs too.
func TestAffineSchedulingDedupJournal(t *testing.T) {
	base := resumeTestConfig(t)
	base.Dedup = true

	refCfg := base
	refCfg.SnapshotStride = -1
	refCfg.Workers = 1
	refSink := &seqSink{recs: map[int]Record{}}
	want, err := Resume(refCfg, RunOptions{Sink: refSink})
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	if len(refSink.order) != base.Experiments {
		t.Fatalf("reference journaled %d records, want %d", len(refSink.order), base.Experiments)
	}

	for _, workers := range []int{1, 3} {
		cfg := base
		cfg.Workers = workers
		sink := &seqSink{recs: map[int]Record{}}
		got, err := Resume(cfg, RunOptions{Sink: sink})
		tag := fmt.Sprintf("dedup workers=%d", workers)
		if err != nil {
			t.Fatalf("%s: run failed: %v", tag, err)
		}
		assertCampaignsIdentical(t, tag, want, got)
		assertSameAppends(t, tag, refSink, sink)
	}
}

// TestCrossConfigResume pins the journal portability contract: a campaign
// journaled under one execution configuration (no forking, two workers)
// resumes byte-identically under another (forked, three workers), because
// none of those knobs enter Config.Fingerprint or the record bytes.
func TestCrossConfigResume(t *testing.T) {
	base := resumeTestConfig(t)

	want := Run(base)
	if want.Completed != base.Experiments {
		t.Fatalf("uninterrupted run completed %d/%d", want.Completed, base.Experiments)
	}

	// Phase 1: journal half the campaign under config A — every experiment
	// replayed from iteration 0, dispatched in index order — then cancel.
	cfgA := base
	cfgA.SnapshotStride = -1
	cfgA.Workers = 2
	if cfgA.Fingerprint() != base.Fingerprint() {
		t.Fatal("fingerprint depends on SnapshotStride or Workers; journals would not be portable across them")
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink := &cancelSink{recs: map[int]Record{}, after: 4, cancel: cancel}
	_, err := Resume(cfgA, RunOptions{Context: ctx, Sink: sink})
	cancel()
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run failed: %v", err)
	}
	if len(sink.recs) < 4 {
		t.Fatalf("only %d records reached the journal", len(sink.recs))
	}

	// Phase 2: resume under config B — forked from the snapshot cache,
	// snapshot-affine dispatch, different worker count.
	cfgB := base
	cfgB.Workers = 3
	prior := make(map[int]Record, len(sink.recs))
	for i, rec := range sink.recs {
		prior[i] = rec
	}
	resumed, err := Resume(cfgB, RunOptions{Prior: prior})
	if err != nil {
		t.Fatalf("cross-config resume failed: %v", err)
	}
	assertCampaignsIdentical(t, "cross-config", want, resumed)
}
