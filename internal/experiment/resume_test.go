package experiment

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// cancelSink collects appended records and cancels the campaign context
// once `after` records have arrived — simulating a SIGINT/kill mid-run at
// a controlled point.
type cancelSink struct {
	mu      sync.Mutex
	recs    map[int]Record
	after   int
	cancel  context.CancelFunc
	flushes int
}

func (s *cancelSink) Append(i int, rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[i] = rec
	if s.cancel != nil && len(s.recs) >= s.after {
		s.cancel()
	}
	return nil
}

func (s *cancelSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushes++
	return nil
}

func resumeTestConfig(t *testing.T) Config {
	t.Helper()
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 20 // shrink for test speed; mechanics are unchanged
	return Config{Workload: w, Experiments: 8, Seed: 3, HorizonMult: 2, InjectFrac: 0.8}
}

// TestResumeEquivalence is the durability exactness proof: cancel a
// campaign after K of N records (forked snapshots and fused detection on,
// i.e. the defaults), resume from the sink's records, and require
// byte-identical Records and Tally versus one uninterrupted run — for
// several K and worker counts. ci.sh runs this under -race.
func TestResumeEquivalence(t *testing.T) {
	base := resumeTestConfig(t)
	base.Workers = 2
	want := Run(base)
	if want.Completed != base.Experiments {
		t.Fatalf("uninterrupted run completed %d/%d", want.Completed, base.Experiments)
	}

	for _, k := range []int{1, 3, 5, 8} {
		// Phase 1: run until K records have been journaled, then cancel.
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancelSink{recs: map[int]Record{}, after: k, cancel: cancel}
		stats := telemetry.NewCampaignStats("resnet", base.Experiments, 2)
		partial, err := Resume(base, RunOptions{Context: ctx, Sink: sink, Stats: stats})
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("K=%d: interrupted run failed: %v", k, err)
		}
		if len(sink.recs) < k {
			t.Fatalf("K=%d: only %d records reached the sink", k, len(sink.recs))
		}
		if sink.flushes == 0 {
			t.Fatalf("K=%d: sink was never flushed on cancellation", k)
		}
		if partial.Completed != partial.Tally.Total {
			t.Fatalf("K=%d: partial campaign tallied %d of %d completed records",
				k, partial.Tally.Total, partial.Completed)
		}
		// The partial campaign's completed records must already match the
		// uninterrupted run record for record.
		for i, rec := range sink.recs {
			if !recordsEqual(&want.Records[i], &rec) {
				t.Fatalf("K=%d: partial record %d differs from uninterrupted run", k, i)
			}
		}

		// Phase 2: resume from the journaled records.
		prior := make(map[int]Record, len(sink.recs))
		for i, rec := range sink.recs {
			prior[i] = rec
		}
		second := &cancelSink{recs: map[int]Record{}}
		resumed, err := Resume(base, RunOptions{Prior: prior, Sink: second, Stats: stats})
		if err != nil {
			t.Fatalf("K=%d: resume failed: %v", k, err)
		}
		if resumed.Completed != base.Experiments {
			t.Fatalf("K=%d: resume completed %d/%d", k, resumed.Completed, base.Experiments)
		}
		assertCampaignsIdentical(t, "resumed", want, resumed)
		// Resume must not have re-executed any prior record.
		for i := range second.recs {
			if _, dup := prior[i]; dup {
				t.Fatalf("K=%d: resume re-executed already-journaled experiment %d", k, i)
			}
		}
		if len(second.recs)+len(prior) != base.Experiments {
			t.Fatalf("K=%d: resume executed %d records, want %d",
				k, len(second.recs), base.Experiments-len(prior))
		}
	}
}

// TestResumeRejectsForeignPrior: prior records whose injections don't match
// the campaign's deterministic sampling (wrong seed, tampered journal) must
// be rejected loudly, not silently adopted.
func TestResumeRejectsForeignPrior(t *testing.T) {
	base := resumeTestConfig(t)
	want := Run(base)

	bad := want.Records[0]
	bad.Injection.Iteration++ // no longer on this campaign's trajectory
	if _, err := Resume(base, RunOptions{Prior: map[int]Record{0: bad}}); err == nil {
		t.Fatal("Resume accepted a prior record with a foreign injection")
	}
	if _, err := Resume(base, RunOptions{Prior: map[int]Record{99: want.Records[0]}}); err == nil {
		t.Fatal("Resume accepted an out-of-range prior index")
	}
}

// TestResumeAllPrior: a journal that already covers the whole campaign
// resumes to a complete, identical campaign without running anything.
func TestResumeAllPrior(t *testing.T) {
	base := resumeTestConfig(t)
	want := Run(base)
	prior := make(map[int]Record, len(want.Records))
	for i, rec := range want.Records {
		prior[i] = rec
	}
	sink := &cancelSink{recs: map[int]Record{}}
	resumed, err := Resume(base, RunOptions{Prior: prior, Sink: sink})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	assertCampaignsIdentical(t, "all-prior", want, resumed)
	if len(sink.recs) != 0 {
		t.Fatalf("resume with a complete journal re-executed %d experiments", len(sink.recs))
	}
	if resumed.IterationsExecuted != 0 {
		t.Fatalf("resume with a complete journal executed %d iterations", resumed.IterationsExecuted)
	}
}
