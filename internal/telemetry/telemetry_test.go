package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"testing"

	"repro/internal/outcome"
)

// entry is one landed record's ledger entry with outcome o.
func entry(o outcome.Outcome, c Counts) Counts {
	c.Tally.Add(o)
	return c
}

func TestCampaignStatsSnapshot(t *testing.T) {
	s := NewCampaignStats("resnet", 100, 3)
	for i := 0; i < 10; i++ {
		s.Land(-1, entry(outcome.Benign, Counts{Resumed: 1}))
	}
	s.Land(0, entry(outcome.Benign, Counts{IterationsSkipped: 5, IterationsExecuted: 20, DetectorChecks: 12, Forked: 1, ColdRestores: 1}))
	s.Land(1, entry(outcome.SlowDegrade, Counts{IterationsExecuted: 25, DetectorChecks: 25, ColdRestores: 1}))
	s.Land(1, entry(outcome.Benign, Counts{IterationsSkipped: 8, IterationsExecuted: 17, IterationsSynthesized: 4,
		DetectorChecks: 9, Forked: 1, WarmRestores: 1, EarlyExits: 1}))
	s.Land(1, entry(outcome.Benign, Counts{ExperimentsAdopted: 1}))
	s.Land(0, entry(outcome.QuarantinedRecovered, Counts{GoldenByConstruction: 1, Quarantines: 1, Rejoins: 1,
		DegradedIters: 2, CommRetries: 3, JITSnapshots: 4, Resizes: 5, Readmits: 6}))
	s.JournalAppend()
	s.JournalAppend()
	s.JournalFlush()

	snap := s.Snapshot()
	if snap.Workload != "resnet" || snap.Experiments != 100 {
		t.Fatalf("identity fields wrong: %+v", snap)
	}
	if snap.Done != 15 || snap.Resumed != 10 {
		t.Fatalf("Done/Resumed = %d/%d, want 15/10", snap.Done, snap.Resumed)
	}
	// Replayed records' outcomes count too.
	if snap.Outcomes["Benign"] != 13 || snap.Outcomes["SlowDegrade"] != 1 || snap.Outcomes["QuarantinedRecovered"] != 1 {
		t.Fatalf("outcome tallies wrong: %+v", snap.Outcomes)
	}
	if snap.IterationsSkipped != 13 || snap.IterationsExecuted != 62 || snap.IterationsSynthesized != 4 {
		t.Fatalf("iteration counters wrong: %+v", snap)
	}
	if snap.WarmRestores != 1 || snap.ColdRestores != 2 || snap.ExperimentsAdopted != 1 ||
		snap.GoldenByConstruction != 1 || snap.EarlyExits != 1 {
		t.Fatalf("restore or equivalence counters wrong: %+v", snap)
	}
	if snap.Quarantines != 1 || snap.Rejoins != 1 || snap.DegradedIters != 2 || snap.CommRetries != 3 ||
		snap.JITSnapshots != 4 || snap.Resizes != 5 || snap.Readmits != 6 {
		t.Fatalf("mitigation counters wrong: %+v", snap)
	}
	// 2 of the 5 records this process landed forked from a non-initial
	// snapshot.
	if want := 2.0 / 5.0; snap.SnapshotForkRate != want {
		t.Fatalf("SnapshotForkRate = %g, want %g", snap.SnapshotForkRate, want)
	}
	if snap.DetectorChecks != 46 {
		t.Fatalf("DetectorChecks = %d, want 46", snap.DetectorChecks)
	}
	if snap.JournalAppends != 2 || snap.JournalFlushes != 1 {
		t.Fatalf("journal counters wrong: %+v", snap)
	}
	if len(snap.PerWorkerDone) != 3 || snap.PerWorkerDone[0] != 2 || snap.PerWorkerDone[1] != 3 {
		t.Fatalf("per-worker counters wrong: %+v", snap.PerWorkerDone)
	}
	if snap.ExperimentsPerSec <= 0 || snap.ETASec < 0 {
		t.Fatalf("rate/ETA not derived: %+v", snap)
	}
}

func TestCampaignStatsNilSafe(t *testing.T) {
	var s *CampaignStats
	s.Land(0, entry(outcome.Benign, Counts{WarmRestores: 1, GoldenByConstruction: 1, EarlyExits: 1}))
	s.JournalAppend()
	s.JournalFlush()
	if snap := s.Snapshot(); snap.Done != 0 {
		t.Fatalf("nil snapshot not zero: %+v", snap)
	}
}

func TestCampaignStatsConcurrent(t *testing.T) {
	s := NewCampaignStats("resnet", 1000, 8)
	var wg sync.WaitGroup
	for wk := 0; wk < 8; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Land(wk, entry(outcome.Benign, Counts{IterationsSkipped: 1, IterationsExecuted: 2, DetectorChecks: 3}))
			}
		}(wk)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Done != 800 || snap.IterationsExecuted != 1600 || snap.DetectorChecks != 2400 {
		t.Fatalf("concurrent counters lost updates: %+v", snap)
	}
	for wk, n := range snap.PerWorkerDone {
		if n != 100 {
			t.Fatalf("worker %d counted %d, want 100", wk, n)
		}
	}
}

// TestSnapshotConsistentUnderLand: a snapshot taken while eight workers land
// entries sees every entry whole or not at all — entries keep
// IterationsExecuted == 2·IterationsSkipped, one detector check per skipped
// iteration and one record per worker count, and so must every snapshot.
// ci.sh runs it under -race.
func TestSnapshotConsistentUnderLand(t *testing.T) {
	const workers, perWorker = 8, 500
	s := NewCampaignStats("resnet", workers*perWorker, workers)
	started, stop := make(chan struct{}), make(chan struct{})
	readerDone := make(chan error)
	go func() {
		var err error
		for snaps := 0; ; snaps++ {
			select {
			case <-stop:
				readerDone <- err
				return
			default:
			}
			snap := s.Snapshot()
			if snaps == 0 {
				close(started) // the workers land only once the reader is looping
			}
			var perWorker int64
			for _, n := range snap.PerWorkerDone {
				perWorker += n
			}
			if err == nil && (snap.IterationsExecuted != 2*snap.IterationsSkipped ||
				int64(snap.DetectorChecks) != snap.IterationsSkipped || int64(snap.Done) != snap.IterationsSkipped ||
				perWorker != int64(snap.Done) || snap.Outcomes["Benign"] != snap.Done) {
				err = fmt.Errorf("torn snapshot: %d executed, %d skipped, %d checks, %d done, %d per worker, outcomes %v",
					snap.IterationsExecuted, snap.IterationsSkipped, snap.DetectorChecks, snap.Done, perWorker, snap.Outcomes)
			}
		}
	}()
	<-started
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Land(wk, entry(outcome.Benign, Counts{IterationsSkipped: 1, IterationsExecuted: 2, DetectorChecks: 1}))
			}
		}(wk)
	}
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); snap.Done != workers*perWorker {
		t.Fatalf("landed %d entries, want %d", snap.Done, workers*perWorker)
	}
}

// BenchmarkCampaignStatsLand is the ledger's cost per landed record with
// every benchmark goroutine landing at once — the contended worst case; a
// campaign lands one record per experiment, tens of milliseconds apart.
func BenchmarkCampaignStatsLand(b *testing.B) {
	s := NewCampaignStats("resnet", 1<<20, 8)
	e := entry(outcome.Benign, Counts{IterationsSkipped: 12, IterationsExecuted: 18, DetectorChecks: 18, Forked: 1, WarmRestores: 1, Evaluations: 1})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Land(0, e)
		}
	})
}

// snapshotKeys is the key set /status and expvar serve, which operators'
// scrapers read: the Counts that Snapshot embeds may reorder keys but must
// drop, rename or add none.
var snapshotKeys = []string{
	"cold_restores", "comm_retries", "dedup_adopted", "degraded_iters", "detector_checks",
	"done", "early_exits", "elapsed_sec", "eta_sec", "experiments", "experiments_per_sec",
	"golden_by_construction", "iters_executed", "iters_skipped", "iters_synthesized",
	"jit_snapshots", "journal_appends", "journal_flushes", "outcomes", "per_worker_done",
	"per_worker_per_sec", "quarantines", "readmits", "rejoins", "resizes", "resumed",
	"snapshot_fork_rate", "warm_restores", "workload",
}

// TestSnapshotJSONKeys pins the key set of /status and of the expvar
// "campaign" variable to snapshotKeys.
func TestSnapshotJSONKeys(t *testing.T) {
	s := NewCampaignStats("resnet", 10, 2)
	s.Land(0, entry(outcome.Benign, Counts{IterationsExecuted: 3, ColdRestores: 1}))
	Activate(s)
	status, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"/status": status, "expvar": []byte(expvar.Get("campaign").String())} {
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(body, &keys); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := slices.Sorted(maps.Keys(keys))
		if !slices.Equal(got, snapshotKeys) {
			t.Errorf("%s keys %v, want %v", name, got, snapshotKeys)
		}
	}
}

// TestServeStatus boots the HTTP endpoint on an ephemeral port and checks
// that /status serves the active campaign's live outcome tallies.
func TestServeStatus(t *testing.T) {
	s := NewCampaignStats("transformer", 50, 2)
	s.Land(0, entry(outcome.ImmediateINFNaN, Counts{IterationsExecuted: 3, DetectorChecks: 3, ColdRestores: 1}))
	s.Land(1, entry(outcome.Benign, Counts{WarmRestores: 1}))
	s.Land(1, entry(outcome.Benign, Counts{WarmRestores: 1}))
	Activate(s)

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/status", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Workload != "transformer" || snap.Outcomes["ImmediateINFNaN"] != 1 {
		t.Fatalf("/status served wrong snapshot: %+v", snap)
	}
	if snap.WarmRestores != 2 || snap.ColdRestores != 1 {
		t.Fatalf("/status restore counters = %d warm / %d cold, want 2 / 1", snap.WarmRestores, snap.ColdRestores)
	}

	// The expvar surface must carry the same campaign.
	vars, err := http.Get(fmt.Sprintf("http://%s/debug/vars", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer vars.Body.Close()
	var all map[string]json.RawMessage
	if err := json.NewDecoder(vars.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	var campaign map[string]json.RawMessage
	if err := json.Unmarshal(all["campaign"], &campaign); err != nil {
		t.Fatalf("expvar campaign variable: %v", err)
	}
	for _, key := range []string{"warm_restores", "cold_restores"} {
		if _, ok := campaign[key]; !ok {
			t.Fatalf("expvar campaign variable is missing %q", key)
		}
	}
}
