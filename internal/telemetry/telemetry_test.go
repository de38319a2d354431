package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/outcome"
)

func TestCampaignStatsSnapshot(t *testing.T) {
	s := NewCampaignStats("resnet", 100, 3)
	s.AddPrior(10)
	s.Land(0, Counts{Outcome: outcome.Benign, Skipped: 5, Executed: 20, Checks: 12, ColdRestore: true})
	s.Land(1, Counts{Outcome: outcome.SlowDegrade, Executed: 25, Checks: 25, ColdRestore: true})
	s.Land(1, Counts{Outcome: outcome.Benign, Skipped: 8, Executed: 17, Synthesized: 4, Checks: 9, WarmRestore: true, EarlyExit: true})
	s.Land(1, Counts{Outcome: outcome.Benign, Adopted: true})
	s.Land(0, Counts{Outcome: outcome.QuarantinedRecovered, Golden: true, Quarantines: 1, Rejoins: 1,
		DegradedIters: 2, CommRetries: 3, JITSnapshots: 4, Resizes: 5, Readmits: 6})
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
	if snap.Outcomes["Benign"] != 3 || snap.Outcomes["SlowDegrade"] != 1 || snap.Outcomes["QuarantinedRecovered"] != 1 {
		t.Fatalf("outcome tallies wrong: %+v", snap.Outcomes)
	}
	if snap.ItersSkipped != 13 || snap.ItersExecuted != 62 || snap.ItersSynthesized != 4 {
		t.Fatalf("iteration counters wrong: %+v", snap)
	}
	if snap.WarmRestores != 1 || snap.ColdRestores != 2 || snap.DedupAdopted != 1 ||
		snap.GoldenByConstruction != 1 || snap.EarlyExits != 1 {
		t.Fatalf("restore or equivalence counters wrong: %+v", snap)
	}
	if snap.Quarantines != 1 || snap.Rejoins != 1 || snap.DegradedIters != 2 || snap.CommRetries != 3 ||
		snap.JITSnapshots != 4 || snap.Resizes != 5 || snap.Readmits != 6 {
		t.Fatalf("mitigation counters wrong: %+v", snap)
	}
	// 2 of 5 landed records forked from a non-initial snapshot.
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
	s.AddPrior(1)
	s.Land(0, Counts{Outcome: outcome.Benign, WarmRestore: true, Golden: true, EarlyExit: true})
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
				s.Land(wk, Counts{Outcome: outcome.Benign, Skipped: 1, Executed: 2, Checks: 3})
			}
		}(wk)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Done != 800 || snap.ItersExecuted != 1600 || snap.DetectorChecks != 2400 {
		t.Fatalf("concurrent counters lost updates: %+v", snap)
	}
	for wk, n := range snap.PerWorkerDone {
		if n != 100 {
			t.Fatalf("worker %d counted %d, want 100", wk, n)
		}
	}
}

// TestServeStatus boots the HTTP endpoint on an ephemeral port and checks
// that /status serves the active campaign's live outcome tallies.
func TestServeStatus(t *testing.T) {
	s := NewCampaignStats("transformer", 50, 2)
	s.Land(0, Counts{Outcome: outcome.ImmediateINFNaN, Executed: 3, Checks: 3, ColdRestore: true})
	s.Land(1, Counts{Outcome: outcome.Benign, WarmRestore: true})
	s.Land(1, Counts{Outcome: outcome.Benign, WarmRestore: true})
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
