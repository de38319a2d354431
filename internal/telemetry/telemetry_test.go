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
	s.ExperimentDone(0, outcome.Benign, 5, 20, 12)
	s.ExperimentDone(1, outcome.SlowDegrade, 0, 25, 25)
	s.ExperimentDone(1, outcome.Benign, 8, 17, 9)
	s.JournalAppend()
	s.JournalAppend()
	s.JournalFlush()

	snap := s.Snapshot()
	if snap.Workload != "resnet" || snap.Experiments != 100 {
		t.Fatalf("identity fields wrong: %+v", snap)
	}
	if snap.Done != 13 || snap.Resumed != 10 {
		t.Fatalf("Done/Resumed = %d/%d, want 13/10", snap.Done, snap.Resumed)
	}
	if snap.Outcomes["Benign"] != 2 || snap.Outcomes["SlowDegrade"] != 1 {
		t.Fatalf("outcome tallies wrong: %+v", snap.Outcomes)
	}
	if snap.ItersSkipped != 13 || snap.ItersExecuted != 62 {
		t.Fatalf("iteration counters wrong: %+v", snap)
	}
	// 2 of 3 completed experiments forked from a non-initial snapshot.
	if want := 2.0 / 3.0; snap.SnapshotForkRate != want {
		t.Fatalf("SnapshotForkRate = %g, want %g", snap.SnapshotForkRate, want)
	}
	if snap.DetectorChecks != 46 {
		t.Fatalf("DetectorChecks = %d, want 46", snap.DetectorChecks)
	}
	if snap.JournalAppends != 2 || snap.JournalFlushes != 1 {
		t.Fatalf("journal counters wrong: %+v", snap)
	}
	if len(snap.PerWorkerDone) != 3 || snap.PerWorkerDone[0] != 1 || snap.PerWorkerDone[1] != 2 {
		t.Fatalf("per-worker counters wrong: %+v", snap.PerWorkerDone)
	}
	if snap.ExperimentsPerSec <= 0 || snap.ETASec < 0 {
		t.Fatalf("rate/ETA not derived: %+v", snap)
	}
}

func TestCampaignStatsNilSafe(t *testing.T) {
	var s *CampaignStats
	s.AddPrior(1)
	s.ExperimentDone(0, outcome.Benign, 0, 0, 0)
	s.JournalAppend()
	s.JournalFlush()
	s.EngineRestore(true)
	s.GoldenByConstruction(outcome.Benign, true)
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
				s.ExperimentDone(wk, outcome.Benign, 1, 2, 3)
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
	s.ExperimentDone(0, outcome.ImmediateINFNaN, 0, 3, 3)
	s.EngineRestore(false)
	s.EngineRestore(true)
	s.EngineRestore(true)
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
