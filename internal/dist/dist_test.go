package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/record"
	"repro/internal/telemetry"
)

func testSpec(n int, seed int64, shardSize int) CampaignSpec {
	return CampaignSpec{Workload: "resnet", Experiments: n, Seed: seed, Iters: 12, ShardSize: shardSize}
}

// monolithicJournal runs the spec in-process, single campaign, and returns
// the journal bytes a local `repro campaign -journal` run would have written.
func monolithicJournal(t *testing.T, spec CampaignSpec) []byte {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	g := experiment.PrepareGolden(cfg)
	path := filepath.Join(t.TempDir(), "mono.jsonl")
	j, err := record.CreateJournal(path, cfg, g.Ref().Digest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.Resume(cfg, experiment.RunOptions{Golden: g, Sink: j}); err != nil {
		t.Fatalf("monolithic run failed: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func startCoordinator(t *testing.T, ttl time.Duration) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(Options{DataDir: t.TempDir(), LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	t.Cleanup(func() { srv.Close(); c.Close() })
	return c, srv
}

// postJSON posts v and returns the status code plus the raw response body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func submit(t *testing.T, base string, spec CampaignSpec) string {
	t.Helper()
	status, body := postJSON(t, base+"/campaigns", spec)
	if status != http.StatusCreated {
		t.Fatalf("POST /campaigns = HTTP %d: %s", status, body)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.ID
}

func getStatus(t *testing.T, base, id string) CampaignStatus {
	t.Helper()
	resp, err := http.Get(base + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /campaigns/%s = HTTP %d: %s", id, resp.StatusCode, body)
	}
	var st CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func fetchJournal(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/campaigns/" + id + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /campaigns/%s/journal = HTTP %d: %s", id, resp.StatusCode, body)
	}
	return body
}

func runWorkers(t *testing.T, base string, n int) {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(context.Background(), WorkerOptions{
				Coordinator: base,
				ID:          fmt.Sprintf("w%d", i),
				Drain:       true,
				Poll:        20 * time.Millisecond,
				Workers:     2,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d failed: %v", i, err)
		}
	}
}

// TestDistributedCampaignByteIdentity is the end-to-end exactness proof:
// a campaign sharded over the HTTP protocol — specs resolved independently
// by coordinator and workers, record lines shipped as JSON, shards merged
// by the coordinator — yields a journal byte-identical to a single-process
// run, for 1, 2, and 4 workers, with and without the dedup/early-exit fast
// paths.
func TestDistributedCampaignByteIdentity(t *testing.T) {
	for _, tc := range []struct {
		name             string
		dedup, earlyExit bool
	}{
		{"plain", false, false},
		{"dedup-early-exit", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec(16, 7, 5) // shards [0,5) [5,10) [10,15) [15,16)
			spec.Dedup, spec.EarlyExit = tc.dedup, tc.earlyExit
			want := monolithicJournal(t, spec)
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					_, srv := startCoordinator(t, 10*time.Second)
					id := submit(t, srv.URL, spec)
					runWorkers(t, srv.URL, workers)
					st := getStatus(t, srv.URL, id)
					if st.State != StateDone {
						t.Fatalf("campaign state = %s (error %q), want done", st.State, st.Error)
					}
					if st.RecordsDone != spec.Experiments {
						t.Fatalf("records_done = %d, want %d", st.RecordsDone, spec.Experiments)
					}
					got := fetchJournal(t, srv.URL, id)
					if !bytes.Equal(got, want) {
						t.Fatalf("merged journal differs from monolithic run:\nmono:   %d bytes\nmerged: %d bytes", len(want), len(got))
					}
				})
			}
		})
	}
}

// TestWorkerGoldenCache: a long-lived worker keys its Goldens by golden
// identity, not by campaign, and holds at most maxGoldens of them. Four
// campaigns over two identities — each identity once more as a swept spec
// (other population, other fast-path flags) or a plain re-submission —
// prepare two Goldens; a third identity evicts one instead of growing the
// cache. Every merged journal still equals its single-process run.
func TestWorkerGoldenCache(t *testing.T) {
	_, srv := startCoordinator(t, 10*time.Second)
	a, b := testSpec(6, 7, 3), testSpec(6, 8, 3)
	swept := a
	swept.Experiments, swept.Dedup, swept.EarlyExit = 8, true, true
	specs := []CampaignSpec{a, b, swept, b}
	var ids []string
	for _, spec := range specs {
		ids = append(ids, submit(t, srv.URL, spec))
	}

	var out bytes.Buffer
	held := 0
	var w *worker
	w = newWorker(WorkerOptions{
		Coordinator: srv.URL, ID: "w", Drain: true, Poll: 20 * time.Millisecond, Workers: 2,
		Client: http.DefaultClient, Output: &out,
		onLease: func(*Lease) { held = max(held, len(w.goldens)) },
	})
	if err := w.run(context.Background()); err != nil {
		t.Fatalf("worker failed: %v", err)
	}
	if n := strings.Count(out.String(), "preparing golden reference"); n != 2 {
		t.Fatalf("four campaigns over two golden identities prepared %d goldens, want 2:\n%s", n, out.String())
	}
	if len(w.stats) != len(specs) {
		t.Fatalf("%d telemetry ledgers for %d campaigns", len(w.stats), len(specs))
	}
	for i, id := range ids {
		if st := getStatus(t, srv.URL, id); st.State != StateDone {
			t.Fatalf("campaign %s state = %s (error %q), want done", id, st.State, st.Error)
		}
		if got, want := fetchJournal(t, srv.URL, id), monolithicJournal(t, specs[i]); !bytes.Equal(got, want) {
			t.Fatalf("campaign %s: merged journal differs from the single-process run", id)
		}
	}

	out.Reset()
	submit(t, srv.URL, testSpec(4, 9, 2))
	if err := w.run(context.Background()); err != nil {
		t.Fatalf("worker failed on the third identity: %v", err)
	}
	if n := strings.Count(out.String(), "preparing golden reference"); n != 1 {
		t.Fatalf("a third golden identity prepared %d goldens, want 1", n)
	}
	if held = max(held, len(w.goldens)); held > maxGoldens {
		t.Fatalf("worker held %d goldens, bound is %d", held, maxGoldens)
	}
}

// TestWorkerKilledMidShard is the fault-tolerance half of the contract: a
// worker that dies holding a lease (its context is cancelled right after
// the grant, so it neither completes nor renews) must not stall or corrupt
// the campaign — the lease expires, the shard is reassigned to a live
// worker, and the merged journal is still byte-identical.
func TestWorkerKilledMidShard(t *testing.T) {
	spec := testSpec(16, 21, 5)
	want := monolithicJournal(t, spec)
	c, srv := startCoordinator(t, 250*time.Millisecond)
	id := submit(t, srv.URL, spec)

	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	errA := RunWorker(actx, WorkerOptions{
		Coordinator: srv.URL,
		ID:          "doomed",
		Poll:        20 * time.Millisecond,
		Workers:     2,
		onLease:     func(*Lease) { acancel() },
	})
	if !errors.Is(errA, context.Canceled) {
		t.Fatalf("doomed worker returned %v, want context.Canceled", errA)
	}
	if st := getStatus(t, srv.URL, id); st.ShardsDone != 0 {
		t.Fatalf("doomed worker completed %d shards, want 0", st.ShardsDone)
	}

	runWorkers(t, srv.URL, 1) // the survivor drains everything, reassignment included

	snap := c.Stats().Snapshot()
	if snap.LeasesExpired < 1 {
		t.Fatalf("leases_expired = %d, want >= 1 (the doomed worker's lease must expire)", snap.LeasesExpired)
	}
	if snap.LeasesReassigned < 1 {
		t.Fatalf("leases_reassigned = %d, want >= 1 (the expired shard must be re-granted)", snap.LeasesReassigned)
	}
	st := getStatus(t, srv.URL, id)
	if st.State != StateDone {
		t.Fatalf("campaign state = %s (error %q), want done", st.State, st.Error)
	}
	if got := fetchJournal(t, srv.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("merged journal differs from monolithic run after reassignment:\nmono:   %d bytes\nmerged: %d bytes", len(want), len(got))
	}
}

// TestConcurrentCampaignAPI exercises the multi-campaign queue: several
// campaigns queued at once, one cancelled before it runs, status watchers
// polling concurrently with the workers, and per-campaign journals served
// independently.
func TestConcurrentCampaignAPI(t *testing.T) {
	c, srv := startCoordinator(t, 10*time.Second)
	spec1 := testSpec(8, 5, 4)
	spec3 := testSpec(8, 7, 8)
	want1 := monolithicJournal(t, spec1)
	want3 := monolithicJournal(t, spec3)

	id1 := submit(t, srv.URL, spec1)
	id2 := submit(t, srv.URL, testSpec(8, 6, 4))
	id3 := submit(t, srv.URL, spec3)

	// Cancel the middle campaign before any worker touches it.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/campaigns/"+id2, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /campaigns/%s = HTTP %d, want 200", id2, resp.StatusCode)
	}
	// A second cancel conflicts: the campaign is already terminal.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE /campaigns/%s = HTTP %d, want 409", id2, resp.StatusCode)
	}

	// Watchers hammer the status endpoints while the workers run.
	stopWatch := make(chan struct{})
	var watchers sync.WaitGroup
	for i := 0; i < 3; i++ {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			for {
				select {
				case <-stopWatch:
					return
				default:
				}
				getStatus(t, srv.URL, id1)
				r, err := http.Get(srv.URL + "/status")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
			}
		}()
	}

	runWorkers(t, srv.URL, 2)
	close(stopWatch)
	watchers.Wait()

	if st := getStatus(t, srv.URL, id1); st.State != StateDone {
		t.Fatalf("campaign %s state = %s (error %q), want done", id1, st.State, st.Error)
	}
	if st := getStatus(t, srv.URL, id3); st.State != StateDone {
		t.Fatalf("campaign %s state = %s (error %q), want done", id3, st.State, st.Error)
	}
	st2 := getStatus(t, srv.URL, id2)
	if st2.State != StateCancelled || st2.ShardsDone != 0 {
		t.Fatalf("cancelled campaign %s: state=%s shards_done=%d, want cancelled/0", id2, st2.State, st2.ShardsDone)
	}
	// A cancelled campaign has no merged journal.
	r, err := http.Get(srv.URL + "/campaigns/" + id2 + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("GET journal of cancelled campaign = HTTP %d, want 404", r.StatusCode)
	}

	if got := fetchJournal(t, srv.URL, id1); !bytes.Equal(got, want1) {
		t.Fatalf("campaign %s journal differs from its monolithic run", id1)
	}
	if got := fetchJournal(t, srv.URL, id3); !bytes.Equal(got, want3) {
		t.Fatalf("campaign %s journal differs from its monolithic run", id3)
	}

	snap := c.Stats().Snapshot()
	if snap.CampaignsSubmitted != 3 || snap.CampaignsDone != 2 || snap.CampaignsCancelled != 1 {
		t.Fatalf("counters = %+v, want 3 submitted / 2 done / 1 cancelled", snap)
	}
	if snap.ShardsMerged != 2+1 {
		t.Fatalf("shards_merged = %d, want 3 (two shards of %s + one of %s)", snap.ShardsMerged, id1, id3)
	}
}

// TestLeaseEpochFencing drives the lease state machine by hand: an expired
// lease's renewals and uploads are rejected with 409, the shard re-grants
// at a strictly higher epoch, and only the live epoch can complete it.
func TestLeaseEpochFencing(t *testing.T) {
	ttl := 200 * time.Millisecond
	c, srv := startCoordinator(t, ttl)
	spec := testSpec(4, 9, 4) // a single shard [0,4)
	id := submit(t, srv.URL, spec)

	leaseOnce := func(worker string) *Lease {
		status, body := postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: worker})
		if status != http.StatusOK {
			t.Fatalf("POST /lease = HTTP %d: %s", status, body)
		}
		var lr LeaseResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			t.Fatal(err)
		}
		return lr.Lease
	}

	stale := leaseOnce("zombie")
	if stale == nil || stale.Campaign != id {
		t.Fatalf("expected a lease on %s, got %+v", id, stale)
	}

	// Run the shard up front so the live completion below is immediate
	// (the short TTL would otherwise expire the fresh lease mid-run).
	cfg, err := stale.Spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	g := experiment.PrepareGolden(cfg)
	buf := &record.LineBuffer{}
	sh := &experiment.Shard{Lo: stale.Lo, Hi: stale.Hi}
	if _, err := experiment.Resume(cfg, experiment.RunOptions{Golden: g, Sink: buf, Shard: sh}); err != nil {
		t.Fatal(err)
	}

	// Let the zombie's lease expire (sweeper runs every TTL/4).
	time.Sleep(ttl + ttl/2)

	renew := RenewRequest{Worker: "zombie", Campaign: id, Lo: stale.Lo, Hi: stale.Hi, Epoch: stale.Epoch}
	if status, body := postJSON(t, srv.URL+"/renew", renew); status != http.StatusConflict {
		t.Fatalf("stale renew = HTTP %d: %s, want 409", status, body)
	}
	complete := CompleteRequest{
		Worker: "zombie", Campaign: id, Lo: stale.Lo, Hi: stale.Hi, Epoch: stale.Epoch,
		Fingerprint: stale.Fingerprint, GoldenDigest: g.Ref().Digest(), Lines: buf.Lines(),
	}
	if status, body := postJSON(t, srv.URL+"/complete", complete); status != http.StatusConflict {
		t.Fatalf("stale complete = HTTP %d: %s, want 409", status, body)
	}

	live := leaseOnce("live")
	if live == nil {
		t.Fatal("expired shard was not re-granted")
	}
	if live.Lo != stale.Lo || live.Hi != stale.Hi {
		t.Fatalf("re-grant covers [%d,%d), want [%d,%d)", live.Lo, live.Hi, stale.Lo, stale.Hi)
	}
	if live.Epoch <= stale.Epoch {
		t.Fatalf("re-granted epoch %d is not above the expired epoch %d", live.Epoch, stale.Epoch)
	}

	complete.Worker, complete.Epoch = "live", live.Epoch
	if status, body := postJSON(t, srv.URL+"/complete", complete); status >= 300 {
		t.Fatalf("live complete = HTTP %d: %s", status, body)
	}
	if st := getStatus(t, srv.URL, id); st.State != StateDone {
		t.Fatalf("campaign state = %s (error %q), want done", st.State, st.Error)
	}

	snap := c.Stats().Snapshot()
	if snap.LeasesExpired < 1 || snap.LeasesReassigned < 1 {
		t.Fatalf("counters = %+v, want >=1 expired and >=1 reassigned", snap)
	}
}

// TestUploadOutsideTheLeaseIsRefused: a shard upload carrying a record whose
// dedup owner lies outside the leased range is refused with 400 before
// anything is persisted or counted, the lease stays held, and the shard's
// own records still complete it afterwards.
func TestUploadOutsideTheLeaseIsRefused(t *testing.T) {
	c, srv := startCoordinator(t, 10*time.Second)
	spec := testSpec(8, 9, 4) // shards [0,4) [4,8)
	id := submit(t, srv.URL, spec)
	status, body := postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "w"})
	var lr LeaseResponse
	if err := json.Unmarshal(body, &lr); err != nil || status != http.StatusOK || lr.Lease == nil {
		t.Fatalf("POST /lease = HTTP %d: %s", status, body)
	}
	l := lr.Lease
	if l.Lo != 0 || l.Hi != 4 {
		t.Fatalf("first lease covers [%d,%d), want [0,4)", l.Lo, l.Hi)
	}

	// Run the whole campaign locally: the shard's own lines, plus one from
	// the other shard.
	cfg, err := l.Spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	g := experiment.PrepareGolden(cfg)
	buf := &record.LineBuffer{}
	if _, err := experiment.Resume(cfg, experiment.RunOptions{Golden: g, Sink: buf}); err != nil {
		t.Fatal(err)
	}
	var own, other []string
	for _, line := range buf.Lines() {
		var head struct {
			I int `json:"i"`
		}
		if err := json.Unmarshal([]byte(line), &head); err != nil {
			t.Fatal(err)
		}
		if head.I < l.Hi {
			own = append(own, line)
		} else {
			other = append(other, line)
		}
	}
	if len(own) != 4 || len(other) != 4 {
		t.Fatalf("%d lines of [0,4) and %d of [4,8), want 4 and 4", len(own), len(other))
	}
	stray := other[2]

	complete := CompleteRequest{Worker: "w", Campaign: id, Lo: l.Lo, Hi: l.Hi, Epoch: l.Epoch,
		Fingerprint: l.Fingerprint, GoldenDigest: g.Ref().Digest(), Lines: append(append([]string(nil), own...), stray)}
	status, body = postJSON(t, srv.URL+"/complete", complete)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "outside the lease") {
		t.Fatalf("upload with a record of [4,8) = HTTP %d: %s, want 400", status, body)
	}
	st := getStatus(t, srv.URL, id)
	if st.RecordsDone != 0 || st.ShardsDone != 0 || st.GoldenDigest != "" || st.Shards[0].State != ShardLeased {
		t.Fatalf("refused upload left state behind: %+v", st)
	}
	if entries, _ := os.ReadDir(c.opts.DataDir); len(entries) != 0 {
		t.Fatalf("refused upload persisted %d files", len(entries))
	}

	complete.Lines = own
	if status, body := postJSON(t, srv.URL+"/complete", complete); status != http.StatusNoContent {
		t.Fatalf("upload of the shard's own records = HTTP %d: %s", status, body)
	}
	if st := getStatus(t, srv.URL, id); st.RecordsDone != 4 || st.ShardsDone != 1 {
		t.Fatalf("after the valid upload: %d records, %d shards done; want 4 and 1", st.RecordsDone, st.ShardsDone)
	}
}

// TestSubmitValidation: malformed and contradictory specs are rejected at
// the door with 400 — a field the spec does not have by name, so an old
// client's {"quarantine":true} or {"converged_tail":true} or a typo never
// runs a different campaign than asked — and unknown campaign ids 404.
func TestSubmitValidation(t *testing.T) {
	_, srv := startCoordinator(t, time.Second)
	for _, tc := range []struct {
		name, body, want string
	}{
		{"bad-json", "{", ""},
		{"unknown-workload", `{"workload":"nope","experiments":4,"seed":1}`, ""},
		{"zero-experiments", `{"workload":"resnet","experiments":0,"seed":1}`, ""},
		{"negative-shard-size", `{"workload":"resnet","experiments":4,"seed":1,"shard_size":-1}`, ""},
		{"device-faults-with-dedup", `{"workload":"resnet","experiments":4,"seed":1,"device_faults":"all","dedup":true}`, ""},
		{"unknown-device-fault", `{"workload":"resnet","experiments":4,"seed":1,"device_faults":"gamma-ray"}`, ""},
		{"recovery-without-device-faults", `{"workload":"resnet","experiments":4,"seed":1,"recovery":"jit"}`, "device-fault"},
		{"unknown-recovery", `{"workload":"resnet","experiments":4,"seed":1,"device_faults":"all","recovery":"none"}`, `"none"`},
		{"retired-field", `{"workload":"resnet","experiments":4,"seed":1,"device_faults":"all","quarantine":true}`, `"quarantine"`},
		{"retired-converged-tail", `{"workload":"resnet","experiments":4,"seed":1,"converged_tail":true}`, `"converged_tail"`},
		{"retired-converged-tol", `{"workload":"resnet","experiments":4,"seed":1,"converged_tol":0.01}`, `"converged_tol"`},
		{"retired-converged-patience", `{"workload":"resnet","experiments":4,"seed":1,"converged_patience":7}`, `"converged_patience"`},
		{"retired-early-exit-stride", `{"workload":"resnet","experiments":4,"seed":1,"early_exit":true,"early_exit_stride":1}`, `"early_exit_stride"`},
		{"misspelt-field", `{"workload":"resnet","experiments":4,"seed":1,"dedupe":true}`, `"dedupe"`},
	} {
		resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Fatalf("%s: POST /campaigns = HTTP %d: %s, want 400 naming %s", tc.name, resp.StatusCode, body, tc.want)
		}
	}

	resp, err := http.Get(srv.URL + "/campaigns/c9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown campaign = HTTP %d, want 404", resp.StatusCode)
	}
}

// TestWorkerLeaseBackoff (the transient-coordinator-error fix): a worker
// whose lease polls hit transient failures must retry with backoff instead
// of dying — here the first requests are 503s from a flaky front end, after
// which the worker completes a whole campaign — while a persistently
// unreachable coordinator still becomes a loud fatal error after the
// bounded retry budget. Each retry is counted on telemetry.DistStats.
func TestWorkerLeaseBackoff(t *testing.T) {
	origBase, origCap := leaseBackoffBase, leaseBackoffCap
	leaseBackoffBase, leaseBackoffCap = time.Millisecond, 5*time.Millisecond
	t.Cleanup(func() { leaseBackoffBase, leaseBackoffCap = origBase, origCap })

	_, srv := startCoordinator(t, time.Minute)
	id := submit(t, srv.URL, testSpec(4, 9, 2))

	// A flaky front end: the first three /lease polls fail with 503, then
	// everything proxies through to the real coordinator.
	backend, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(backend)
	var fails atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/lease" && fails.Add(1) <= 3 {
			http.Error(w, "coordinator restarting", http.StatusServiceUnavailable)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	stats := &telemetry.DistStats{}
	err = RunWorker(context.Background(), WorkerOptions{
		Coordinator: flaky.URL,
		ID:          "flaky-worker",
		Drain:       true,
		Poll:        10 * time.Millisecond,
		Workers:     2,
		Stats:       stats,
	})
	if err != nil {
		t.Fatalf("worker did not survive transient lease failures: %v", err)
	}
	if got := stats.Snapshot().LeaseRetries; got != 3 {
		t.Fatalf("LeaseRetries = %d, want 3", got)
	}
	if st := getStatus(t, srv.URL, id); st.State != StateDone {
		t.Fatalf("campaign state %s, want done", st.State)
	}

	// Persistent failure: every poll 500s; the worker must give up after
	// the bounded budget with an actionable error, not loop forever.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer dead.Close()
	stats2 := &telemetry.DistStats{}
	err = RunWorker(context.Background(), WorkerOptions{
		Coordinator: dead.URL, Drain: true, Poll: time.Millisecond, Stats: stats2,
	})
	if err == nil || !strings.Contains(err.Error(), "after 6 retries") {
		t.Fatalf("persistently failing coordinator not fatal after the retry budget: %v", err)
	}
	if got := stats2.Snapshot().LeaseRetries; got != 6 {
		t.Fatalf("LeaseRetries = %d, want the full budget 6", got)
	}
}
