// Package dist distributes fault-injection campaigns across worker
// processes without giving up the repo's exactness contract: the merged
// journal of a distributed campaign is byte-identical to the journal an
// uninterrupted single-process run writes.
//
// The coordinator (cmd/campaignd) owns a multi-campaign queue and a lease
// table. Each campaign's experiment index space is partitioned into
// contiguous owner-range shards; workers poll POST /lease for the next
// pending shard, run it through experiment.Resume with RunOptions.Shard —
// reusing the forked-golden snapshots and the dedup/early-exit fast paths
// unchanged — and upload the shard's canonical journal lines via POST
// /complete. Leases carry a TTL and a fencing epoch: a worker that dies or
// stalls simply stops renewing, the sweeper returns its shard to the
// pending pool (bumping the epoch so any zombie renewal or upload is
// rejected with 409), and the next polling worker picks the shard up.
// When the last shard lands, the coordinator merges the per-shard journals
// in shard order (record.MergeShardJournals) into the campaign's
// monolithic journal.
//
// Exactness argument, in three parts proven by three test layers: shards
// partition the *dedup-owner* index space, so an owner and its adoptees
// always land in the same shard and each shard emits the monolithic
// canonical append sequence restricted to its owners
// (experiment.TestShardPartitionEquivalence); shard journals concatenated
// in shard order under a monolithic header reproduce the monolithic file
// bit for bit (record.TestMergeShardJournals); and the full HTTP
// round-trip — specs resolved independently by coordinator and workers,
// lines shipped as JSON, leases expiring and shards reassigned mid-run —
// preserves that identity end to end (TestDistributedCampaignByteIdentity,
// TestWorkerKilledMidShard, run under -race in ci.sh).
package dist

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/record"
	"repro/internal/telemetry"
)

// Options configures a Coordinator.
type Options struct {
	// DataDir holds the per-shard journals and each campaign's merged
	// journal ("<id>.jsonl"). Required.
	DataDir string
	// LeaseTTL is how long a granted lease stays valid without a renewal
	// (default 15s). Workers renew at TTL/3.
	LeaseTTL time.Duration
	// SweepInterval is how often expired leases are reclaimed
	// (default LeaseTTL/4).
	SweepInterval time.Duration
	// DefaultShardSize is the owner-range width used when a spec omits
	// shard_size (default 25).
	DefaultShardSize int
	// Stats receives the service counters (a fresh ledger is created when
	// nil). It is also published on the "dist" expvar.
	Stats *telemetry.DistStats
}

// Coordinator is the campaignd control plane: an http.Handler serving the
// REST API plus the lease sweeper. Create with NewCoordinator, serve with
// net/http, stop with Close.
type Coordinator struct {
	opts  Options
	stats *telemetry.DistStats
	mux   *http.ServeMux

	mu        sync.Mutex
	seq       int
	campaigns map[string]*campaign
	order     []string // submission order

	stop     chan struct{}
	stopOnce sync.Once
	swept    sync.WaitGroup
}

// shard is one owner range of a campaign's lease table.
type shard struct {
	lo, hi   int
	state    string // ShardPending / ShardLeased / ShardDone
	epoch    int64  // bumped on every grant and every expiry (fencing)
	worker   string
	deadline time.Time
	// expired marks that a previous lease on this shard expired, so the
	// next grant counts as a reassignment.
	expired bool
	path    string // shard journal file once done
	records int
}

// campaign is one queued/running campaign's coordinator-side state.
type campaign struct {
	id           string
	spec         CampaignSpec
	cfg          experiment.Config
	fingerprint  string
	goldenDigest string // established by the first completed shard
	state        string
	errMsg       string
	shards       []*shard
	recordsDone  int
	outcomes     map[string]int
	journalPath  string // merged journal once done
}

// NewCoordinator builds the coordinator, creates DataDir, and starts the
// lease sweeper.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("dist: coordinator needs a data directory")
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: creating data directory: %w", err)
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.SweepInterval <= 0 {
		opts.SweepInterval = opts.LeaseTTL / 4
	}
	if opts.DefaultShardSize <= 0 {
		opts.DefaultShardSize = 25
	}
	if opts.Stats == nil {
		opts.Stats = &telemetry.DistStats{}
	}
	telemetry.ActivateDist(opts.Stats)
	c := &Coordinator{
		opts:      opts,
		stats:     opts.Stats,
		campaigns: make(map[string]*campaign),
		stop:      make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", c.handleSubmit)
	mux.HandleFunc("GET /campaigns", c.handleList)
	mux.HandleFunc("GET /campaigns/{id}", c.handleGet)
	mux.HandleFunc("GET /campaigns/{id}/status", c.handleGet)
	mux.HandleFunc("GET /campaigns/{id}/journal", c.handleJournal)
	mux.HandleFunc("DELETE /campaigns/{id}", c.handleCancel)
	mux.HandleFunc("POST /lease", c.handleLease)
	mux.HandleFunc("POST /renew", c.handleRenew)
	mux.HandleFunc("POST /complete", c.handleComplete)
	mux.HandleFunc("GET /status", c.handleStatus)
	mux.Handle("GET /debug/vars", expvar.Handler())
	c.mux = mux
	c.swept.Add(1)
	go c.sweeper()
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Close stops the lease sweeper. Safe to call repeatedly.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.swept.Wait()
}

// Stats exposes the coordinator's service counters.
func (c *Coordinator) Stats() *telemetry.DistStats { return c.stats }

// sweeper periodically reclaims expired leases.
func (c *Coordinator) sweeper() {
	defer c.swept.Done()
	t := time.NewTicker(c.opts.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.mu.Lock()
			c.sweepLocked(now)
			c.mu.Unlock()
		}
	}
}

// sweepLocked returns every overdue lease's shard to the pending pool,
// bumping its epoch so the previous leaseholder is fenced.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, id := range c.order {
		camp := c.campaigns[id]
		if camp.state != StateRunning {
			continue
		}
		for _, sh := range camp.shards {
			if sh.state == ShardLeased && now.After(sh.deadline) {
				sh.state = ShardPending
				sh.epoch++
				sh.worker = ""
				sh.expired = true
				c.stats.LeaseExpired()
			}
		}
	}
}

// handleSubmit: POST /campaigns.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	dec := json.NewDecoder(r.Body)
	// A misspelt or retired field must be refused, not dropped: the campaign
	// that ran would not be the one asked for.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "dist: decoding campaign spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	cfg, err := spec.Config()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	size := spec.ShardSize
	if size <= 0 {
		size = c.opts.DefaultShardSize
	}
	camp := &campaign{
		spec:        spec,
		cfg:         cfg,
		fingerprint: cfg.Fingerprint(),
		state:       StateQueued,
		outcomes:    make(map[string]int),
	}
	for lo := 0; lo < cfg.Experiments; lo += size {
		hi := lo + size
		if hi > cfg.Experiments {
			hi = cfg.Experiments
		}
		camp.shards = append(camp.shards, &shard{lo: lo, hi: hi, state: ShardPending})
	}
	c.mu.Lock()
	c.seq++
	camp.id = fmt.Sprintf("c%04d", c.seq)
	c.campaigns[camp.id] = camp
	c.order = append(c.order, camp.id)
	c.mu.Unlock()
	c.stats.CampaignSubmitted()
	writeJSON(w, http.StatusCreated, SubmitResponse{ID: camp.id})
}

// handleLease: POST /lease — grant the first pending shard in submission
// order, or report idle/drained.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "dist: decoding lease request: "+err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(now)
	for _, id := range c.order {
		camp := c.campaigns[id]
		if camp.state != StateQueued && camp.state != StateRunning {
			continue
		}
		for _, sh := range camp.shards {
			if sh.state != ShardPending {
				continue
			}
			sh.state = ShardLeased
			sh.epoch++
			sh.worker = req.Worker
			sh.deadline = now.Add(c.opts.LeaseTTL)
			camp.state = StateRunning
			c.stats.LeaseGranted(sh.expired)
			writeJSON(w, http.StatusOK, LeaseResponse{Lease: &Lease{
				Campaign:     camp.id,
				Spec:         camp.spec,
				Lo:           sh.lo,
				Hi:           sh.hi,
				Epoch:        sh.epoch,
				Fingerprint:  camp.fingerprint,
				GoldenDigest: camp.goldenDigest,
				TTLMillis:    c.opts.LeaseTTL.Milliseconds(),
			}})
			return
		}
	}
	writeJSON(w, http.StatusOK, LeaseResponse{Drained: c.drainedLocked()})
}

// drainedLocked reports whether every campaign has reached a terminal
// state. A running campaign with only leased shards is NOT drained: the
// lease may yet expire and need a live worker for reassignment.
func (c *Coordinator) drainedLocked() bool {
	for _, id := range c.order {
		switch c.campaigns[id].state {
		case StateQueued, StateRunning:
			return false
		}
	}
	return true
}

// handleRenew: POST /renew.
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "dist: decoding renew request: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	camp, sh, status, msg := c.leaseholderLocked(req.Campaign, req.Lo, req.Hi, req.Epoch)
	if camp == nil {
		http.Error(w, msg, status)
		return
	}
	sh.deadline = time.Now().Add(c.opts.LeaseTTL)
	c.stats.LeaseRenewed()
	w.WriteHeader(http.StatusNoContent)
}

// leaseholderLocked resolves and fences a (campaign, shard, epoch) claim.
// Returns the campaign and shard on success, or (nil, nil, httpStatus,
// message) describing the rejection: 404 for unknown ids/ranges, 410 for a
// terminal campaign (the worker should drop the shard and move on), 409
// for a fenced lease (expired and possibly re-granted elsewhere).
func (c *Coordinator) leaseholderLocked(id string, lo, hi int, epoch int64) (*campaign, *shard, int, string) {
	camp, ok := c.campaigns[id]
	if !ok {
		return nil, nil, http.StatusNotFound, fmt.Sprintf("dist: unknown campaign %q", id)
	}
	if camp.state != StateRunning {
		return nil, nil, http.StatusGone, fmt.Sprintf("dist: campaign %s is %s", id, camp.state)
	}
	for _, sh := range camp.shards {
		if sh.lo != lo || sh.hi != hi {
			continue
		}
		if sh.state != ShardLeased || sh.epoch != epoch {
			return nil, nil, http.StatusConflict, fmt.Sprintf("dist: lease on campaign %s shard [%d,%d) epoch %d is fenced (shard is %s at epoch %d) — the lease expired; drop the shard", id, lo, hi, epoch, sh.state, sh.epoch)
		}
		return camp, sh, 0, ""
	}
	return nil, nil, http.StatusNotFound, fmt.Sprintf("dist: campaign %s has no shard [%d,%d)", id, lo, hi)
}

// handleComplete: POST /complete — validate, persist the shard journal,
// and merge the campaign when its last shard lands.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "dist: decoding complete request: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	camp, sh, status, msg := c.leaseholderLocked(req.Campaign, req.Lo, req.Hi, req.Epoch)
	if camp == nil {
		http.Error(w, msg, status)
		return
	}
	if req.Fingerprint != camp.fingerprint {
		http.Error(w, fmt.Sprintf("dist: worker %s resolved campaign %s to fingerprint %s, coordinator has %s — coordinator and worker run different binaries or disagree on the spec; upgrade the drifted side", req.Worker, camp.id, req.Fingerprint, camp.fingerprint), http.StatusConflict)
		return
	}
	if req.GoldenDigest == "" {
		http.Error(w, fmt.Sprintf("dist: shard [%d,%d) upload from worker %s carries no golden digest", req.Lo, req.Hi, req.Worker), http.StatusBadRequest)
		return
	}
	if camp.goldenDigest != "" && req.GoldenDigest != camp.goldenDigest {
		c.failLocked(camp, fmt.Sprintf("worker %s reports golden digest %s but the campaign's established digest is %s — workers run numerically different binaries, their records fork from different golden trajectories and cannot be merged", req.Worker, req.GoldenDigest, camp.goldenDigest))
		http.Error(w, "dist: "+camp.errMsg, http.StatusConflict)
		return
	}
	recs, err := record.DecodeJournalLines(req.Lines, camp.cfg.Experiments)
	if err != nil {
		http.Error(w, fmt.Sprintf("dist: shard [%d,%d) upload from worker %s is invalid: %v", req.Lo, req.Hi, req.Worker, err), http.StatusBadRequest)
		return
	}
	digest := req.GoldenDigest
	path := filepath.Join(c.opts.DataDir, fmt.Sprintf("%s.shard-%s.jsonl", camp.id, record.ShardBinding(sh.lo, sh.hi)))
	os.Remove(path) // stale file from an expired predecessor's epoch
	if err := record.WriteShardJournal(path, camp.cfg, digest, sh.lo, sh.hi, req.Lines); err != nil {
		http.Error(w, "dist: persisting shard journal: "+err.Error(), http.StatusInternalServerError)
		return
	}
	camp.goldenDigest = digest
	sh.state = ShardDone
	sh.worker = ""
	sh.path = path
	sh.records = len(recs)
	camp.recordsDone += len(recs)
	for _, rec := range recs {
		camp.outcomes[rec.Outcome.String()]++
	}
	c.stats.ShardCompleted(len(req.Lines))
	if camp.shardsDoneLocked() == len(camp.shards) {
		c.mergeLocked(camp)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (camp *campaign) shardsDoneLocked() int {
	n := 0
	for _, sh := range camp.shards {
		if sh.state == ShardDone {
			n++
		}
	}
	return n
}

// mergeLocked merges a fully-ingested campaign's shard journals into its
// monolithic journal.
func (c *Coordinator) mergeLocked(camp *campaign) {
	files := make([]record.ShardFile, 0, len(camp.shards))
	for _, sh := range camp.shards {
		files = append(files, record.ShardFile{Path: sh.path, Lo: sh.lo, Hi: sh.hi})
	}
	dst := filepath.Join(c.opts.DataDir, camp.id+".jsonl")
	os.Remove(dst)
	if err := record.MergeShardJournals(dst, camp.cfg, camp.goldenDigest, files); err != nil {
		c.failLocked(camp, "merging shard journals: "+err.Error())
		return
	}
	camp.journalPath = dst
	camp.state = StateDone
	c.stats.ShardsMerged(len(files))
	c.stats.CampaignDone()
}

// failLocked moves a campaign to the terminal failed state.
func (c *Coordinator) failLocked(camp *campaign, msg string) {
	camp.state = StateFailed
	camp.errMsg = msg
	c.stats.CampaignFailed()
}

// handleCancel: DELETE /campaigns/{id}.
func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	defer c.mu.Unlock()
	camp, ok := c.campaigns[id]
	if !ok {
		http.Error(w, fmt.Sprintf("dist: unknown campaign %q", id), http.StatusNotFound)
		return
	}
	switch camp.state {
	case StateQueued, StateRunning:
		camp.state = StateCancelled
		c.stats.CampaignCancelled()
		writeJSON(w, http.StatusOK, camp.statusLocked())
	default:
		http.Error(w, fmt.Sprintf("dist: campaign %s is already %s", id, camp.state), http.StatusConflict)
	}
}

// handleGet: GET /campaigns/{id} and GET /campaigns/{id}/status.
func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	camp, ok := c.campaigns[id]
	var st CampaignStatus
	if ok {
		st = camp.statusLocked()
	}
	c.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("dist: unknown campaign %q", id), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleList: GET /campaigns.
func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.listStatuses())
}

// handleStatus: GET /status.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ServiceStatus{
		Counters:  c.stats.Snapshot(),
		Campaigns: c.listStatuses(),
	})
}

func (c *Coordinator) listStatuses() []CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CampaignStatus, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.campaigns[id].statusLocked())
	}
	return out
}

// handleJournal: GET /campaigns/{id}/journal — the merged journal bytes of
// a done campaign.
func (c *Coordinator) handleJournal(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	camp, ok := c.campaigns[id]
	var state, path string
	if ok {
		state, path = camp.state, camp.journalPath
	}
	c.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("dist: unknown campaign %q", id), http.StatusNotFound)
		return
	}
	if state != StateDone {
		http.Error(w, fmt.Sprintf("dist: campaign %s is %s; the merged journal is available once it is done", id, state), http.StatusNotFound)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		http.Error(w, "dist: reading merged journal: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(raw)
}

// statusLocked renders the campaign's API view (coordinator lock held).
func (camp *campaign) statusLocked() CampaignStatus {
	st := CampaignStatus{
		ID:           camp.id,
		State:        camp.state,
		Spec:         camp.spec,
		Fingerprint:  camp.fingerprint,
		GoldenDigest: camp.goldenDigest,
		ShardsDone:   camp.shardsDoneLocked(),
		RecordsDone:  camp.recordsDone,
		Error:        camp.errMsg,
	}
	for _, sh := range camp.shards {
		st.Shards = append(st.Shards, ShardStatus{
			Lo: sh.lo, Hi: sh.hi, State: sh.state,
			Worker: sh.worker, Epoch: sh.epoch, Records: sh.records,
		})
	}
	if len(camp.outcomes) > 0 {
		st.Outcomes = make(map[string]int, len(camp.outcomes))
		for k, v := range camp.outcomes {
			st.Outcomes[k] = v
		}
	}
	return st
}

// writeJSON renders v as the response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
