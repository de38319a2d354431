package telemetry

// Service-level counters of the distributed campaign coordinator
// (internal/dist, cmd/campaignd). Where CampaignStats tracks one campaign's
// experiment progress, DistStats tracks the coordinator's control plane:
// the multi-campaign queue and the lease lifecycle — granted, renewed,
// expired (a worker died or stalled past its deadline), reassigned (an
// expired shard re-granted to a live worker) — plus shard ingestion and
// merge activity. Plain atomic adds on the hot path, nil-safe methods,
// racy-by-design snapshots, an expvar binding ("dist") for /debug/vars.

import (
	"expvar"
	"sync"
	"sync/atomic"
)

// DistStats accumulates the lifetime counters of one coordinator process.
type DistStats struct {
	campaignsSubmitted atomic.Int64
	campaignsDone      atomic.Int64
	campaignsCancelled atomic.Int64
	campaignsFailed    atomic.Int64

	leasesGranted    atomic.Int64
	leasesRenewed    atomic.Int64
	leasesExpired    atomic.Int64
	leasesReassigned atomic.Int64
	leaseRetries     atomic.Int64

	shardsCompleted atomic.Int64
	shardsMerged    atomic.Int64
	recordsIngested atomic.Int64
}

// CampaignSubmitted records one campaign accepted into the queue.
func (s *DistStats) CampaignSubmitted() {
	if s == nil {
		return
	}
	s.campaignsSubmitted.Add(1)
}

// CampaignDone records one campaign merged and completed.
func (s *DistStats) CampaignDone() {
	if s == nil {
		return
	}
	s.campaignsDone.Add(1)
}

// CampaignCancelled records one campaign cancelled via the REST API.
func (s *DistStats) CampaignCancelled() {
	if s == nil {
		return
	}
	s.campaignsCancelled.Add(1)
}

// CampaignFailed records one campaign that failed (ingest or merge error).
func (s *DistStats) CampaignFailed() {
	if s == nil {
		return
	}
	s.campaignsFailed.Add(1)
}

// LeaseGranted records one shard lease handed to a worker; reassigned marks
// a re-grant of a shard whose previous lease expired.
func (s *DistStats) LeaseGranted(reassigned bool) {
	if s == nil {
		return
	}
	s.leasesGranted.Add(1)
	if reassigned {
		s.leasesReassigned.Add(1)
	}
}

// LeaseRenewed records one successful lease renewal.
func (s *DistStats) LeaseRenewed() {
	if s == nil {
		return
	}
	s.leasesRenewed.Add(1)
}

// LeaseRetried records one worker lease poll retried after a transient
// coordinator error (connection refused, timeout, 5xx) — the worker-side
// backoff loop's counter.
func (s *DistStats) LeaseRetried() {
	if s == nil {
		return
	}
	s.leaseRetries.Add(1)
}

// LeaseExpired records one lease that passed its deadline and returned its
// shard to the pending pool.
func (s *DistStats) LeaseExpired() {
	if s == nil {
		return
	}
	s.leasesExpired.Add(1)
}

// ShardCompleted records one shard upload accepted, with the number of
// record lines it carried.
func (s *DistStats) ShardCompleted(records int) {
	if s == nil {
		return
	}
	s.shardsCompleted.Add(1)
	s.recordsIngested.Add(int64(records))
}

// ShardsMerged records the shards of one campaign merged into its
// monolithic journal.
func (s *DistStats) ShardsMerged(n int) {
	if s == nil {
		return
	}
	s.shardsMerged.Add(int64(n))
}

// DistSnapshot is the JSON view of a DistStats at one instant — what the
// coordinator's /status endpoint and the "dist" expvar serve.
type DistSnapshot struct {
	CampaignsSubmitted int64 `json:"campaigns_submitted"`
	CampaignsDone      int64 `json:"campaigns_done"`
	CampaignsCancelled int64 `json:"campaigns_cancelled"`
	CampaignsFailed    int64 `json:"campaigns_failed"`
	LeasesGranted      int64 `json:"leases_granted"`
	LeasesRenewed      int64 `json:"leases_renewed"`
	LeasesExpired      int64 `json:"leases_expired"`
	LeasesReassigned   int64 `json:"leases_reassigned"`
	LeaseRetries       int64 `json:"lease_retries"`
	ShardsCompleted    int64 `json:"shards_completed"`
	ShardsMerged       int64 `json:"shards_merged"`
	RecordsIngested    int64 `json:"records_ingested"`
}

// Snapshot derives the current point-in-time view.
func (s *DistStats) Snapshot() DistSnapshot {
	if s == nil {
		return DistSnapshot{}
	}
	return DistSnapshot{
		CampaignsSubmitted: s.campaignsSubmitted.Load(),
		CampaignsDone:      s.campaignsDone.Load(),
		CampaignsCancelled: s.campaignsCancelled.Load(),
		CampaignsFailed:    s.campaignsFailed.Load(),
		LeasesGranted:      s.leasesGranted.Load(),
		LeasesRenewed:      s.leasesRenewed.Load(),
		LeasesExpired:      s.leasesExpired.Load(),
		LeasesReassigned:   s.leasesReassigned.Load(),
		LeaseRetries:       s.leaseRetries.Load(),
		ShardsCompleted:    s.shardsCompleted.Load(),
		ShardsMerged:       s.shardsMerged.Load(),
		RecordsIngested:    s.recordsIngested.Load(),
	}
}

// activeDist is the coordinator published on the "dist" expvar.
var activeDist atomic.Pointer[DistStats]

var publishDistOnce sync.Once

// ActivateDist makes s the coordinator stats exposed via expvar ("dist").
// Safe to call repeatedly; the latest wins.
func ActivateDist(s *DistStats) {
	activeDist.Store(s)
	publishDistOnce.Do(func() {
		expvar.Publish("dist", expvar.Func(func() any {
			return activeDist.Load().Snapshot()
		}))
	})
}
