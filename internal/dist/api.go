package dist

// Wire types of the campaignd REST API. Everything the coordinator and
// workers exchange is plain JSON over HTTP: campaign submissions
// (CampaignSpec), shard leases (LeaseRequest/LeaseResponse/Lease), lease
// renewals (RenewRequest), shard uploads (CompleteRequest), and the status
// views (CampaignStatus, ServiceStatus). CampaignSpec is also what
// `repro campaign` parses its campaign-shaping flags into, so a distributed
// campaign and a local invocation with the same settings resolve through
// one function (CampaignSpec.Config) to the same experiment.Config — which
// is what makes the merged journal byte-identical to a single-process run.

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/recovery"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// CampaignSpec describes one campaign: the body of POST /campaigns and the
// target of `repro campaign`'s campaign-shaping flags. Zero values mean the
// default, so a minimal submission is
// {"workload":"resnet","experiments":100,"seed":1}.
type CampaignSpec struct {
	// Workload is a Table-2 workload name (workloads.ByName).
	Workload string `json:"workload"`
	// Experiments is the number of fault-injection experiments.
	Experiments int `json:"experiments"`
	// Seed is the campaign seed.
	Seed int64 `json:"seed"`
	// Iters overrides the workload's fault-free training length
	// (0 = workload default).
	Iters int `json:"iters,omitempty"`
	// ShardSize is the owner-range width of each lease (0 = coordinator
	// default). Purely an execution knob: it never changes the merged
	// journal's bytes, only how the index space is parceled out.
	ShardSize int `json:"shard_size,omitempty"`

	// DeviceFaults switches to a system-level device-fault campaign:
	// "all" or a comma-separated subset of link-sdc,stuck-at,straggler,crash
	// ("" = FF bit-flip campaign).
	DeviceFaults string `json:"device_faults,omitempty"`
	// Recovery selects how a device-fault campaign is mitigated, by name:
	// reexec, jit, elastic or degraded ("" = unmitigated).
	Recovery string `json:"recovery,omitempty"`

	// Dedup / EarlyExit / EarlyExitStride are the exact equivalence-layer
	// fast paths (Dedup: FF campaigns only; EarlyExit in a device-fault
	// campaign exits what is golden by construction and nothing else). They
	// compose with sharding: shards partition the dedup-owner index space,
	// so owners and their adoptees always land in the same shard.
	Dedup           bool `json:"dedup,omitempty"`
	EarlyExit       bool `json:"early_exit,omitempty"`
	EarlyExitStride int  `json:"early_exit_stride,omitempty"`
	// ConvergedTail and its tuning knobs enable the approximate
	// golden-trace tail fast path.
	ConvergedTail     bool    `json:"converged_tail,omitempty"`
	ConvergedTol      float64 `json:"converged_tol,omitempty"`
	ConvergedPatience int     `json:"converged_patience,omitempty"`
}

// Config validates the spec and resolves it to the experiment.Config it
// describes. It is the one validator of campaign descriptions: `repro campaign`,
// the coordinator and every worker call it, so they agree on the campaign
// identity (experiment.Config.Spec) by construction.
func (s CampaignSpec) Config() (experiment.Config, error) {
	var cfg experiment.Config
	if s.Experiments <= 0 {
		return cfg, fmt.Errorf("dist: campaign spec needs experiments > 0 (got %d)", s.Experiments)
	}
	w, err := workloads.ByName(s.Workload)
	if err != nil {
		return cfg, err
	}
	if s.Iters < 0 {
		return cfg, fmt.Errorf("dist: campaign spec iters must be >= 0 (got %d)", s.Iters)
	}
	if s.Iters > 0 {
		w.Iters = s.Iters
	}
	if s.ShardSize < 0 {
		return cfg, fmt.Errorf("dist: campaign spec shard_size must be >= 0 (got %d)", s.ShardSize)
	}
	kinds, err := parseDeviceFaultKinds(s.DeviceFaults)
	if err != nil {
		return cfg, err
	}
	var rs recovery.Strategy
	if s.Recovery != "" {
		if s.DeviceFaults == "" {
			return cfg, fmt.Errorf("dist: recovery applies only to device-fault campaigns")
		}
		var ok bool
		rs, ok = recovery.StrategyByName(s.Recovery)
		if !ok || rs == recovery.StrategyNone {
			return cfg, fmt.Errorf("dist: unknown recovery strategy %q (want reexec, jit, elastic, or degraded)", s.Recovery)
		}
	}
	stride := s.EarlyExitStride
	if stride == 0 {
		stride = 1
	}
	if stride < 1 {
		return cfg, fmt.Errorf("dist: early_exit_stride must be >= 1 (got %d)", s.EarlyExitStride)
	}
	if s.DeviceFaults != "" && (s.Dedup || s.ConvergedTail) {
		return cfg, fmt.Errorf("dist: dedup/converged_tail apply only to FF campaigns: device faults carry per-experiment random value streams and stay armed across iterations, so neither the dedup keys nor the converged-tail cut hold")
	}
	if math.IsNaN(s.ConvergedTol) || math.IsInf(s.ConvergedTol, 0) {
		return cfg, fmt.Errorf("dist: converged_tol must be finite (got %g)", s.ConvergedTol)
	}
	return experiment.Config{
		Workload:          w,
		Experiments:       s.Experiments,
		Seed:              s.Seed,
		HorizonMult:       1.5,
		DeviceFaults:      s.DeviceFaults != "",
		DeviceFaultKinds:  kinds,
		Recovery:          rs,
		Dedup:             s.Dedup,
		EarlyExit:         s.EarlyExit,
		EarlyExitStride:   stride,
		ConvergedTail:     s.ConvergedTail,
		ConvergedTol:      s.ConvergedTol,
		ConvergedPatience: s.ConvergedPatience,
	}, nil
}

// parseDeviceFaultKinds resolves a device-fault selection string: ""
// (FF campaign), "all", or a comma-separated subset of the
// fault.DeviceFaultKind names.
func parseDeviceFaultKinds(s string) ([]fault.DeviceFaultKind, error) {
	if s == "" || s == "all" {
		return nil, nil // nil = sample from all kinds
	}
	var kinds []fault.DeviceFaultKind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		k, ok := fault.DeviceFaultKindByName(name)
		if !ok || k == fault.DeviceFaultNone {
			return nil, fmt.Errorf("device-faults: unknown kind %q (want a comma-separated subset of link-sdc,stuck-at,straggler,crash, or \"all\")", name)
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// Campaign states, in lifecycle order. Queued and Running accept leases;
// the other three are terminal.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Shard states.
const (
	ShardPending = "pending"
	ShardLeased  = "leased"
	ShardDone    = "done"
)

// SubmitResponse is the body of a successful POST /campaigns.
type SubmitResponse struct {
	ID string `json:"id"`
}

// LeaseRequest asks the coordinator for the next available shard
// (POST /lease).
type LeaseRequest struct {
	// Worker is the requesting worker's self-chosen identity, recorded on
	// the lease for the status views.
	Worker string `json:"worker"`
}

// Lease is one granted shard: run experiments whose dedup-owner index lies
// in [Lo, Hi) of the identified campaign, then upload the canonical record
// lines via POST /complete, renewing via POST /renew meanwhile.
type Lease struct {
	Campaign string       `json:"campaign"`
	Spec     CampaignSpec `json:"spec"`
	Lo       int          `json:"lo"`
	Hi       int          `json:"hi"`
	// Epoch fences the lease: renewals and completions carrying a stale
	// epoch (the lease expired and the shard was re-granted) are rejected
	// with HTTP 409.
	Epoch int64 `json:"epoch"`
	// Fingerprint is the coordinator's resolved campaign fingerprint; a
	// worker whose own resolution disagrees must abort (binary drift).
	Fingerprint string `json:"fingerprint"`
	// GoldenDigest is the golden-run trace digest established by the first
	// completed shard ("" until then). A worker computing a different
	// digest runs a different binary and must abort.
	GoldenDigest string `json:"golden_digest,omitempty"`
	// TTLMillis is the lease's time-to-live; renew well within it.
	TTLMillis int64 `json:"ttl_ms"`
}

// LeaseResponse answers POST /lease. Lease is nil when nothing is
// available right now; Drained additionally reports that every queued
// campaign has reached a terminal state, so a -worker-drain worker can
// exit instead of polling.
type LeaseResponse struct {
	Lease   *Lease `json:"lease,omitempty"`
	Drained bool   `json:"drained,omitempty"`
}

// RenewRequest extends a held lease (POST /renew).
type RenewRequest struct {
	Worker   string `json:"worker"`
	Campaign string `json:"campaign"`
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
	Epoch    int64  `json:"epoch"`
}

// CompleteRequest uploads a finished shard (POST /complete): the canonical
// journal record lines the shard's experiment.Resume produced
// (record.LineBuffer.Lines), plus the worker's fingerprint and golden
// digest so drift is caught at the ingest boundary.
type CompleteRequest struct {
	Worker       string   `json:"worker"`
	Campaign     string   `json:"campaign"`
	Lo           int      `json:"lo"`
	Hi           int      `json:"hi"`
	Epoch        int64    `json:"epoch"`
	Fingerprint  string   `json:"fingerprint"`
	GoldenDigest string   `json:"golden_digest"`
	Lines        []string `json:"lines"`
}

// ShardStatus is one shard's view in GET /campaigns/{id}.
type ShardStatus struct {
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
	State string `json:"state"`
	// Worker holds the current leaseholder while leased.
	Worker string `json:"worker,omitempty"`
	Epoch  int64  `json:"epoch"`
	// Records is the ingested record-line count once done.
	Records int `json:"records,omitempty"`
}

// CampaignStatus is the body of GET /campaigns/{id} (and the per-campaign
// entries of GET /campaigns and GET /status).
type CampaignStatus struct {
	ID           string        `json:"id"`
	State        string        `json:"state"`
	Spec         CampaignSpec  `json:"spec"`
	Fingerprint  string        `json:"fingerprint"`
	GoldenDigest string        `json:"golden_digest,omitempty"`
	Shards       []ShardStatus `json:"shards"`
	ShardsDone   int           `json:"shards_done"`
	// RecordsDone counts ingested records across completed shards; it
	// reaches Spec.Experiments exactly when the campaign merges.
	RecordsDone int `json:"records_done"`
	// Outcomes tallies the Table-3 outcome names over ingested records.
	Outcomes map[string]int `json:"outcomes,omitempty"`
	// Error explains a failed campaign.
	Error string `json:"error,omitempty"`
}

// ServiceStatus is the body of GET /status: the coordinator's lifetime
// counters plus every campaign in submission order.
type ServiceStatus struct {
	Counters  telemetry.DistSnapshot `json:"counters"`
	Campaigns []CampaignStatus       `json:"campaigns"`
}
