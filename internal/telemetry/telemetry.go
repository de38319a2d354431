// Package telemetry is the live observability surface of long-running
// fault-injection campaigns. The paper's characterization rests on tens of
// thousands of FI experiments per workload (Sec 3.3) — at that scale a
// campaign runs for hours, and the operator needs to watch it without
// perturbing it. This package provides:
//
//   - Counts, the one ledger type: a single landed record's entry (its
//     outcome, its provenance and what executing it cost), and equally the
//     sum of any number of entries — what a campaign reports;
//   - CampaignStats, the live ledger the campaign runner lands every record
//     on: one Counts total behind a mutex, taken once per landed record
//     (executed, adopted, golden by construction or replayed from a
//     journal) and never once per iteration, so the hot training loop stays
//     untouched; a Land costs tens of nanoseconds against an experiment's
//     milliseconds of training (BenchmarkCampaignStatsLand);
//   - derived views (Snapshot), each consistent across its fields:
//     per-worker and aggregate experiment throughput, per-outcome tallies in
//     the paper's Table-3 taxonomy, golden-snapshot fork rate,
//     fused-detection check counts, journal write/fsync counters, and an
//     ETA extrapolated from the observed rate;
//   - an expvar binding (Activate) publishing the active campaign under the
//     "campaign" variable, and an optional HTTP endpoint (Serve) exposing
//     /status (JSON snapshot), /debug/vars, and /debug/pprof for profiling
//     a live campaign.
//
// CampaignStats is nil-safe: every method has a nil-receiver fast path, so
// the campaign runner can carry an optional *CampaignStats and call it
// unconditionally.
package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/outcome"
)

// Counts is the campaign ledger. One value is a single landed record's
// entry; the same type holds the sum of any number of entries (Add). An
// entry of a record that ran nothing (adopted, golden by construction, or
// replayed from a journal) carries only its outcome, its provenance and its
// record's mitigation counts. The JSON names are the /status keys.
type Counts struct {
	// Tally is the landed records' outcomes (served as Snapshot.Outcomes).
	Tally outcome.Tally `json:"-"`
	// Resumed counts records replayed from a journal rather than landed by
	// this run; they count toward progress but not toward throughput.
	Resumed int `json:"resumed"`
	// ExperimentsAdopted counts records adopted from their dedup owner;
	// EarlyExits counts records carrying early-exit provenance of their own
	// (adoptees inherit their owner's); GoldenByConstruction counts
	// experiments classified without running because their fault provably
	// touches no value (never a replayed record: a record does not say how
	// it was made).
	ExperimentsAdopted   int `json:"dedup_adopted"`
	EarlyExits           int `json:"early_exits"`
	GoldenByConstruction int `json:"golden_by_construction"`
	// IterationsSkipped / IterationsExecuted / IterationsSynthesized are
	// the golden-prefix iterations reused by forking, the suffix iterations
	// actually run, and the tail iterations early exits copied from the
	// golden trace.
	IterationsSkipped     int64 `json:"iters_skipped"`
	IterationsExecuted    int64 `json:"iters_executed"`
	IterationsSynthesized int64 `json:"iters_synthesized"`
	// DetectorChecks counts per-iteration detector checks; Forked counts
	// executions restored from a non-initial golden snapshot.
	DetectorChecks int `json:"detector_checks"`
	Forked         int `json:"-"`
	// WarmRestores / ColdRestores split pooled-engine snapshot restores by
	// whether the worker's previous experiment forked from the same golden
	// snapshot (warm) or another one (cold). Schedule-dependent
	// observability only — records never depend on them.
	WarmRestores int64 `json:"warm_restores"`
	ColdRestores int64 `json:"cold_restores"`
	// Evaluations counts test-set evaluations: at most one per execution
	// (its final test point), none where the golden tail supplies it.
	Evaluations int64 `json:"-"`
	// The records' group-mitigation activity — devices quarantined and
	// hot-rejoined, iterations run with a partial group, collective retry
	// attempts — and recovery-strategy activity — just-in-time checkpoints
	// captured from healthy donors, elastic re-partitions, devices
	// re-admitted. All zero outside device-fault campaigns.
	Quarantines   int `json:"quarantines"`
	Rejoins       int `json:"rejoins"`
	DegradedIters int `json:"degraded_iters"`
	CommRetries   int `json:"comm_retries"`
	JITSnapshots  int `json:"jit_snapshots"`
	Resizes       int `json:"resizes"`
	Readmits      int `json:"readmits"`
}

// Add sums d into c.
func (c *Counts) Add(d Counts) {
	for o, n := range d.Tally.Counts {
		c.Tally.Counts[o] += n
	}
	c.Tally.Total += d.Tally.Total
	c.Resumed += d.Resumed
	c.ExperimentsAdopted += d.ExperimentsAdopted
	c.EarlyExits += d.EarlyExits
	c.GoldenByConstruction += d.GoldenByConstruction
	c.IterationsSkipped += d.IterationsSkipped
	c.IterationsExecuted += d.IterationsExecuted
	c.IterationsSynthesized += d.IterationsSynthesized
	c.DetectorChecks += d.DetectorChecks
	c.Forked += d.Forked
	c.WarmRestores += d.WarmRestores
	c.ColdRestores += d.ColdRestores
	c.Evaluations += d.Evaluations
	c.Quarantines += d.Quarantines
	c.Rejoins += d.Rejoins
	c.DegradedIters += d.DegradedIters
	c.CommRetries += d.CommRetries
	c.JITSnapshots += d.JITSnapshots
	c.Resizes += d.Resizes
	c.Readmits += d.Readmits
}

// CampaignStats is the live ledger of one running campaign: the sum of
// every landed record's Counts, each worker's landed records, and the
// journal's write counters, all behind one mutex so that a Snapshot is
// consistent across its fields.
type CampaignStats struct {
	workload    string
	experiments int
	start       time.Time

	mu             sync.Mutex
	total          Counts
	workers        []int64 // records landed by each pool worker
	journalAppends int64
	journalFlushes int64
}

// NewCampaignStats creates the ledger for a campaign of `experiments`
// records across `workers` pool workers.
func NewCampaignStats(workload string, experiments, workers int) *CampaignStats {
	if workers < 1 {
		workers = 1
	}
	return &CampaignStats{
		workload:    workload,
		experiments: experiments,
		start:       time.Now(),
		workers:     make([]int64, workers),
	}
}

// Land adds one landed record's entry to the ledger, on the count of the
// pool worker that landed it (a worker outside the pool, such as -1 for a
// record replayed from a journal, counts toward no worker). Called once
// per record, never per iteration.
func (s *CampaignStats) Land(worker int, c Counts) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total.Add(c)
	if worker >= 0 && worker < len(s.workers) {
		s.workers[worker]++
	}
}

// JournalAppend records one record appended to the write-ahead journal.
func (s *CampaignStats) JournalAppend() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.journalAppends++
	s.mu.Unlock()
}

// JournalFlush records one fsync batch of the write-ahead journal.
func (s *CampaignStats) JournalFlush() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.journalFlushes++
	s.mu.Unlock()
}

// Snapshot is a derived, JSON-serializable view of a CampaignStats at one
// instant — what /status and expvar serve. Its Counts are the ledger's sum
// over every landed record, replayed ones included.
type Snapshot struct {
	Workload    string `json:"workload"`
	Experiments int    `json:"experiments"`
	// Done counts landed records: Resumed plus those landed by this process.
	Done int `json:"done"`
	Counts
	// Outcomes maps Table-3 outcome names to landed-record counts.
	Outcomes map[string]int `json:"outcomes"`
	// ElapsedSec is the wall-clock time since the campaign started.
	ElapsedSec float64 `json:"elapsed_sec"`
	// ExperimentsPerSec is the aggregate completion rate of this process
	// (resumed records excluded).
	ExperimentsPerSec float64 `json:"experiments_per_sec"`
	// PerWorkerDone is the number of experiments each pool worker has
	// completed; PerWorkerPerSec the corresponding rates.
	PerWorkerDone   []int64   `json:"per_worker_done"`
	PerWorkerPerSec []float64 `json:"per_worker_per_sec"`
	// ETASec extrapolates the remaining time from the observed rate
	// (-1 until a rate is measurable).
	ETASec float64 `json:"eta_sec"`
	// SnapshotForkRate is the fraction of the records this process landed
	// that were restored from a non-initial golden snapshot (cache hit rate
	// of the prefix snapshot cache).
	SnapshotForkRate float64 `json:"snapshot_fork_rate"`
	// JournalAppends / JournalFlushes count write-ahead journal records
	// written and fsync batches issued.
	JournalAppends int64 `json:"journal_appends"`
	JournalFlushes int64 `json:"journal_flushes"`
}

// Snapshot derives the current point-in-time view.
func (s *CampaignStats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	s.mu.Lock()
	snap := Snapshot{
		Workload:       s.workload,
		Experiments:    s.experiments,
		Counts:         s.total,
		PerWorkerDone:  slices.Clone(s.workers),
		JournalAppends: s.journalAppends,
		JournalFlushes: s.journalFlushes,
	}
	s.mu.Unlock()
	elapsed := time.Since(s.start).Seconds()
	snap.Done = snap.Tally.Total
	snap.ElapsedSec = elapsed
	snap.ETASec = -1
	snap.Outcomes = map[string]int{}
	for _, o := range outcome.All() {
		if n := snap.Tally.Counts[o]; n > 0 {
			snap.Outcomes[o.String()] = n
		}
	}
	landed := snap.Done - snap.Resumed
	if landed > 0 {
		snap.SnapshotForkRate = float64(snap.Forked) / float64(landed)
	}
	if elapsed > 0 {
		snap.ExperimentsPerSec = float64(landed) / elapsed
		if snap.ExperimentsPerSec > 0 {
			snap.ETASec = float64(s.experiments-snap.Done) / snap.ExperimentsPerSec
		}
	}
	for _, n := range snap.PerWorkerDone {
		rate := 0.0
		if elapsed > 0 {
			rate = float64(n) / elapsed
		}
		snap.PerWorkerPerSec = append(snap.PerWorkerPerSec, rate)
	}
	return snap
}

// active is the campaign currently published on expvar and /status; a
// process that runs several campaigns sequentially (`repro campaign -all`)
// re-Activates for each one.
var active atomic.Pointer[CampaignStats]

var publishOnce sync.Once

// Activate makes s the campaign exposed via expvar ("campaign") and the
// Serve endpoint's /status. Safe to call repeatedly; the latest wins.
func Activate(s *CampaignStats) {
	active.Store(s)
	publishOnce.Do(func() {
		expvar.Publish("campaign", expvar.Func(func() any {
			return active.Load().Snapshot()
		}))
	})
}

// Server is a running telemetry HTTP endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts the telemetry HTTP endpoint on addr (e.g. "localhost:6070"
// or ":0" for an ephemeral port) and returns immediately. Routes:
//
//	/status       JSON Snapshot of the active campaign
//	/debug/vars   expvar (includes the "campaign" variable)
//	/debug/pprof  live CPU/heap/goroutine profiling of the campaign
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(active.Load().Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "campaign telemetry: /status /debug/vars /debug/pprof\n")
	})
	s := &Server{srv: &http.Server{Handler: mux}, ln: ln}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}
