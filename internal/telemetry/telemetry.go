// Package telemetry is the live observability surface of long-running
// fault-injection campaigns. The paper's characterization rests on tens of
// thousands of FI experiments per workload (Sec 3.3) — at that scale a
// campaign runs for hours, and the operator needs to watch it without
// perturbing it. This package provides:
//
//   - CampaignStats, a lock-free progress ledger the campaign worker pool
//     updates with plain atomic adds (one bundle of counters per completed
//     experiment, never per iteration, so the hot training loop stays
//     untouched and the overhead is unmeasurable next to an experiment's
//     training work — see BenchmarkCampaignForkedTelemetry);
//   - derived views (Snapshot): per-worker and aggregate experiment
//     throughput, per-outcome tallies in the paper's Table-3 taxonomy,
//     golden-snapshot fork rate, fused-detection check counts, journal
//     write/fsync counters, and an ETA extrapolated from the observed rate;
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/outcome"
)

// workerCounter is a cache-line-padded per-worker completion counter so
// that workers incrementing their own slot never contend on a line.
type workerCounter struct {
	n atomic.Int64
	_ [56]byte
}

// CampaignStats accumulates the progress of one running campaign. All
// updates are single atomic adds; all reads (Snapshot) are racy-by-design
// point-in-time views, which is exactly what a progress display wants.
type CampaignStats struct {
	workload    string
	experiments int
	start       time.Time

	prior         atomic.Int64 // records replayed from a journal, not re-run
	done          atomic.Int64 // records completed by this process
	outcomes      []atomic.Int64
	itersExecuted atomic.Int64
	itersSkipped  atomic.Int64
	forked        atomic.Int64 // experiments restored from a non-initial snapshot
	checks        atomic.Int64 // detector checks performed

	journalAppends atomic.Int64
	journalFlushes atomic.Int64

	// Equivalence-layer activity (zero when dedup and early exit are off):
	// records adopted from a dedup owner, executions truncated by the
	// early exit, and golden-tail iterations synthesized instead of run.
	adopted          atomic.Int64
	earlyExits       atomic.Int64
	itersSynthesized atomic.Int64
	// Experiments classified without running because their fault provably
	// touches no value (experiment's golden-by-construction path).
	goldenByConstruction atomic.Int64

	// Group-mitigation activity of device-fault campaigns (zero for FF
	// campaigns): devices quarantined, devices hot-rejoined, iterations run
	// with a partial group, and collective retry attempts.
	quarantines   atomic.Int64
	rejoins       atomic.Int64
	degradedIters atomic.Int64
	commRetries   atomic.Int64

	// Recovery-strategy activity (zero outside device-fault campaigns
	// running the jit/elastic strategies): just-in-time checkpoints
	// captured from healthy donors, elastic batch re-partitions, and
	// devices re-admitted by those strategies.
	jitSnapshots atomic.Int64
	resizes      atomic.Int64
	readmits     atomic.Int64

	// Locality of the campaign scheduler (snapshot-affine dispatch, see
	// experiment.Resume): pooled-engine snapshot restores split by whether
	// the worker's previous experiment forked from the same golden snapshot
	// (warm) or a different one (cold). Schedule-dependent observability
	// only — results never depend on them.
	warmRestores atomic.Int64
	coldRestores atomic.Int64

	workers []workerCounter
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
		outcomes:    make([]atomic.Int64, len(outcome.All())),
		workers:     make([]workerCounter, workers),
	}
}

// AddPrior records n experiments that were replayed from a journal rather
// than executed; they count toward progress but not toward throughput.
func (s *CampaignStats) AddPrior(n int) {
	if s == nil {
		return
	}
	s.prior.Add(int64(n))
}

// ExperimentDone records one completed experiment: the worker that ran it,
// its Table-3 outcome, the golden-prefix iterations skipped by snapshot
// forking vs suffix iterations executed, and the number of detector checks
// performed. Called once per record from the campaign worker pool.
func (s *CampaignStats) ExperimentDone(worker int, o outcome.Outcome, skipped, executed, checks int) {
	if s == nil {
		return
	}
	s.done.Add(1)
	if int(o) < len(s.outcomes) {
		s.outcomes[o].Add(1)
	}
	s.itersSkipped.Add(int64(skipped))
	s.itersExecuted.Add(int64(executed))
	if skipped > 0 {
		s.forked.Add(1)
	}
	s.checks.Add(int64(checks))
	if worker >= 0 && worker < len(s.workers) {
		s.workers[worker].n.Add(1)
	}
}

// ExperimentAdopted records one experiment resolved by injection dedup:
// its record was adopted from an equal-corruption owner instead of
// executing. Counts toward progress and the outcome tally like any other
// completion, plus the adoption counter.
func (s *CampaignStats) ExperimentAdopted(worker int, o outcome.Outcome) {
	if s == nil {
		return
	}
	s.adopted.Add(1)
	s.ExperimentDone(worker, o, 0, 0, 0)
}

// GoldenByConstruction records one experiment classified without running:
// its fault provably touches no value, so its record was written from the
// golden run. Counts toward progress and the outcome tally like any other
// completion (on worker 0's ledger: the dispatcher resolves these before the
// pool starts), and toward the early-exit count when the record carries that
// provenance, so the ledger agrees with the campaign's record-derived count.
func (s *CampaignStats) GoldenByConstruction(o outcome.Outcome, earlyExit bool) {
	if s == nil {
		return
	}
	s.goldenByConstruction.Add(1)
	if earlyExit {
		s.earlyExits.Add(1)
	}
	s.ExperimentDone(0, o, 0, 0, 0)
}

// FastPathExit records one execution truncated by the early exit, with the
// number of golden-tail iterations synthesized instead of executed.
func (s *CampaignStats) FastPathExit(synthesized int) {
	if s == nil {
		return
	}
	s.earlyExits.Add(1)
	s.itersSynthesized.Add(int64(synthesized))
}

// GroupMitigation accumulates one experiment's group-level mitigation
// activity: quarantines, hot-rejoins, degraded iterations, and collective
// retries. Called once per record alongside ExperimentDone; all-zero calls
// (every FF-campaign record) are free.
func (s *CampaignStats) GroupMitigation(quarantines, rejoins, degradedIters, commRetries int) {
	if s == nil {
		return
	}
	if quarantines != 0 {
		s.quarantines.Add(int64(quarantines))
	}
	if rejoins != 0 {
		s.rejoins.Add(int64(rejoins))
	}
	if degradedIters != 0 {
		s.degradedIters.Add(int64(degradedIters))
	}
	if commRetries != 0 {
		s.commRetries.Add(int64(commRetries))
	}
}

// RecoveryActivity accumulates one experiment's recovery-strategy
// activity: just-in-time snapshots, elastic resizes, and re-admissions.
// Called once per record alongside GroupMitigation; all-zero calls (every
// FF-campaign and reexec/degraded record) are free.
func (s *CampaignStats) RecoveryActivity(jitSnapshots, resizes, readmits int) {
	if s == nil {
		return
	}
	if jitSnapshots != 0 {
		s.jitSnapshots.Add(int64(jitSnapshots))
	}
	if resizes != 0 {
		s.resizes.Add(int64(resizes))
	}
	if readmits != 0 {
		s.readmits.Add(int64(readmits))
	}
}

// EngineRestore records one pooled-engine snapshot restore: warm when the
// worker's previous experiment forked from the same golden snapshot (the
// snapshot bytes and the engine's working set are still cache-resident),
// cold otherwise. Snapshot-affine scheduling exists to maximize the warm
// share; this counter pair is how the effect is observed.
func (s *CampaignStats) EngineRestore(warm bool) {
	if s == nil {
		return
	}
	if warm {
		s.warmRestores.Add(1)
	} else {
		s.coldRestores.Add(1)
	}
}

// JournalAppend records one record appended to the write-ahead journal.
func (s *CampaignStats) JournalAppend() {
	if s == nil {
		return
	}
	s.journalAppends.Add(1)
}

// JournalFlush records one fsync batch of the write-ahead journal.
func (s *CampaignStats) JournalFlush() {
	if s == nil {
		return
	}
	s.journalFlushes.Add(1)
}

// Snapshot is a derived, JSON-serializable view of a CampaignStats at one
// instant — what /status and expvar serve.
type Snapshot struct {
	Workload    string `json:"workload"`
	Experiments int    `json:"experiments"`
	// Done = Resumed + completed-by-this-process.
	Done    int `json:"done"`
	Resumed int `json:"resumed"`
	// Outcomes maps Table-3 outcome names to completed-experiment counts.
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
	// ItersExecuted / ItersSkipped are suffix iterations actually run vs
	// golden-prefix iterations reused via snapshot forking.
	ItersExecuted int64 `json:"iters_executed"`
	ItersSkipped  int64 `json:"iters_skipped"`
	// SnapshotForkRate is the fraction of completed experiments that were
	// restored from a non-initial golden snapshot (cache hit rate of the
	// prefix snapshot cache).
	SnapshotForkRate float64 `json:"snapshot_fork_rate"`
	// DetectorChecks counts per-iteration detector checks.
	DetectorChecks int64 `json:"detector_checks"`
	// JournalAppends / JournalFlushes count write-ahead journal records
	// written and fsync batches issued.
	JournalAppends int64 `json:"journal_appends"`
	JournalFlushes int64 `json:"journal_flushes"`
	// Quarantines / Rejoins / DegradedIters / CommRetries aggregate the
	// group-level mitigation activity of device-fault campaigns (all zero
	// for FF campaigns).
	Quarantines   int64 `json:"quarantines"`
	Rejoins       int64 `json:"rejoins"`
	DegradedIters int64 `json:"degraded_iters"`
	CommRetries   int64 `json:"comm_retries"`
	// JITSnapshots / Resizes / Readmits aggregate the recovery-strategy
	// activity of device-fault campaigns running the jit/elastic
	// strategies (all zero otherwise).
	JITSnapshots int64 `json:"jit_snapshots"`
	Resizes      int64 `json:"resizes"`
	Readmits     int64 `json:"readmits"`
	// DedupAdopted / EarlyExits / ItersSynthesized aggregate the
	// equivalence layer's savings: records adopted from a dedup owner,
	// executions truncated by the early exit, and golden-tail iterations
	// synthesized instead of run.
	DedupAdopted     int64 `json:"dedup_adopted"`
	EarlyExits       int64 `json:"early_exits"`
	ItersSynthesized int64 `json:"iters_synthesized"`
	// GoldenByConstruction counts experiments classified without running
	// because their fault provably touches no value.
	GoldenByConstruction int64 `json:"golden_by_construction"`
	// WarmRestores / ColdRestores split pooled-engine snapshot restores by
	// whether the worker's previous experiment used the same golden
	// snapshot. Scheduling observability only.
	WarmRestores int64 `json:"warm_restores"`
	ColdRestores int64 `json:"cold_restores"`
}

// Snapshot derives the current point-in-time view.
func (s *CampaignStats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	elapsed := time.Since(s.start).Seconds()
	prior := int(s.prior.Load())
	done := int(s.done.Load())
	snap := Snapshot{
		Workload:       s.workload,
		Experiments:    s.experiments,
		Done:           prior + done,
		Resumed:        prior,
		Outcomes:       map[string]int{},
		ElapsedSec:     elapsed,
		ETASec:         -1,
		ItersExecuted:  s.itersExecuted.Load(),
		ItersSkipped:   s.itersSkipped.Load(),
		DetectorChecks: s.checks.Load(),
		JournalAppends: s.journalAppends.Load(),
		JournalFlushes: s.journalFlushes.Load(),
		Quarantines:    s.quarantines.Load(),
		Rejoins:        s.rejoins.Load(),
		DegradedIters:  s.degradedIters.Load(),
		CommRetries:    s.commRetries.Load(),
		JITSnapshots:   s.jitSnapshots.Load(),
		Resizes:        s.resizes.Load(),
		Readmits:       s.readmits.Load(),
		WarmRestores:   s.warmRestores.Load(),
		ColdRestores:   s.coldRestores.Load(),

		DedupAdopted:     s.adopted.Load(),
		EarlyExits:       s.earlyExits.Load(),
		ItersSynthesized: s.itersSynthesized.Load(),

		GoldenByConstruction: s.goldenByConstruction.Load(),
	}
	for _, o := range outcome.All() {
		if n := s.outcomes[o].Load(); n > 0 {
			snap.Outcomes[o.String()] = int(n)
		}
	}
	if done > 0 {
		snap.SnapshotForkRate = float64(s.forked.Load()) / float64(done)
	}
	if elapsed > 0 {
		snap.ExperimentsPerSec = float64(done) / elapsed
		if snap.ExperimentsPerSec > 0 {
			snap.ETASec = float64(s.experiments-snap.Done) / snap.ExperimentsPerSec
		}
	}
	for i := range s.workers {
		n := s.workers[i].n.Load()
		snap.PerWorkerDone = append(snap.PerWorkerDone, n)
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
