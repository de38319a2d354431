// Package experiment implements the statistical fault-injection campaign
// harness (Sec 3.3): it runs batches of randomized FI experiments against a
// workload, classifies each run's outcome, and aggregates the statistics the
// paper reports — outcome breakdowns (Fig 3), necessary-condition value
// ranges (Table 4), FF-class contributions (Sec 4.3.1), detection coverage
// and latency (Sec 5.1), and manifestation latencies (Table 3).
//
// Each experiment follows the paper's four steps: (1) randomly select an FF
// and cycle, (2)+(3) derive the corrupted output elements and their faulty
// values from the software fault model, (4) continue training until an
// INF/NaN error message or the iteration budget (2× the fault-free run).
//
// Experiments execute forked, not cold-started: the golden reference run
// records prefix snapshots, each experiment restores the nearest snapshot
// at or before its injection iteration and runs only the suffix, and each
// worker reuses one pooled engine across its experiments (see forked.go).
// Both optimizations are byte-exact — determinism makes the skipped prefix
// bitwise-identical to the golden run.
//
// Campaigns are durable and observable (see resume.go): Resume streams
// each completed record into a Sink (the write-ahead journal in
// internal/record), honors context cancellation by draining in-flight
// workers and flushing before returning, and adopts journaled records from
// an interrupted run so the continuation is byte-identical to never having
// stopped. Live progress — throughput, outcome tallies, fork rate, ETA —
// flows through internal/telemetry.
package experiment

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/accel"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/train"
	"repro/internal/workloads"
)

// Config parameterizes a campaign.
type Config struct {
	// Workload under test.
	Workload *workloads.Workload
	// Experiments is the number of fault injections.
	Experiments int
	// Seed drives all sampling; campaigns are fully reproducible.
	Seed int64
	// Workers bounds parallelism (0 = GOMAXPROCS; see WorkerCount).
	Workers int
	// HorizonMult scales the per-experiment iteration budget relative to
	// the workload's fault-free run; the paper uses 2×.
	HorizonMult float64
	// InjectFrac restricts injection iterations to the first fraction of
	// the fault-free run, leaving room to observe latent effects.
	InjectFrac float64
	// BiasKinds, when non-empty, importance-samples the FF kind uniformly
	// from this list instead of by population. The paper's deep-dive
	// analyses (Table 4 condition ranges, Sec 4.3.1 contributions) focus
	// on the FF families that generate large magnitudes; biasing collects
	// enough of those cases at laptop-scale experiment counts. Outcome
	// *percentages* from a biased campaign are conditional on the bias and
	// must not be read as Fig-3 population rates.
	BiasKinds []accel.FFKind
	// BiasPasses, when non-empty, restricts the injected pass similarly.
	BiasPasses []fault.Pass
	// SnapshotStride controls the golden-prefix snapshot cache for forked
	// experiment execution: the fault-free reference run records a
	// train.State snapshot every SnapshotStride iterations (plus the
	// initial state), and each experiment restores the nearest snapshot at
	// or before its injection iteration and executes only the suffix,
	// instead of replaying the bitwise-identical prefix from iteration 0.
	//
	//	 0 — auto: the densest stride whose cache fits SnapshotMemBudget.
	//	>0 — explicit stride.
	//	<0 — disable forking; every experiment replays from iteration 0.
	//
	// Forked and cold campaigns produce byte-identical Records and Tally
	// (TestForkedCampaignEquivalence); forking is purely a wall-clock
	// optimization.
	SnapshotStride int
	// SnapshotMemBudget bounds the auto-stride snapshot cache footprint in
	// bytes (0 = 256 MiB). Ignored when SnapshotStride is explicit.
	SnapshotMemBudget int64
	// ScrubWorkspaces poisons every pooled engine's cached kernel scratch
	// buffers with NaNs between experiments (train.Engine.ScrubWorkspaces).
	// Workspace contents are undefined between kernel calls, so scrubbing
	// is byte-exact — Records and Tally are identical either way
	// (TestScrubWorkspacesEquivalence). The knob exists as a debugging
	// invariant check: if a kernel ever starts depending on stale scratch
	// state leaking across experiments, scrubbed campaigns diverge loudly.
	ScrubWorkspaces bool
	// DeviceFaults switches the campaign from FF bit flips to system-level
	// device/link faults (fault.DeviceFault): each experiment arms one
	// sampled fault on the engine's collective group instead of an
	// Injection. The golden forking, engine pooling, journaling, and
	// resume machinery apply unchanged.
	DeviceFaults bool
	// DeviceFaultKinds, when non-empty, restricts sampling to these kinds
	// (default: all injectable kinds).
	DeviceFaultKinds []fault.DeviceFaultKind
	// Dedup enables campaign-scale injection dedup: every experiment's
	// effective corruption is canonically hashed before anything runs
	// (target tensor identity and the resolved write-op program — see
	// dedup.go), and experiments with equal keys share one execution: the
	// lowest-index member executes, the others adopt its record
	// (Record.AdoptedFrom) without re-running. Adoption is byte-exact:
	// equal keys mean identical corruption of bitwise-identical tensors,
	// hence identical trajectories. Rejected for device-fault campaigns:
	// the keys describe one-shot tensor corruptions, and a device fault
	// persists across iterations with a per-experiment random value stream.
	Dedup bool
	// EarlyExit enables provable masked early-termination: after its
	// injection iteration, each experiment compares its engine-state digest
	// against the golden run's at EarlyExitStride cadence, and the moment
	// the state is bitwise-identical to golden the remaining iterations are
	// synthesized from the golden trace instead of executed
	// (Record.EarlyExitIter). Sound because training is deterministic and a
	// fired injection never recurs: equal state at equal iteration implies
	// an identical tail. An experiment whose fault provably touches nothing
	// takes the exit before its first iteration (byconstruction.go). In a
	// device-fault campaign that is the only exit there is — a straggler the
	// collective's retry budget absorbs: a device fault stays armed after
	// its onset, so equal state at one boundary proves nothing about the
	// next, and no digest is compared. Disabled automatically when the
	// golden run is non-finite. Records and Tally stay byte-identical to
	// exhaustive execution.
	EarlyExit bool
	// EarlyExitStride is the digest-comparison cadence in iterations
	// (0 = every iteration). Coarser strides trade comparison cost for
	// later exits; the record provenance (EarlyExitIter) changes with the
	// stride but the outcome payload does not.
	EarlyExitStride int
	// ConvergedTail enables the thresholded fast-path: when an experiment's
	// loss and accuracy stay within ConvergedTol of the golden trace for
	// ConvergedPatience consecutive post-fault iterations without being
	// bitwise-identical, the remaining iterations are synthesized from the
	// golden tail and the final test point is re-evaluated on the live
	// weights (eval-only finish). Unlike EarlyExit this is a statistical
	// approximation: records are explicitly flagged (Record.ConvergedIter).
	ConvergedTail bool
	// ConvergedTol is the fast-path's relative metric tolerance
	// (0 = 1e-3).
	ConvergedTol float64
	// ConvergedPatience is the consecutive-iteration requirement
	// (0 = 5).
	ConvergedPatience int
	// Recovery selects how a device-fault experiment is mitigated: reexec,
	// jit, elastic or degraded (recovery.Strategy) drive the run through
	// recovery.GroupGuard; the zero value runs unmitigated — a failed device
	// hangs the group (outcome.GroupHang) and corruption flows into the
	// weights.
	Recovery recovery.Strategy
	// Quarantine means "Recovery unset ⇒ reexec" and nothing else. It
	// survives only because bench/run.go:98 assigns it and bench/ is frozen
	// until Benchmark v2 (ROADMAP); set Recovery instead.
	Quarantine bool
}

// recoveryStrategy resolves the strategy a device-fault experiment runs.
func (cfg Config) recoveryStrategy() recovery.Strategy {
	if cfg.Recovery == recovery.StrategyNone && cfg.Quarantine {
		return recovery.StrategyReexec
	}
	return cfg.Recovery
}

// Record is the result of one FI experiment.
type Record struct {
	// Injection is the sampled fault.
	Injection fault.Injection
	// Outcome is the Table-3 classification.
	Outcome outcome.Outcome
	// FinalTrainAcc / FinalTestAcc summarize the end of the run.
	FinalTrainAcc, FinalTestAcc float64
	// NonFiniteIter is the INF/NaN iteration (-1 if none).
	NonFiniteIter int
	// HistAtT / HistAtT1 are the max absolute optimizer-history values
	// observed right after the fault iteration and the next one — the
	// necessary-condition measurements of Table 4.
	HistAtT, HistAtT1 float64
	// MvarAtT / MvarAtT1 are the corresponding moving-variance maxima.
	MvarAtT, MvarAtT1 float64
	// DetectIter is the iteration the bounds detector first alarmed
	// (-1 if never). Detection here is observational: the run continues.
	DetectIter int
	// InjectedElems is the corruption footprint size.
	InjectedElems int
	// Masked is true when the injection changed no values.
	Masked bool
	// DeviceFault is the sampled system-level fault of a device-fault
	// campaign (Kind DeviceFaultNone for FF campaigns). For these records
	// DetectIter is the cross-replica detection iteration and
	// InjectedElems the corrupted-gradient-element footprint.
	DeviceFault fault.DeviceFault
	// QuarantineIter is the iteration a device was first quarantined
	// (-1 if never).
	QuarantineIter int
	// Quarantines / Rejoins count quarantine and hot-rejoin events;
	// DegradedIters counts iterations run with a partial group;
	// CommRetries totals collective retry attempts.
	Quarantines, Rejoins, DegradedIters, CommRetries int
	// AdoptedFrom is the experiment index this record was adopted from by
	// injection dedup (-1 when the experiment executed itself). Injection
	// is always this experiment's own sampled fault; every other field is
	// shared with the owner record byte for byte — equal dedup keys prove
	// the trajectories identical.
	AdoptedFrom int
	// EarlyExitIter is the iteration the run was proven bitwise-golden
	// again and its remaining iterations synthesized from the golden trace
	// (-1 when it executed to its natural end). Provenance only: the
	// synthesized fields equal what execution would have produced.
	EarlyExitIter int
	// ConvergedIter is the iteration the thresholded converged-tail
	// fast-path truncated execution (-1 = none). Records with
	// ConvergedIter >= 0 are statistical approximations of the exhaustive
	// run, not byte-exact reproductions: their golden-copied tail metrics
	// and live final test evaluation are within tolerance by construction,
	// but not proven identical.
	ConvergedIter int
	// RecoveryStrategy names the recovery strategy the experiment ran
	// under ("none" for unmitigated device-fault records and FF records).
	RecoveryStrategy string
	// TimeToRecoverIters is the number of iterations from the first
	// quarantine to the group being back at full strength (-1 when nothing
	// was quarantined or the group never recovered).
	TimeToRecoverIters int
	// AccuracyCost is the fault-free final training accuracy minus this
	// run's — the per-record accuracy price of the fault under the chosen
	// strategy (negative values mean the run ended above the reference).
	AccuracyCost float64
	// JITSnapshots counts just-in-time checkpoints captured from healthy
	// donors; Resizes counts elastic re-partitions; Readmits counts
	// devices returned by the JIT/elastic strategies. All zero outside
	// device-fault campaigns running those strategies.
	JITSnapshots, Resizes, Readmits int
}

// FaultIteration returns the iteration the experiment's fault takes effect:
// the device fault's onset for device-fault records, the injection
// iteration otherwise. Detection latencies are measured from it.
func (r *Record) FaultIteration() int {
	if r.DeviceFault.Kind != fault.DeviceFaultNone {
		return r.DeviceFault.Iteration
	}
	return r.Injection.Iteration
}

// Campaign is a completed batch of experiments.
type Campaign struct {
	Cfg     Config
	Ref     *train.Trace
	RefAcc  float64
	Records []Record
	Tally   outcome.Tally

	// Completed counts the records actually present in Records; it is
	// less than Cfg.Experiments only for a campaign that was cancelled
	// mid-run (see Resume). Tally covers exactly the completed records.
	Completed int

	// IterationsSkipped counts golden-prefix iterations reused via
	// snapshot forking instead of being re-executed; IterationsExecuted
	// counts the suffix iterations the experiments actually ran. Their sum
	// is the work a cold-start campaign would have performed (modulo early
	// INF/NaN termination, which both paths share).
	IterationsSkipped, IterationsExecuted int64
	// Evaluations counts test-set evaluations: at most one per executed
	// experiment (its final test point), none where the golden tail supplies
	// that point. A runtime count like the two above, never journaled.
	Evaluations int64
	// ExperimentsAdopted counts records adopted via injection dedup
	// instead of executing; EarlyExits and ConvergedTails count executions
	// truncated by the bitwise and thresholded fast-paths; and
	// IterationsSynthesized counts tail iterations copied from the golden
	// trace instead of executed by those truncations.
	ExperimentsAdopted         int
	EarlyExits, ConvergedTails int
	IterationsSynthesized      int64
	// GoldenByConstruction counts the experiments this call classified
	// without running, because their fault provably touches no value
	// (byconstruction.go; EarlyExit campaigns only). They appear in none of
	// the iteration counts above and restore nothing. Recomputed from the
	// sampled faults on every call, never journaled.
	GoldenByConstruction int
	// Snapshots / SnapshotBytes / Stride describe the golden-prefix cache
	// the campaign forked from (see Config.SnapshotStride).
	Snapshots     int
	SnapshotBytes int64
	Stride        int

	// WarmRestores / ColdRestores split this run's pooled-engine snapshot
	// restores by whether the worker's previous experiment forked from the
	// same snapshot. Schedule-dependent observability: they vary with
	// Workers and resume state and are deliberately absent from the record
	// CSV/JSON payloads, which must stay byte-identical across execution
	// knobs.
	WarmRestores, ColdRestores int64
}

// Run executes the campaign: a golden reference run with a prefix snapshot
// cache (PrepareGolden), then the FI experiments forked from it across a
// fixed worker pool with per-worker engine reuse. Identical in results —
// byte for byte — to a cold-start campaign (SnapshotStride: -1, Workers: 1);
// see forked.go for the machinery and the exactness argument.
func Run(cfg Config) *Campaign {
	return RunWithGolden(cfg, nil)
}

// runOne executes a single FI experiment: restore the nearest golden
// snapshot at or before the injection iteration, reconstruct the trace
// prefix from the golden trace (the skipped iterations are
// bitwise-identical to it), and execute the suffix — truncated by the
// equivalence layer's fast-paths when cfg enables them (see earlyexit.go).
// e is the worker's pooled engine. Returns the record, the prefix length
// skipped, the suffix iterations executed, the tail iterations synthesized
// from the golden trace, and the number of detector checks performed.
func runOne(g *Golden, e *train.Engine, inj fault.Injection, cfg Config) (Record, int, int, int, int) {
	w := g.w
	start, snap := g.nearest(inj.Iteration)
	rearm(e, snap, cfg)
	e.SetInjection(&inj)
	det := detect.ForEngine(e, w.BatchSize(), w.LR, true)

	// The fast-paths need a completed golden tail to synthesize from; a
	// non-finite golden run cleared the schedules (see PrepareGolden).
	earlyExit := cfg.EarlyExit && g.digests != nil
	convergedTail := cfg.ConvergedTail && g.digests != nil
	convRun := 0

	rec := Record{Injection: inj, NonFiniteIter: -1, DetectIter: -1, QuarantineIter: -1, Masked: true,
		AdoptedFrom: -1, EarlyExitIter: -1, ConvergedIter: -1,
		RecoveryStrategy: recovery.StrategyNone.String(), TimeToRecoverIters: -1}
	checks := 0
	synthesized := 0
	trace := train.NewTrace(w.Name)
	trace.FinalTestOnly = true // the record reads nothing else of the test curve
	copyGoldenPrefix(trace, g.ref, start)
	for iter := start; iter < g.horizon; iter++ {
		st := e.RunIteration(iter)
		trace.TrainLoss = append(trace.TrainLoss, st.Loss)
		trace.TrainAcc = append(trace.TrainAcc, st.TrainAcc)
		trace.Completed++
		if st.Injected {
			trace.FaultIter = iter
			rec.InjectedElems = st.InjectedElems
			rec.Masked = st.InjectedElems == 0
		}
		if iter == inj.Iteration {
			rec.HistAtT = e.HistoryAbsMax()
			rec.MvarAtT = e.MvarAbsMax()
		}
		if iter == inj.Iteration+1 {
			rec.HistAtT1 = e.HistoryAbsMax()
			rec.MvarAtT1 = e.MvarAbsMax()
		}
		if rec.DetectIter == -1 && iter >= inj.Iteration {
			checks++
			if a := det.CheckEngine(e); a != nil {
				rec.DetectIter = iter
			}
		}
		e.RecordTest(iter, trace)
		if st.NonFinite && trace.NonFiniteIter == -1 {
			trace.NonFiniteIter = iter
			trace.NonFiniteAt = st.NonFiniteAt
			break // error message terminates the experiment (Sec 3.3)
		}
		// The fast-path checks run strictly after the iteration's full
		// bookkeeping, and only from t+1 on (the HistAtT1/MvarAtT1
		// measurements at t+1 must come from real execution; a fired
		// injection can only re-join the golden trajectory after t anyway).
		if iter <= inj.Iteration || iter >= g.horizon-1 {
			continue
		}
		if earlyExit && (iter-inj.Iteration-1)%cfg.EarlyExitStride == 0 &&
			e.StateDigest() == g.digests[iter] {
			// Provably masked from here: the engine state is
			// bitwise-identical to the golden run's at the same iteration
			// boundary, the injection cannot re-fire, and everything else
			// is a pure function of (state, iteration). Synthesize the
			// remaining trace — including the detector's alarm schedule —
			// from the golden run.
			rec.EarlyExitIter = iter
			synthesized = copyGoldenTail(trace, g, iter)
			if rec.DetectIter == -1 {
				rec.DetectIter = g.alarmAfter(iter)
			}
			break
		}
		if convergedTail && withinGoldenTolerance(st, g, iter, cfg.ConvergedTol) {
			convRun++
			if convRun >= cfg.ConvergedPatience {
				// Statistically re-converged, not proven identical: copy
				// the golden tail metrics, but keep the detector verdict
				// as measured and finish with one real test evaluation of
				// the live weights (eval-only stepping). The record is
				// flagged via ConvergedIter.
				rec.ConvergedIter = iter
				synthesized = copyGoldenTail(trace, g, iter)
				if n := len(trace.TestIters); n > 0 && trace.TestIters[n-1] > iter {
					tl, ta := e.Evaluate(e.RootDevice())
					trace.TestLoss[n-1] = tl
					trace.TestAcc[n-1] = ta
				}
				break
			}
		} else {
			convRun = 0
		}
	}
	e.ResolveTest(trace)
	rec.Outcome = g.cls.Classify(trace, inj.Pass)
	rec.FinalTrainAcc = trace.FinalTrainAcc(10)
	rec.FinalTestAcc = trace.FinalTestAcc()
	rec.NonFiniteIter = trace.NonFiniteIter
	rec.AccuracyCost = g.refAcc - rec.FinalTrainAcc
	return rec, start, trace.Completed - start - synthesized, synthesized, checks
}

// rearm returns a worker's pooled engine to the golden state snap for its
// next experiment: Reset disarms injections, clears diagnostics and restores
// the collective (all-healthy, disarmed, default policy); Restore repositions
// weights, optimizer state and BN statistics at the snapshot boundary.
func rearm(e *train.Engine, snap *train.State, cfg Config) {
	e.Reset()
	if cfg.ScrubWorkspaces {
		e.ScrubWorkspaces()
	}
	e.Restore(snap)
}

// copyGoldenPrefix reconstructs iterations [0, b) of an experiment trace
// from the golden reference trace. Valid because the armed injection
// touches nothing before its iteration and all engine randomness is
// iteration-addressed, so the skipped prefix is bitwise-identical to the
// golden run's — including its periodic test evaluations.
func copyGoldenPrefix(dst, ref *train.Trace, b int) {
	if b <= 0 {
		return
	}
	dst.TrainLoss = append(dst.TrainLoss, ref.TrainLoss[:b]...)
	dst.TrainAcc = append(dst.TrainAcc, ref.TrainAcc[:b]...)
	for j, it := range ref.TestIters {
		if it >= b {
			break
		}
		dst.TestIters = append(dst.TestIters, it)
		dst.TestAcc = append(dst.TestAcc, ref.TestAcc[j])
		dst.TestLoss = append(dst.TestLoss, ref.TestLoss[j])
	}
	dst.Completed = b
}

// ConditionRange aggregates the Table-4 measurement for one outcome class.
type ConditionRange struct {
	// Hist is the range of max |gradient history| observed at iterations
	// t / t+1 across experiments with this outcome.
	Hist stats.Range
	// Mvar is the corresponding moving-variance range.
	Mvar stats.Range
}

// ConditionRanges computes Table 4: for every latent/short-term outcome, the
// range of necessary-condition values observed within two iterations of the
// fault.
func (c *Campaign) ConditionRanges() map[outcome.Outcome]*ConditionRange {
	out := make(map[outcome.Outcome]*ConditionRange)
	for i := range c.Records {
		r := &c.Records[i]
		o := r.Outcome
		if !o.IsLatent() && o != outcome.ShortTermINFNaN {
			continue
		}
		cr := out[o]
		if cr == nil {
			cr = &ConditionRange{}
			out[o] = cr
		}
		// An overflowed history/mvar value reads as +Inf; record it as the
		// float32 maximum — "magnitude very close to the max floating point
		// value" is precisely the paper's short-term INF/NaN condition
		// (Sec 4.2.2, Table 4's 2.9e38–3.0e38 band).
		clamp := func(v float64) float64 {
			if math.IsInf(v, 0) || v > math.MaxFloat32 {
				return math.MaxFloat32
			}
			return v
		}
		if h := clamp(math.Max(r.HistAtT, r.HistAtT1)); h > 0 {
			cr.Hist.Observe(h)
		}
		if m := clamp(math.Max(r.MvarAtT, r.MvarAtT1)); m > 0 {
			cr.Mvar.Observe(m)
		}
	}
	return out
}

// FFStat is the per-FF-class contribution record (Sec 4.3.1).
type FFStat struct {
	Kind       accel.FFKind
	Total      int
	Unexpected int
}

// FFContribution breaks down unexpected outcomes by FF class.
func (c *Campaign) FFContribution() []FFStat {
	byKind := map[accel.FFKind]*FFStat{}
	for i := range c.Records {
		r := &c.Records[i]
		s := byKind[r.Injection.Kind]
		if s == nil {
			s = &FFStat{Kind: r.Injection.Kind}
			byKind[r.Injection.Kind] = s
		}
		s.Total++
		if r.Outcome.IsUnexpected() {
			s.Unexpected++
		}
	}
	var out []FFStat
	for _, s := range byKind {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// UnexpectedShareOfKinds returns the fraction of all unexpected outcomes
// contributed by the given FF kinds — used to reproduce the Sec 4.3.1
// claims (e.g. groups 1+3 + local control: 55.7%–68.5%).
func (c *Campaign) UnexpectedShareOfKinds(kinds ...accel.FFKind) float64 {
	want := map[accel.FFKind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	var totalUnexpected, fromKinds int
	for i := range c.Records {
		r := &c.Records[i]
		if !r.Outcome.IsUnexpected() {
			continue
		}
		totalUnexpected++
		if want[r.Injection.Kind] {
			fromKinds++
		}
	}
	if totalUnexpected == 0 {
		return 0
	}
	return float64(fromKinds) / float64(totalUnexpected)
}

// DetectionCoverage reports how many latent/short-term outcomes the bounds
// detector flagged, and the worst detection latency (iterations from fault
// to alarm). The paper's technique guarantees latency ≤ 2.
func (c *Campaign) DetectionCoverage() (detected, total, maxLatency int) {
	for i := range c.Records {
		r := &c.Records[i]
		if !(r.Outcome.IsLatent() || r.Outcome == outcome.ShortTermINFNaN) {
			continue
		}
		total++
		if r.DetectIter >= 0 {
			detected++
			if lat := r.DetectIter - r.FaultIteration(); lat > maxLatency {
				maxLatency = lat
			}
		}
	}
	return detected, total, maxLatency
}

// OutcomesByLayer splits outcome counts by the injected layer index —
// the paper's layer-position sensitivity analysis (Table 5 row 2: the
// early-layer effect is observed only for SlowDegrade in training).
func (c *Campaign) OutcomesByLayer() map[int]*outcome.Tally {
	out := map[int]*outcome.Tally{}
	for i := range c.Records {
		r := &c.Records[i]
		t := out[r.Injection.LayerIdx]
		if t == nil {
			t = &outcome.Tally{}
			out[r.Injection.LayerIdx] = t
		}
		t.Add(r.Outcome)
	}
	return out
}

// MaskedFraction returns the share of injections whose corruption was
// entirely value-preserving (hardware masking, Sec 2).
func (c *Campaign) MaskedFraction() float64 {
	if len(c.Records) == 0 {
		return 0
	}
	var n int
	for i := range c.Records {
		if c.Records[i].Masked {
			n++
		}
	}
	return float64(n) / float64(len(c.Records))
}

// DetectionLatencies returns the detection latency (iterations from fault
// to alarm) of every bounds-detected experiment.
func (c *Campaign) DetectionLatencies() []int {
	var out []int
	for i := range c.Records {
		r := &c.Records[i]
		if r.DetectIter >= 0 {
			out = append(out, r.DetectIter-r.FaultIteration())
		}
	}
	return out
}

// LatencyStats summarizes the fault-to-alarm latency distribution of the
// bounds detector across a campaign's detected experiments.
type LatencyStats struct {
	// Detected is the number of experiments the detector alarmed on.
	Detected int
	// P50 / P95 are latency percentiles in iterations (linear
	// interpolation between closest ranks).
	P50, P95 float64
	// Max is the worst observed latency; the paper's technique guarantees
	// ≤ 2 iterations (Sec 5.1).
	Max int
}

// DetectionLatencyStats computes p50/p95/max of the detection latencies —
// the distributional view of the paper's latency guarantee, rather than
// only the worst case.
func (c *Campaign) DetectionLatencyStats() LatencyStats {
	lats := c.DetectionLatencies()
	if len(lats) == 0 {
		return LatencyStats{}
	}
	xs := make([]float64, len(lats))
	maxLat := lats[0]
	for i, l := range lats {
		xs[i] = float64(l)
		if l > maxLat {
			maxLat = l
		}
	}
	return LatencyStats{
		Detected: len(lats),
		P50:      stats.Percentile(xs, 50),
		P95:      stats.Percentile(xs, 95),
		Max:      maxLat,
	}
}

// OutcomesByPass splits outcome counts by the pass the fault was injected
// into (Fig 4's forward/backward distinction).
func (c *Campaign) OutcomesByPass() map[fault.Pass]*outcome.Tally {
	out := map[fault.Pass]*outcome.Tally{}
	for i := range c.Records {
		r := &c.Records[i]
		t := out[r.Injection.Pass]
		if t == nil {
			t = &outcome.Tally{}
			out[r.Injection.Pass] = t
		}
		t.Add(r.Outcome)
	}
	return out
}

// Report writes a Fig-3-style outcome breakdown with Wilson confidence
// intervals, followed by the detection-latency percentiles (p50/p95/max)
// when the bounds detector alarmed at least once.
func (c *Campaign) Report(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %d experiments, fault-free final acc %.3f\n",
		c.Cfg.Workload.Name, c.Tally.Total, c.RefAcc)
	for _, o := range outcome.All() {
		n := c.Tally.Counts[o]
		if n == 0 {
			continue
		}
		p := stats.WilsonInterval(n, c.Tally.Total, 0.99)
		fmt.Fprintf(w, "  %-18s %5d  %6.2f%%  (99%% CI %.2f%%–%.2f%%)\n",
			o, n, 100*p.P, 100*p.Lo, 100*p.Hi)
	}
	fmt.Fprintf(w, "  %-18s        %6.2f%%\n", "unexpected-total", 100*c.Tally.UnexpectedFraction())
	if ls := c.DetectionLatencyStats(); ls.Detected > 0 {
		fmt.Fprintf(w, "  detection latency (iters): p50 %.1f  p95 %.1f  max %d  (%d alarms)\n",
			ls.P50, ls.P95, ls.Max, ls.Detected)
	}
	if c.ExperimentsAdopted > 0 || c.EarlyExits > 0 || c.ConvergedTails > 0 || c.GoldenByConstruction > 0 {
		fmt.Fprintf(w, "  equivalence: %d adopted (dedup), %d early exits, %d converged tails, %d iters synthesized, %d golden by construction\n",
			c.ExperimentsAdopted, c.EarlyExits, c.ConvergedTails, c.IterationsSynthesized, c.GoldenByConstruction)
	}
	if c.WarmRestores+c.ColdRestores > 0 {
		fmt.Fprintf(w, "  locality: %d warm / %d cold snapshot restores\n",
			c.WarmRestores, c.ColdRestores)
	}
	if c.Cfg.DeviceFaults {
		var q, rj, di, cr int
		for i := range c.Records {
			r := &c.Records[i]
			q += r.Quarantines
			rj += r.Rejoins
			di += r.DegradedIters
			cr += r.CommRetries
		}
		fmt.Fprintf(w, "  group mitigation: %d quarantines, %d rejoins, %d degraded iters, %d comm retries, %d group hangs\n",
			q, rj, di, cr, c.Tally.Counts[outcome.GroupHang])
		if rs := c.RecoveryStats(); rs.Strategy != "none" {
			line := fmt.Sprintf("  recovery [%s]: %d/%d recovered", rs.Strategy, rs.Recovered, rs.Records)
			if rs.Recovered > 0 {
				line += fmt.Sprintf(", mean time-to-recover %.1f iters", rs.MeanTTR)
			}
			line += fmt.Sprintf(", mean accuracy cost %+.3f", rs.MeanAccuracyCost)
			if rs.JITSnapshots > 0 || rs.Resizes > 0 || rs.Readmits > 0 {
				line += fmt.Sprintf(" (%d jit snapshots, %d resizes, %d readmits)", rs.JITSnapshots, rs.Resizes, rs.Readmits)
			}
			fmt.Fprintf(w, "%s\n", line)
		}
	}
}

// RecoveryStats aggregates one campaign's recovery behavior — the
// head-to-head comparison unit when the same device-fault population is
// replayed under different strategies.
type RecoveryStats struct {
	// Strategy is the resolved recovery strategy the campaign ran.
	Strategy string
	// Records / Hangs / Recovered count completed records, GroupHang
	// outcomes, and records whose group returned to full strength.
	Records, Hangs, Recovered int
	// MeanTTR is the mean time-to-recover in iterations over the
	// recovered records (0 when none recovered).
	MeanTTR float64
	// MeanAccuracyCost is the mean per-record accuracy cost vs the
	// fault-free reference over all completed records.
	MeanAccuracyCost float64
	// JITSnapshots / Resizes / Readmits total the strategy-specific
	// recovery activity.
	JITSnapshots, Resizes, Readmits int
}

// RecoveryStats computes the campaign's recovery aggregate.
func (c *Campaign) RecoveryStats() RecoveryStats {
	rs := RecoveryStats{
		Strategy: c.Cfg.recoveryStrategy().String(),
		Hangs:    c.Tally.Counts[outcome.GroupHang],
	}
	var ttrSum, costSum float64
	for i := range c.Records {
		r := &c.Records[i]
		rs.Records++
		costSum += r.AccuracyCost
		if r.TimeToRecoverIters >= 0 {
			rs.Recovered++
			ttrSum += float64(r.TimeToRecoverIters)
		}
		rs.JITSnapshots += r.JITSnapshots
		rs.Resizes += r.Resizes
		rs.Readmits += r.Readmits
	}
	if rs.Recovered > 0 {
		rs.MeanTTR = ttrSum / float64(rs.Recovered)
	}
	if rs.Records > 0 {
		rs.MeanAccuracyCost = costSum / float64(rs.Records)
	}
	return rs
}
