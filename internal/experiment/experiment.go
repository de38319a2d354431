// Package experiment implements the statistical fault-injection campaign
// harness (Sec 3.3): it runs batches of randomized FI experiments against a
// workload and classifies each run's outcome into a Record. The statistics
// the paper reports from those records — outcome breakdowns (Fig 3),
// necessary-condition value ranges (Table 4), FF-class contributions
// (Sec 4.3.1), detection coverage and latency (Sec 5.1), recovery — are
// aggregated and rendered by internal/paper, from Campaign.Landed alone, so
// a live campaign and one rebuilt from its archive read the same.
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
	"iter"

	"repro/internal/accel"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/recovery"
	"repro/internal/telemetry"
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
	// SnapshotStride controls the golden-prefix snapshot cache for forked
	// experiment execution: the fault-free reference run records a
	// train.State snapshot every SnapshotStride iterations (plus the
	// initial state), and each experiment restores the nearest snapshot at
	// or before its injection iteration and executes only the suffix,
	// instead of replaying the bitwise-identical prefix from iteration 0.
	//
	//	 0 — auto: the densest stride whose cache fits 256 MiB.
	//	>0 — explicit stride.
	//	<0 — disable forking; every experiment replays from iteration 0.
	//
	// Forked and cold campaigns produce byte-identical Records and Tally
	// (TestForkedCampaignEquivalence); forking is purely a wall-clock
	// optimization.
	SnapshotStride int
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
	// against the golden run's at every iteration boundary, and the moment
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
	// EarlyExitStride is read by nothing but Resume, which refuses any value
	// above 1: the digest is compared at every boundary. It survives only
	// because bench/run.go:88 assigns it and bench/ is frozen until
	// Benchmark v2 (ROADMAP); leave it unset.
	EarlyExitStride int
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
	if r.device() {
		return r.DeviceFault.Iteration
	}
	return r.Injection.Iteration
}

// device reports whether the record is a device-fault experiment's. Every
// record carries one flavour of fault, and a device fault always has a kind
// (Resume refuses DeviceFaultNone as one), so the kind tells the two apart.
func (r *Record) device() bool { return r.DeviceFault.Kind != fault.DeviceFaultNone }

// Campaign is a completed batch of experiments.
type Campaign struct {
	Cfg     Config
	Ref     *train.Trace
	RefAcc  float64
	Records []Record

	// Counts is the sum of the ledger entries of every record this call
	// landed, replayed ones included (see Resume): the Tally of the
	// completed records, their provenance and mitigation counts, and what
	// executing them cost. A record that ran nothing — replayed from a
	// journal, adopted, or golden by construction — adds no iterations,
	// restores or evaluations. The runtime counts vary with Workers and
	// resume state and are never journaled: the record CSV/JSON payloads
	// stay byte-identical across execution knobs.
	telemetry.Counts

	// Completed counts the records actually present in Records; it is
	// less than Cfg.Experiments only for a campaign that was cancelled
	// mid-run or restricted to a Shard (see Resume). Tally covers exactly
	// the completed records.
	Completed int

	// Snapshots / SnapshotBytes / Stride describe the golden-prefix cache
	// the campaign forked from (see Config.SnapshotStride).
	Snapshots     int
	SnapshotBytes int64
	Stride        int

	// landed marks the slots of Records that hold a completed record; nil
	// means every slot does. Every per-record aggregate reads only those.
	landed []bool
}

// Landed yields the completed records, in index order: a cancelled or
// Shard-restricted Resume leaves the other slots of Records zero-valued, so
// every per-record aggregate reads the campaign through Landed.
func (c *Campaign) Landed() iter.Seq[*Record] {
	return func(yield func(*Record) bool) {
		for i := range c.Records {
			if (c.landed == nil || c.landed[i]) && !yield(&c.Records[i]) {
				return
			}
		}
	}
}

// Run executes the campaign: a golden reference run with a prefix snapshot
// cache (PrepareGolden), then the FI experiments forked from it across a
// fixed worker pool with per-worker engine reuse. Identical in results —
// byte for byte — to a cold-start campaign (SnapshotStride: -1, Workers: 1);
// see forked.go for the machinery and the exactness argument.
func Run(cfg Config) *Campaign {
	return RunWithGolden(cfg, nil)
}

// runOne executes a single FI experiment from its sampled record: restore
// the golden snapshot the experiment forks from, reconstruct the trace prefix
// from the golden trace (the skipped iterations are bitwise-identical to it),
// and execute the suffix — truncated by the masked early exit when cfg
// enables it (see earlyexit.go). e is the worker's pooled engine. Returns the
// record and what executing it cost: the prefix length skipped, the suffix
// iterations executed, the tail iterations synthesized from the golden trace,
// and the number of detector checks performed.
func runOne(g *Golden, e *train.Engine, rec Record, cfg Config) (Record, telemetry.Counts) {
	w := g.w
	inj := rec.Injection
	start, snap := g.fork(&rec)
	rearm(e, snap, cfg)
	e.SetInjection(&inj)
	det := detect.ForEngine(e, w.BatchSize(), w.LR, true)

	// The early exit needs a completed golden tail to synthesize from; a
	// non-finite golden run cleared the schedules (see PrepareGolden).
	earlyExit := cfg.EarlyExit && g.digests != nil

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
		// The digest comparison runs strictly after the iteration's full
		// bookkeeping, and only from t+1 on (the HistAtT1/MvarAtT1
		// measurements at t+1 must come from real execution; a fired
		// injection can only re-join the golden trajectory after t anyway).
		if iter <= inj.Iteration || iter >= g.horizon-1 {
			continue
		}
		if earlyExit && e.StateDigest() == g.digests[iter] {
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
	}
	e.ResolveTest(trace)
	g.classify(&rec, trace, inj.Pass)
	return rec, telemetry.Counts{IterationsSkipped: int64(start),
		IterationsExecuted:    int64(trace.Completed - start - synthesized),
		IterationsSynthesized: int64(synthesized), DetectorChecks: checks}
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

// RecoveryStats aggregates one campaign's recovery behavior — the
// head-to-head comparison unit when the same device-fault population is
// replayed under different strategies. It reads the landed records alone,
// so a campaign rebuilt from its archive aggregates to the same values.
type RecoveryStats struct {
	// Strategy is the recovery strategy the records ran under (the
	// campaign's resolved strategy when none landed).
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
	// Quarantines / Rejoins / DegradedIters / CommRetries total the
	// group-mitigation events.
	Quarantines, Rejoins, DegradedIters, CommRetries int
}

// RecoveryStats computes the campaign's recovery aggregate over its
// completed records.
func (c *Campaign) RecoveryStats() RecoveryStats {
	rs := RecoveryStats{Strategy: c.Cfg.recoveryStrategy().String()}
	var ttrSum, costSum float64
	for r := range c.Landed() {
		rs.Strategy = r.RecoveryStrategy
		rs.Records++
		if r.Outcome == outcome.GroupHang {
			rs.Hangs++
		}
		costSum += r.AccuracyCost
		if r.TimeToRecoverIters >= 0 {
			rs.Recovered++
			ttrSum += float64(r.TimeToRecoverIters)
		}
		rs.JITSnapshots += r.JITSnapshots
		rs.Resizes += r.Resizes
		rs.Readmits += r.Readmits
		rs.Quarantines += r.Quarantines
		rs.Rejoins += r.Rejoins
		rs.DegradedIters += r.DegradedIters
		rs.CommRetries += r.CommRetries
	}
	if rs.Recovered > 0 {
		rs.MeanTTR = ttrSum / float64(rs.Recovered)
	}
	if rs.Records > 0 {
		rs.MeanAccuracyCost = costSum / float64(rs.Records)
	}
	return rs
}
