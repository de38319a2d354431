package experiment

// Device-fault campaigns: the system-level counterpart of the FF bit-flip
// campaigns. Instead of arming a sampled accelerator fault on one replica's
// kernels, each experiment arms one sampled fault.DeviceFault on the
// engine's collective group — a link SDC, a stuck-at datapath, a straggler,
// or a crash — and observes the run to the same horizon.
//
// The execution machinery is shared with runOne byte for byte: experiments
// fork from the golden-prefix snapshot cache, reuse pooled per-worker
// engines (Engine.Reset restores the collective to its pristine state), and
// stream Records through the same journaling/resume path. Two campaign
// modes exist:
//
//   - Unmitigated (Config.Recovery unset): the collective runs the
//     default non-excluding policy. A crashed or hopelessly straggling
//     device hangs the synchronous group (outcome.GroupHang) and corrupt
//     contributions flow into the weights unchecked.
//   - Mitigated: recovery.GroupGuard drives the run under the strategy
//     Config.Recovery selects — reexec
//     (timeout+retry with exclusion, cross-replica check, two-iteration
//     re-execution, timer-based hot-rejoin), jit (just-in-time donor
//     checkpointing with background restore), elastic (global-batch
//     re-partitioning over survivors with shard-weighted averaging), or
//     degraded (quarantine-only). A single sampled population replayed
//     under each strategy is the head-to-head comparison the paper's
//     recovery axis calls for.

import (
	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/train"
)

// deviceFaultKinds is the kind list device faults are sampled from, in
// sampling order: DeviceFaultKinds, or every injectable kind when empty.
func (cfg Config) deviceFaultKinds() []fault.DeviceFaultKind {
	if len(cfg.DeviceFaultKinds) == 0 {
		return fault.AllDeviceFaultKinds()
	}
	return cfg.DeviceFaultKinds
}

// sampleDeviceFaults pre-draws every experiment's device fault
// (deterministic and independent of worker scheduling, like
// sampleInjections). The sampling stream is decoupled from the FF stream so
// FF and device-fault campaigns with the same seed stay independent.
func sampleDeviceFaults(cfg Config, maxInjectIter int) []fault.DeviceFault {
	r := rng.NewFromInt(cfg.Seed ^ 0xdef1ce)
	kinds := cfg.deviceFaultKinds()
	out := make([]fault.DeviceFault, cfg.Experiments)
	for i := range out {
		out[i] = fault.SampleDeviceFault(r, cfg.Workload.Devices, maxInjectIter, kinds)
	}
	return out
}

// runDeviceFault executes a single device-fault experiment, mirroring
// runOne: restore the nearest golden snapshot at or before the fault onset,
// reconstruct the trace prefix, arm the fault on the collective, and run
// the suffix — mitigated through recovery.GroupGuard when cfg selects a
// recovery strategy, otherwise with the plain engine loop. e is the worker's pooled engine.
// Returns the record, the prefix length skipped, the suffix iterations
// executed, and the number of cross-replica checks performed.
func runDeviceFault(g *Golden, e *train.Engine, df fault.DeviceFault, cfg Config) (Record, int, int, int) {
	w := g.w
	// Fork from the boundary strictly before the fault onset (not at it):
	// the earliest cross-replica alarm fires at the onset iteration, and the
	// two-iteration re-execution must find the same rollback window a
	// cold-start run would have — which requires at least one executed
	// iteration before the alarm.
	preFault := df.Iteration - 1
	if preFault < 0 {
		preFault = 0
	}
	start, snap := g.nearest(preFault)
	rearm(e, snap, cfg)
	e.Group().Arm(df)

	strategy := cfg.recoveryStrategy()
	rec := Record{DeviceFault: df, NonFiniteIter: -1, DetectIter: -1, QuarantineIter: -1,
		AdoptedFrom: -1, EarlyExitIter: -1, Masked: true,
		RecoveryStrategy: strategy.String(), TimeToRecoverIters: -1}
	trace := train.NewTrace(w.Name)
	trace.FinalTestOnly = true
	copyGoldenPrefix(trace, g.ref, start)
	if df.Iteration < g.horizon {
		trace.FaultIter = df.Iteration
	}

	hang := false
	checks := 0
	if strategy != recovery.StrategyNone {
		gg := recovery.NewGroupGuard(e)
		gg.Strategy = strategy
		if strategy == recovery.StrategyDegraded {
			gg.RejoinAfter = 0 // stay degraded instead of hot-rejoining
		}
		if err := gg.Run(start, g.horizon, trace); err != nil {
			hang = true // whole group failed: nothing left to reduce over
		}
		rec.DetectIter = gg.FirstDetectIter()
		rec.QuarantineIter = gg.FirstQuarantineIter()
		rec.Quarantines = gg.Quarantines
		rec.Rejoins = gg.Rejoins
		rec.DegradedIters = gg.DegradedIters
		rec.CommRetries = gg.CommRetries
		rec.InjectedElems = gg.CorruptElems
		rec.TimeToRecoverIters = gg.TimeToRecover()
		rec.JITSnapshots = gg.JITSnapshots
		rec.Resizes = gg.Resizes
		rec.Readmits = gg.Readmits
		checks = trace.Completed - start // one cross-replica check per surviving iteration
	} else {
		for iter := start; iter < g.horizon; iter++ {
			st := e.RunIteration(iter)
			rec.CommRetries += st.CommRetries
			rec.InjectedElems += st.DeviceFaultElems
			if st.GroupHang {
				// The synchronous group deadlocked: the iteration produced no
				// update and training is over.
				hang = true
				break
			}
			trace.TrainLoss = append(trace.TrainLoss, st.Loss)
			trace.TrainAcc = append(trace.TrainAcc, st.TrainAcc)
			trace.Completed++
			e.RecordTest(iter, trace)
			if st.NonFinite && trace.NonFiniteIter == -1 {
				trace.NonFiniteIter = iter
				trace.NonFiniteAt = st.NonFiniteAt
				break // error message terminates the experiment (Sec 3.3)
			}
		}
	}

	// GroupGuard.Run has joined its background restores by now, so the root
	// replica is free to take the held boundary's values.
	e.ResolveTest(trace)

	// A device fault is observable the moment it corrupts a gradient element
	// or costs a retry/quarantine — unlike FF masking, a hang is never
	// masked.
	rec.Masked = rec.InjectedElems == 0 && rec.CommRetries == 0 && rec.Quarantines == 0 && !hang

	switch {
	case hang:
		rec.Outcome = outcome.GroupHang
	default:
		// Gradient corruption enters the weights through the optimizer
		// update, like a weight-gradient backward-pass FF: an INF/NaN one
		// iteration after onset still counts as immediate.
		rec.Outcome = g.cls.Classify(trace, fault.BackwardWeight)
		if rec.Quarantines > 0 && !rec.Outcome.IsUnexpected() {
			if e.Group().HealthyCount() == e.Config().Devices {
				rec.Outcome = outcome.QuarantinedRecovered
			} else {
				rec.Outcome = outcome.DegradedComplete
			}
		}
	}
	rec.FinalTrainAcc = trace.FinalTrainAcc(10)
	rec.FinalTestAcc = trace.FinalTestAcc()
	rec.NonFiniteIter = trace.NonFiniteIter
	rec.AccuracyCost = g.refAcc - rec.FinalTrainAcc
	return rec, start, trace.Completed - start, checks
}
