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
//     Config.Recovery selects — reexec (timeout+retry with exclusion,
//     cross-replica check, two-iteration re-execution, timer-based
//     hot-rejoin), jit (the root donor imaged into the lost rank at
//     quarantine as its just-in-time checkpoint), elastic (global-batch
//     re-partitioning over survivors with shard-weighted averaging), or
//     degraded (quarantine-only, never re-admits). A single sampled
//     population replayed under each strategy is the head-to-head
//     comparison the paper's recovery axis calls for.

import (
	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/recovery"
	"repro/internal/telemetry"
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

// runDeviceFault executes a single device-fault experiment from its sampled
// record, mirroring runOne: restore the golden snapshot the experiment forks
// from (strictly before the fault onset, see Golden.fork), reconstruct the
// trace prefix, arm the fault on the collective, and run the suffix —
// mitigated through recovery.GroupGuard when cfg selects a recovery strategy,
// otherwise with the plain engine loop. e is the worker's pooled engine.
// Returns the record and what executing it cost: the prefix length skipped,
// the suffix iterations executed, and the number of cross-replica checks
// performed.
func runDeviceFault(g *Golden, e *train.Engine, rec Record, cfg Config) (Record, telemetry.Counts) {
	w := g.w
	df := rec.DeviceFault
	start, snap := g.fork(&rec)
	rearm(e, snap, cfg)
	e.Group().Arm(df)

	strategy := cfg.recoveryStrategy()
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

	e.ResolveTest(trace)

	// A device fault is observable the moment it corrupts a gradient element
	// or costs a retry/quarantine — unlike FF masking, a hang is never
	// masked.
	rec.Masked = rec.InjectedElems == 0 && rec.CommRetries == 0 && rec.Quarantines == 0 && !hang

	// Gradient corruption enters the weights through the optimizer update,
	// like a weight-gradient backward-pass FF: an INF/NaN one iteration after
	// onset still counts as immediate.
	g.classify(&rec, trace, fault.BackwardWeight)
	switch {
	case hang:
		rec.Outcome = outcome.GroupHang
	case rec.Quarantines > 0 && !rec.Outcome.IsUnexpected():
		if e.Group().HealthyCount() == e.Config().Devices {
			rec.Outcome = outcome.QuarantinedRecovered
		} else {
			rec.Outcome = outcome.DegradedComplete
		}
	}
	return rec, telemetry.Counts{IterationsSkipped: int64(start),
		IterationsExecuted: int64(trace.Completed - start), DetectorChecks: checks}
}
