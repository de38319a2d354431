package experiment

// Golden by construction: experiments whose fault can touch no value and no
// group membership before the horizon are the golden run, and under
// Config.EarlyExit are classified without running — the early exit taken
// before the first iteration instead of after the first digest comparison.
// Both cases are decided from the sampled fault, the collective policy and the
// golden run's static tables before an engine is touched:
//
//   - An FF injection whose site never fires (backward-weight into a
//     parameter-less layer) or whose resolved write program is empty writes
//     nothing. The engine's randomness, data order and optimizer are pure
//     functions of (seed, iteration, device), so every iteration of the
//     experiment is the golden run's, bit for bit.
//   - A device fault that only delays (fault.EffectDelays) and, under the
//     collective's policy, arrives within the retry budget
//     (comm.Policy.Arrival — the arithmetic AllReduce itself resolves every
//     device with) is never failed, never excluded and never corrupts: every
//     reduction has the golden participants and the golden values. Under a
//     recovery strategy the run additionally quarantines whatever the
//     cross-replica check alarms on, and that check is a stateless function
//     of one step's contribution signatures — the golden run's, here — so
//     its verdicts are the golden schedule PrepareGolden recorded; a golden
//     alarm anywhere in the executed window, or no schedule, executes.
//
// The record is then written from the immutable Golden, mirroring what
// runOne / runDeviceFault write field for field (TestGoldenByConstructionExact
// holds every synthesized record to the executed one, as journal bytes). What
// is deliberately left executing: non-empty programs that happen to preserve
// every value (data-dependent), crashes that repair, every campaign whose
// golden run went non-finite (no completed golden run to be) —
// and every campaign that did not ask for EarlyExit. The exhaustive campaign
// is the oracle the equivalence layer is held to (ci.sh and bench's
// ff-resnet-fastpath compare the two on every run), so it executes what it
// samples; and how many experiments a population holds that can be proven is
// binomial in the campaign seed, which is the equivalence layer's kind of
// cost, not the reference campaign's (bench/seeds.go matches its populations
// on executed iterations).

import (
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/recovery"
)

// goldenProof is what the predicate established on its way to true and the
// synthesizer writes into the record.
type goldenProof struct {
	// fires: the FF injection's site exists and its program is empty — the
	// engine reports the fault as fired with no elements.
	fires bool
	// attempts is the retry attempts the straggler costs each collective it
	// is active in.
	attempts int
}

// provablyGolden is the predicate: the fault of rec, an experiment's sampled
// record, touches no value and no group membership before the horizon, so the
// experiment is the golden run. p is the collective policy the experiment
// would run under (the engine's after Reset, comm.DefaultPolicy; a recovery
// strategy adds exclusion, which Arrival does not read).
func (g *Golden) provablyGolden(cfg Config, rec *Record, p comm.Policy) (proof goldenProof, ok bool) {
	if !cfg.EarlyExit || g.digests == nil {
		return proof, false
	}
	if !rec.device() {
		if rec.Injection.Iteration >= g.horizon {
			return proof, false
		}
		_, fires, program := g.site(&rec.Injection)
		return goldenProof{fires: fires}, !fires || len(program) == 0
	}
	df := rec.DeviceFault
	if df.Effect() != fault.EffectDelays || df.Iteration >= g.horizon {
		return proof, false
	}
	attempts, arrives := p.Arrival(df.DelayTicks, true)
	if !arrives {
		return proof, false
	}
	if cfg.recoveryStrategy() != recovery.StrategyNone {
		// A guarded run quarantines what the cross-replica check alarms on,
		// from the boundary runDeviceFault forks at to the horizon.
		if g.groupAlarms == nil {
			return proof, false
		}
		start, _ := g.fork(rec)
		for _, alarm := range g.groupAlarms[start:] {
			if alarm {
				return proof, false
			}
		}
	}
	return goldenProof{attempts: attempts}, true
}

// goldenRecord is the synthesizer: the record runOne (runDeviceFault for a
// device fault) returns from the sampled record rec when provablyGolden holds
// for it, written from the golden run's trace and schedules.
func (g *Golden) goldenRecord(rec Record, proof goldenProof) Record {
	trace := *g.ref // the run is the golden run; slices shared, read only
	pass := rec.Injection.Pass
	if rec.device() {
		df := rec.DeviceFault
		for iter := df.Iteration; iter < g.horizon; iter++ {
			if df.ActiveAt(iter) {
				rec.CommRetries += proof.attempts
			}
		}
		rec.Masked = rec.CommRetries == 0
		trace.FaultIter = df.Iteration
		pass = fault.BackwardWeight
	} else {
		t := rec.Injection.Iteration
		if proof.fires {
			trace.FaultIter = t
		}
		rec.HistAtT, rec.MvarAtT = g.histAbsMax[t], g.mvarAbsMax[t]
		if t+1 < g.horizon {
			rec.HistAtT1, rec.MvarAtT1 = g.histAbsMax[t+1], g.mvarAbsMax[t+1]
			// runOne compares digests from t+1 on, never at the last
			// iteration, and a run that is the golden run matches at once.
			if t+1 < g.horizon-1 {
				rec.EarlyExitIter = t + 1
			}
		}
		// The detector is checked from t on, and its verdict on a golden
		// state is the golden schedule's whether runOne reads it off the
		// engine or off alarmAfter.
		rec.DetectIter = g.alarmAfter(t - 1)
	}
	g.classify(&rec, &trace, pass)
	return rec
}
