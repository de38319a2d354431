package recovery

// Group-level mitigation: the system-level counterpart of Guarded. Where
// Guarded pairs the single-accelerator detection bounds with two-iteration
// re-execution, GroupGuard pairs the collective layer's failure reports and
// the cross-replica consistency check with a pluggable recovery Strategy:
//
//   - StrategyReexec (the paper's pipeline, the default): a device that
//     exhausts the collective timeout+retry budget (crash, hopeless
//     straggler) is excluded by the engine mid-iteration; its contribution
//     never entered the reduction, so no rollback is needed — the group
//     continues degraded with rescaled averaging. A device whose
//     contribution fails the cross-replica check (stuck-at datapath, link
//     SDC) is quarantined AND the corrupted update is undone with the
//     paper's two-iteration re-execution. rejoinAfter iterations after its
//     quarantine, a device hot-rejoins by replicating weights and
//     normalization statistics from the healthy root peer
//     (train.Engine.Rejoin).
//   - StrategyJIT: no re-execution ring at all (zero steady-state snapshot
//     cost). On quarantine the guard images the healthy root peer's replica
//     into the lost rank on the spot — data-parallel ranks hold identical
//     weights, so the donor's state IS the lost rank's checkpoint, taken
//     just-in-time after the failure. When the device's fault repairs, the
//     restored rank is topped up with the current root weights and
//     re-admitted.
//   - StrategyElastic: no re-execution ring either. The engine re-partitions
//     the global batch across the survivors every degraded iteration
//     (train.Engine.SetElastic), so no example is dropped and gradient
//     averaging stays exact over the new partition; repaired devices are
//     re-admitted with a re-partition back to full strength.
//   - StrategyDegraded: quarantine-only — the group stays shrunken for the
//     rest of the run. (The re-execution ring is retained for corrupt
//     quarantines.)
//
// Every strategy re-admits through one loop (readmit) and records every
// episode through one call (note), which appends the event and keeps the
// counters and latches derived from it. maxRejoins bounds re-admission
// attempts per device, failed ones included, so a permanently faulty device
// cannot oscillate in and out of the group forever.
//
// JIT and elastic trade the re-executor's rollback away: a corrupt
// contribution detected by the cross-replica check still quarantines the
// outlier, but the poisoned averaged update is not undone (fail-stop
// semantics). Crash and straggler faults — the populations these
// strategies exist for — never corrupt a contribution, so they lose
// nothing.

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/train"
)

const (
	// rejoinAfter is how many iterations after its quarantine a device is
	// given a hot-rejoin attempt under StrategyReexec. (JIT and elastic
	// re-admit on fault repair instead of on a timer.)
	rejoinAfter = 8
	// maxRejoins bounds re-admission attempts per device.
	maxRejoins = 2
)

// GroupEvent records one quarantine or recovery episode.
type GroupEvent struct {
	// Iteration is when the event happened.
	Iteration int
	// Device is the affected replica.
	Device int
	// Kind is "quarantine-timeout" (crash/straggler exclusion),
	// "quarantine-corrupt" (cross-replica alarm), "rejoin" (hot-rejoin from
	// the root peer), "rejoin-failed" (a re-admission attempt that errored),
	// "jit-snapshot" (the root donor imaged into the lost rank as its
	// just-in-time checkpoint), "jit-restore" (a rank re-admitted from its
	// JIT checkpoint), "resize" (the elastic partition shrank), or "readmit"
	// (the elastic partition grew back).
	Kind string
	// ResumedFrom is the re-execution resume iteration for rolled-back
	// quarantine-corrupt events, the donor device for jit-snapshot and
	// jit-restore events, and -1 otherwise.
	ResumedFrom int
}

// GroupGuard couples an engine with the group-level mitigation pipeline.
// NewGroupGuard arms the engine's collective for it (exclusion policy +
// contribution signatures).
type GroupGuard struct {
	E *train.Engine
	R *ReExecutor
	// Check is the cross-replica consistency check run after every
	// iteration's collective.
	Check *detect.GroupCheck
	// Strategy selects the recovery pipeline (StrategyReexec by default).
	Strategy Strategy

	// Events lists every quarantine/recovery episode in order.
	Events []GroupEvent
	// Quarantines, Rejoins, Rollbacks and DegradedIters count mitigation
	// activity: devices removed, devices returned (by any strategy),
	// two-iteration re-executions, and iterations run with a partial group.
	Quarantines, Rejoins, Rollbacks, DegradedIters int
	// RejoinFailures counts re-admission attempts that errored.
	RejoinFailures int
	// JITSnapshots counts just-in-time checkpoints imaged from a donor;
	// Resizes counts elastic re-partitions (shrink or grow); Readmits counts
	// devices returned by the JIT and elastic strategies.
	JITSnapshots, Resizes, Readmits int
	// CommRetries totals the collective retry attempts across the run.
	CommRetries int
	// CorruptElems totals the gradient elements corrupted by the armed
	// device fault across the run (the system-level injection footprint).
	CorruptElems int

	quarantinedAt map[int]int // device -> iteration of latest quarantine
	rejoins       map[int]int // device -> re-admission attempts used
	donors        map[int]int // device -> donor of its untried JIT checkpoint

	firstQuarantine int // iteration of the first quarantine, -1 before
	firstDetect     int // iteration of the first quarantine-corrupt, -1 before
	recoveredAt     int // first completed full-strength iteration after it, -1
}

// NewGroupGuard builds the group-mitigated trainer and switches the
// engine's collective to the mitigation policy: timed-out devices are
// excluded (not group-hung) and contribution signatures are collected for
// the cross-replica check.
func NewGroupGuard(e *train.Engine) *GroupGuard {
	p := e.Group().Policy()
	p.Exclude = true
	e.Group().SetPolicy(p)
	e.Group().SetCollectSigs(true)
	return &GroupGuard{
		E: e, R: NewReExecutor(e), Check: detect.NewGroupCheck(),
		Strategy:      StrategyReexec,
		quarantinedAt: map[int]int{}, rejoins: map[int]int{}, donors: map[int]int{},
		firstQuarantine: -1, firstDetect: -1, recoveredAt: -1,
	}
}

// usesReexec reports whether the strategy runs the two-iteration
// re-execution ring (snapshot every iteration, rollback on corruption).
func (g *GroupGuard) usesReexec() bool {
	return g.Strategy == StrategyReexec || g.Strategy == StrategyDegraded
}

// TimeToRecover returns the number of iterations between the first
// quarantine and the first completed iteration with the group back at full
// strength, or -1 if nothing was quarantined or the group never returned
// to full strength (permanent faults, StrategyDegraded).
func (g *GroupGuard) TimeToRecover() int {
	if g.firstQuarantine < 0 || g.recoveredAt < 0 {
		return -1
	}
	return g.recoveredAt - g.firstQuarantine
}

// FirstQuarantineIter returns the iteration of the first quarantine event,
// or -1.
func (g *GroupGuard) FirstQuarantineIter() int { return g.firstQuarantine }

// FirstDetectIter returns the iteration of the first cross-replica
// detection (quarantine-corrupt) event, or -1.
func (g *GroupGuard) FirstDetectIter() int { return g.firstDetect }

// Run executes iterations [start, end) with group-level mitigation,
// recording metrics into trace. It returns an error only if the whole
// group fails (nothing left to reduce over).
func (g *GroupGuard) Run(start, end int, trace *train.Trace) error {
	g.E.SetElastic(g.Strategy == StrategyElastic)
	iter := start
	for iter < end {
		g.readmit(iter)
		if g.usesReexec() {
			g.R.BeforeIteration(iter)
		}
		st := g.E.RunIteration(iter)
		g.CommRetries += st.CommRetries
		g.CorruptElems += st.DeviceFaultElems
		if st.GroupHang {
			return fmt.Errorf("recovery: collective hang at iteration %d with exclusion policy (no healthy devices left)", iter)
		}
		trace.TrainLoss = append(trace.TrainLoss, st.Loss)
		trace.TrainAcc = append(trace.TrainAcc, st.TrainAcc)
		trace.Completed++
		if st.Degraded {
			g.DegradedIters++
		}

		// Timed-out devices were excluded before their contribution
		// entered the reduction and already quarantined by the engine —
		// record the episode, no rollback needed.
		for _, d := range st.DevicesFailed {
			g.note(iter, d, "quarantine-timeout", -1)
			g.afterQuarantine(iter, d)
		}

		// Cross-replica consistency: a corrupt contribution was consumed
		// by this iteration's reduction, so quarantine the outlier — and,
		// under the re-executing strategies, undo the poisoned update with
		// two-iteration re-execution. JIT and elastic keep no ring: the
		// quarantine is fail-stop and the update stands.
		if a := g.Check.Check(g.E.LastReduce()); a != nil {
			g.E.Quarantine(a.Device)
			if g.usesReexec() {
				resume := g.R.Rollback()
				trace.Rewind(iter, resume)
				g.note(iter, a.Device, "quarantine-corrupt", resume)
				iter = resume
				continue
			}
			g.note(iter, a.Device, "quarantine-corrupt", -1)
			g.afterQuarantine(iter, a.Device)
		}

		// Recovery latch: the first completed iteration with the group back
		// at full strength. (A rejoined-but-still-faulty device never gets
		// here at full strength — the collective re-fails it mid-iteration.)
		if g.recoveredAt < 0 && g.firstQuarantine >= 0 &&
			g.E.Group().HealthyCount() == g.E.Config().Devices {
			g.recoveredAt = iter
		}

		// An INF/NaN that survives the cross-replica check (corruption too
		// small to flag, grown over iterations) is the framework's error
		// message: it terminates the run, exactly as in the FI campaigns.
		if st.NonFinite && trace.NonFiniteIter == -1 {
			trace.NonFiniteIter = iter
			trace.NonFiniteAt = st.NonFiniteAt
			return nil
		}

		g.E.RecordTest(iter, trace)
		iter++
	}
	return nil
}

// afterQuarantine runs the strategy-specific reaction to a fresh
// quarantine: JIT images the healthy root donor into the lost rank — the
// only moment the donor is guaranteed to be at the same iteration boundary
// — and elastic records the shrink re-partition the engine applies next
// iteration.
func (g *GroupGuard) afterQuarantine(iter, d int) {
	switch g.Strategy {
	case StrategyJIT:
		if g.E.Group().HealthyCount() == 0 {
			return
		}
		donor := g.E.RootDevice()
		g.E.RestoreReplica(d, g.E.SnapshotReplica(donor))
		g.note(iter, d, "jit-snapshot", donor)
	case StrategyElastic:
		g.note(iter, d, "resize", -1)
	}
}

// readmit gives every quarantined device with attempts left its strategy's
// re-admission rule, in ascending device order, before iteration iter
// steps. Reexec hot-rejoins from the root peer rejoinAfter iterations after
// the quarantine. JIT tops a repaired rank up with the root's current
// weights (its BatchNorm statistics stay from the checkpoint) and returns
// it to the collective; a rank whose top-up fails keeps no checkpoint and
// is not tried again. Elastic hot-rejoins a repaired device, after which
// the engine re-partitions back to full strength. Degraded never re-admits.
func (g *GroupGuard) readmit(iter int) {
	for d := 0; d < g.E.Config().Devices; d++ {
		at, q := g.quarantinedAt[d]
		if !q || g.rejoins[d] >= maxRejoins {
			continue
		}
		repaired := !g.E.Group().FaultFor(d).ActiveAt(iter)
		kind, from := "", -1
		var err error
		switch g.Strategy {
		case StrategyReexec:
			if iter < at+rejoinAfter {
				continue
			}
			kind, err = "rejoin", g.E.Rejoin(d)
		case StrategyJIT:
			donor, ok := g.donors[d]
			if !ok || !repaired {
				continue
			}
			kind, from, err = "jit-restore", donor, g.E.SyncWeights(d)
			if err == nil {
				g.E.Group().Rejoin(d)
			}
		case StrategyElastic:
			if !repaired {
				continue
			}
			kind, err = "readmit", g.E.Rejoin(d)
		default:
			return
		}
		if err != nil {
			kind, from = "rejoin-failed", -1
		}
		g.note(iter, d, kind, from)
	}
}

// note records one episode: it appends the event and keeps every counter,
// per-device map and latch that follows from it, so Events and the
// counters cannot disagree.
func (g *GroupGuard) note(iter, d int, kind string, from int) {
	g.Events = append(g.Events, GroupEvent{Iteration: iter, Device: d, Kind: kind, ResumedFrom: from})
	switch kind {
	case "quarantine-timeout", "quarantine-corrupt":
		g.Quarantines++
		g.quarantinedAt[d] = iter
		if g.firstQuarantine < 0 {
			g.firstQuarantine = iter
		}
		if kind == "quarantine-corrupt" {
			if g.firstDetect < 0 {
				g.firstDetect = iter
			}
			if from >= 0 {
				g.Rollbacks++
			}
		}
	case "jit-snapshot":
		g.JITSnapshots++
		g.donors[d] = from
	case "resize":
		g.Resizes++
	default: // a re-admission attempt: rejoin, jit-restore, readmit or rejoin-failed
		g.rejoins[d]++
		delete(g.donors, d)
		if kind == "rejoin-failed" {
			g.RejoinFailures++
			return
		}
		delete(g.quarantinedAt, d)
		g.Rejoins++
		if kind != "rejoin" {
			g.Readmits++
		}
		if kind == "readmit" {
			g.Resizes++
		}
	}
}
