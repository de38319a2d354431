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
//     paper's two-iteration re-execution. After RejoinAfter clean
//     iterations, a quarantined device hot-rejoins by replicating weights
//     and normalization statistics from the healthy root peer
//     (train.Engine.Rejoin); MaxRejoins bounds the cycle.
//   - StrategyJIT: no re-execution ring at all (zero steady-state snapshot
//     cost). On quarantine the guard clones the healthy root peer's replica
//     state synchronously — data-parallel ranks hold identical weights, so
//     the donor's state IS the lost rank's checkpoint, taken just-in-time
//     after the failure — and restores it into the lost rank on a
//     background goroutine while training continues. When the device's
//     fault repairs, the restored rank is topped up with the current root
//     weights and re-admitted.
//   - StrategyElastic: no re-execution ring either. The engine re-partitions
//     the global batch across the survivors every degraded iteration
//     (train.Engine.SetElastic), so no example is dropped and gradient
//     averaging stays exact over the new partition; repaired devices are
//     re-admitted with a re-partition back to full strength.
//   - StrategyDegraded: quarantine-only — RejoinAfter is forced to 0 by the
//     campaign layer, the group stays shrunken for the rest of the run.
//     (The re-execution ring is retained for corrupt quarantines.)
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

// GroupEvent records one quarantine or recovery episode.
type GroupEvent struct {
	// Iteration is when the event happened.
	Iteration int
	// Device is the affected replica.
	Device int
	// Kind is "quarantine-timeout" (crash/straggler exclusion),
	// "quarantine-corrupt" (cross-replica alarm), "rejoin" (hot-rejoin from
	// the root peer), "rejoin-failed" (a hot-rejoin attempt that errored),
	// "jit-snapshot" (a donor replica cloned as a just-in-time checkpoint),
	// "jit-restore" (a rank re-admitted from a JIT checkpoint), "resize"
	// (the elastic partition shrank), or "readmit" (the elastic partition
	// grew back).
	Kind string
	// ResumedFrom is the re-execution resume iteration for rolled-back
	// quarantine-corrupt events, the donor device for jit-snapshot and
	// jit-restore events, and -1 otherwise.
	ResumedFrom int
}

// pendingJIT tracks one in-flight just-in-time restore: the cloned donor
// state, the donor device, and the channel the background copy closes when
// the quarantined replica has been imaged.
type pendingJIT struct {
	state *train.ReplicaState
	donor int
	done  chan struct{}
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
	// RejoinAfter is how many iterations after its quarantine a device is
	// given a hot-rejoin attempt under StrategyReexec; 0 keeps the group
	// degraded for the rest of the run. (JIT and elastic re-admit on fault
	// repair instead of on a timer.)
	RejoinAfter int
	// MaxRejoins bounds rejoin/re-admission attempts per device, so a
	// permanently faulty device cannot oscillate in and out of the group
	// forever. Failed attempts charge against it too (a wedged device
	// cannot retry unboundedly).
	MaxRejoins int

	// Events lists every quarantine/recovery episode in order.
	Events []GroupEvent
	// Quarantines, Rejoins, Rollbacks and DegradedIters count mitigation
	// activity: devices removed, devices returned (by any strategy),
	// two-iteration re-executions, and iterations run with a partial group.
	Quarantines, Rejoins, Rollbacks, DegradedIters int
	// RejoinFailures counts hot-rejoin attempts that errored.
	RejoinFailures int
	// JITSnapshots counts donor replicas cloned as just-in-time
	// checkpoints; Resizes counts elastic re-partitions (shrink or grow);
	// Readmits counts devices returned by the JIT and elastic strategies.
	JITSnapshots, Resizes, Readmits int
	// CommRetries totals the collective retry attempts across the run.
	CommRetries int
	// CorruptElems totals the gradient elements corrupted by the armed
	// device fault across the run (the system-level injection footprint).
	CorruptElems int

	quarantinedAt map[int]int // device -> iteration of latest quarantine
	rejoins       map[int]int // device -> rejoin attempts used

	pending map[int]*pendingJIT // device -> in-flight JIT restore

	firstQuarantine int // iteration of the first quarantine, -1 before
	recoveredAt     int // first completed full-strength iteration after it, -1

	// onRestore, when non-nil, observes every completed JIT restore before
	// the weight top-up: the re-imaged device and the checkpoint it was
	// restored from. Test seam for the bitwise donor-equality proof.
	onRestore func(device int, s *train.ReplicaState)
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
		Strategy:    StrategyReexec,
		RejoinAfter: 8, MaxRejoins: 2,
		quarantinedAt: map[int]int{}, rejoins: map[int]int{},
		pending:         map[int]*pendingJIT{},
		firstQuarantine: -1, recoveredAt: -1,
	}
}

// usesReexec reports whether the strategy runs the two-iteration
// re-execution ring (snapshot every iteration, rollback on corruption).
func (g *GroupGuard) usesReexec() bool {
	return g.Strategy == StrategyReexec || g.Strategy == StrategyDegraded || g.Strategy == StrategyNone
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

// noteQuarantine latches the first quarantine iteration for TimeToRecover.
func (g *GroupGuard) noteQuarantine(iter int) {
	if g.firstQuarantine < 0 {
		g.firstQuarantine = iter
	}
}

// Run executes iterations [start, end) with group-level mitigation,
// recording metrics into trace. It returns an error only if the whole
// group fails (nothing left to reduce over).
func (g *GroupGuard) Run(start, end int, trace *train.Trace) error {
	g.E.SetElastic(g.Strategy == StrategyElastic)
	// A pooled engine is reused by the next experiment the moment Run
	// returns — never leave a background restore writing into a replica.
	defer g.drainRestores()
	iter := start
	for iter < end {
		// Return due devices to the group before stepping, ascending
		// device order.
		switch g.Strategy {
		case StrategyJIT:
			g.admitJITRestored(iter)
		case StrategyElastic:
			g.readmitElastic(iter)
		default:
			g.rejoinDue(iter)
		}

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
			g.quarantinedAt[d] = iter
			g.Quarantines++
			g.noteQuarantine(iter)
			g.Events = append(g.Events, GroupEvent{Iteration: iter, Device: d, Kind: "quarantine-timeout", ResumedFrom: -1})
			g.afterQuarantine(iter, d)
		}

		// Cross-replica consistency: a corrupt contribution was consumed
		// by this iteration's reduction, so quarantine the outlier — and,
		// under the re-executing strategies, undo the poisoned update with
		// two-iteration re-execution. JIT and elastic keep no ring: the
		// quarantine is fail-stop and the update stands.
		if a := g.Check.Check(g.E.LastReduce()); a != nil {
			g.E.Quarantine(a.Device)
			g.quarantinedAt[a.Device] = iter
			g.Quarantines++
			g.noteQuarantine(iter)
			if g.usesReexec() {
				resume := g.R.Rollback()
				g.Rollbacks++
				trace.Rewind(iter, resume)
				g.Events = append(g.Events, GroupEvent{Iteration: iter, Device: a.Device, Kind: "quarantine-corrupt", ResumedFrom: resume})
				iter = resume
				continue
			}
			g.Events = append(g.Events, GroupEvent{Iteration: iter, Device: a.Device, Kind: "quarantine-corrupt", ResumedFrom: -1})
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
// quarantine: JIT clones a checkpoint from the healthy root donor, elastic
// records the shrink re-partition the engine will apply next iteration.
func (g *GroupGuard) afterQuarantine(iter, d int) {
	switch g.Strategy {
	case StrategyJIT:
		g.jitCapture(iter, d)
	case StrategyElastic:
		g.Resizes++
		g.Events = append(g.Events, GroupEvent{Iteration: iter, Device: d, Kind: "resize", ResumedFrom: -1})
	}
}

// jitCapture takes the just-in-time checkpoint for quarantined device d:
// clone the healthy root donor's replica state now (the only moment the
// donor is guaranteed to be at the same iteration boundary), then image it
// into d on a background goroutine. The copy races nothing: training never
// touches quarantined replicas, and re-admission joins the channel first.
func (g *GroupGuard) jitCapture(iter, d int) {
	if g.E.Group().HealthyCount() == 0 {
		return
	}
	donor := g.E.RootDevice()
	state := g.E.SnapshotReplica(donor)
	g.JITSnapshots++
	g.Events = append(g.Events, GroupEvent{Iteration: iter, Device: d, Kind: "jit-snapshot", ResumedFrom: donor})
	p := &pendingJIT{state: state, donor: donor, done: make(chan struct{})}
	g.pending[d] = p
	go func() {
		g.E.RestoreReplica(d, state)
		close(p.done)
	}()
}

// admitJITRestored re-admits quarantined devices whose fault has repaired
// and whose background restore finished: join the restore, top the rank up
// with the current root weights (its BatchNorm statistics stay from the
// JIT checkpoint), and return it to the collective.
func (g *GroupGuard) admitJITRestored(iter int) {
	for d := 0; d < g.E.Config().Devices; d++ {
		p, ok := g.pending[d]
		if !ok || g.rejoins[d] >= g.MaxRejoins {
			continue
		}
		if f := g.E.Group().FaultFor(d); f.ActiveAt(iter) {
			continue
		}
		<-p.done
		delete(g.pending, d)
		if g.onRestore != nil {
			g.onRestore(d, p.state)
		}
		if err := g.E.SyncWeights(d); err != nil {
			g.rejoins[d]++
			g.RejoinFailures++
			g.Events = append(g.Events, GroupEvent{Iteration: iter, Device: d, Kind: "rejoin-failed", ResumedFrom: -1})
			continue
		}
		g.E.Group().Rejoin(d)
		delete(g.quarantinedAt, d)
		g.rejoins[d]++
		g.Rejoins++
		g.Readmits++
		g.Events = append(g.Events, GroupEvent{Iteration: iter, Device: d, Kind: "jit-restore", ResumedFrom: p.donor})
	}
}

// readmitElastic returns quarantined devices whose fault has repaired to
// the elastic group: a full hot-rejoin from the root peer, after which the
// engine re-partitions the global batch back to full strength.
func (g *GroupGuard) readmitElastic(iter int) {
	for d := 0; d < g.E.Config().Devices; d++ {
		_, q := g.quarantinedAt[d]
		if !q || g.rejoins[d] >= g.MaxRejoins {
			continue
		}
		if f := g.E.Group().FaultFor(d); f.ActiveAt(iter) {
			continue
		}
		if err := g.E.Rejoin(d); err != nil {
			g.rejoins[d]++
			g.RejoinFailures++
			g.Events = append(g.Events, GroupEvent{Iteration: iter, Device: d, Kind: "rejoin-failed", ResumedFrom: -1})
			continue
		}
		delete(g.quarantinedAt, d)
		g.rejoins[d]++
		g.Rejoins++
		g.Readmits++
		g.Resizes++
		g.Events = append(g.Events, GroupEvent{Iteration: iter, Device: d, Kind: "readmit", ResumedFrom: -1})
	}
}

// rejoinDue runs StrategyReexec's timer-based hot-rejoin: RejoinAfter
// iterations after its quarantine a device gets a rejoin attempt. Failed
// attempts are counted, surfaced as rejoin-failed events, and charged
// against MaxRejoins so a wedged device cannot retry forever.
func (g *GroupGuard) rejoinDue(iter int) {
	if g.RejoinAfter <= 0 {
		return
	}
	for d := 0; d < g.E.Config().Devices; d++ {
		at, q := g.quarantinedAt[d]
		if !q || iter < at+g.RejoinAfter || g.rejoins[d] >= g.MaxRejoins {
			continue
		}
		if err := g.E.Rejoin(d); err != nil {
			g.rejoins[d]++
			g.RejoinFailures++
			g.Events = append(g.Events, GroupEvent{Iteration: iter, Device: d, Kind: "rejoin-failed", ResumedFrom: -1})
			continue
		}
		delete(g.quarantinedAt, d)
		g.rejoins[d]++
		g.Rejoins++
		g.Events = append(g.Events, GroupEvent{Iteration: iter, Device: d, Kind: "rejoin", ResumedFrom: -1})
	}
}

// drainRestores joins every in-flight background restore. Run defers it so
// a pooled engine is never handed to the next experiment with a goroutine
// still writing into a replica.
func (g *GroupGuard) drainRestores() {
	for d, p := range g.pending {
		<-p.done
		delete(g.pending, d)
	}
}

// FirstQuarantineIter returns the iteration of the first quarantine event,
// or -1.
func (g *GroupGuard) FirstQuarantineIter() int {
	for _, ev := range g.Events {
		if ev.Kind == "quarantine-timeout" || ev.Kind == "quarantine-corrupt" {
			return ev.Iteration
		}
	}
	return -1
}

// FirstDetectIter returns the iteration of the first cross-replica
// detection (quarantine-corrupt) event, or -1.
func (g *GroupGuard) FirstDetectIter() int {
	for _, ev := range g.Events {
		if ev.Kind == "quarantine-corrupt" {
			return ev.Iteration
		}
	}
	return -1
}
