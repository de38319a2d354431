// Package recovery implements the paper's light-weight recovery technique
// (Sec 5.2): on detection, re-execute the two most recent training
// iterations. Because the necessary conditions for every latent unexpected
// outcome appear within two iterations of the fault (Table 4), rewinding
// two iterations and re-running them — with the transient fault no longer
// present — is sufficient to eliminate all immediate, short-term, and
// latent unexpected outcomes.
//
// The paper lists three program changes: (1) recover the previous weights,
// (2) reload the previous mini-batches, (3) replay the recorded random
// seeds. In this engine, (2) and (3) are structural — the data loader and
// all RNG streams are pure functions of (seed, iteration, device) — and (1)
// is implemented with a two-deep ring of engine state snapshots, the
// semantic equivalent of the paper's gradient-subtraction rewind
// generalized to stateful optimizers and normalization statistics.
//
// The package also provides the epoch-checkpointing baseline the paper
// compares against (Sec 5.3: "up to 500× lower" cost).
package recovery

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/train"
)

// ReExecutor keeps snapshots of the engine state at the starts of the two
// most recent iterations.
type ReExecutor struct {
	e     *train.Engine
	snaps [2]*train.State // snaps[i] = state before iteration snaps[i].Iteration
	n     int             // number of valid snapshots (0..2)
}

// NewReExecutor creates the re-execution helper for e.
func NewReExecutor(e *train.Engine) *ReExecutor {
	return &ReExecutor{e: e}
}

// BeforeIteration must be called immediately before RunIteration(iter); it
// rotates the snapshot ring.
func (r *ReExecutor) BeforeIteration(iter int) {
	r.snaps[0] = r.snaps[1]
	r.snaps[1] = r.e.Snapshot(iter)
	if r.n < 2 {
		r.n++
	}
}

// Depth returns the number of iterations a rollback would rewind (1 or 2;
// 0 when no snapshot exists yet).
func (r *ReExecutor) Depth() int { return r.n }

// Rollback restores the oldest retained snapshot and returns the iteration
// to resume from. It must only be called after at least one
// BeforeIteration.
func (r *ReExecutor) Rollback() int {
	var s *train.State
	if r.n >= 2 {
		s = r.snaps[0]
	} else if r.n == 1 {
		s = r.snaps[1]
	} else {
		panic("recovery: Rollback before any BeforeIteration")
	}
	r.e.Restore(s)
	// Invalidate the ring: the resumed iterations will repopulate it.
	r.snaps[0], r.snaps[1] = nil, nil
	r.n = 0
	return s.Iteration
}

// AlarmEvent records one detection + recovery episode.
type AlarmEvent struct {
	// Iteration is when the alarm fired.
	Iteration int
	// Alarm is the detector's report.
	Alarm detect.Alarm
	// ResumedFrom is the iteration re-execution restarted at.
	ResumedFrom int
}

// Guarded couples an engine with the detection technique and two-iteration
// re-execution — the full mitigation pipeline of Sec 5.
type Guarded struct {
	E *train.Engine
	D *detect.Detector
	R *ReExecutor
	// MaxRecoveries bounds recovery attempts per run; if an alarm persists
	// after re-execution the failure is not transient and the run stops
	// (the datacenter procedure then decommissions the accelerator, Sec 5).
	MaxRecoveries int

	// Events lists every detection episode of the run, one per recovery.
	Events []AlarmEvent
}

// NewGuarded builds the guarded trainer.
func NewGuarded(e *train.Engine, d *detect.Detector) *Guarded {
	return &Guarded{E: e, D: d, R: NewReExecutor(e), MaxRecoveries: 4}
}

// Run executes iterations [start, end) with per-iteration detection and
// automatic two-iteration re-execution, recording metrics into trace. It
// returns an error when an alarm persists after MaxRecoveries re-executions
// (the failure is not transient).
func (g *Guarded) Run(start, end int, trace *train.Trace) error {
	recoveries := 0
	iter := start
	for iter < end {
		g.R.BeforeIteration(iter)
		st := g.E.RunIteration(iter)
		trace.TrainLoss = append(trace.TrainLoss, st.Loss)
		trace.TrainAcc = append(trace.TrainAcc, st.TrainAcc)
		trace.Completed++
		if st.Injected {
			trace.FaultIter = iter
			trace.InjectedElems = st.InjectedElems
		}

		alarm := g.D.CheckEngine(g.E)
		if alarm == nil && st.NonFinite {
			// INF/NaN error messages are detection events too (the easy
			// case, per Sec 5: "handling immediate and short-term
			// NaNs/INFs is easy").
			alarm = &detect.Alarm{Where: "nonfinite:" + st.NonFiniteAt, Value: 0, Bound: 0}
		}
		if alarm != nil {
			if recoveries >= g.MaxRecoveries {
				return fmt.Errorf("recovery: alarm persists after %d recoveries: %v", recoveries, alarm)
			}
			resume := g.R.Rollback()
			g.Events = append(g.Events, AlarmEvent{Iteration: iter, Alarm: *alarm, ResumedFrom: resume})
			trace.Rewind(iter, resume)
			recoveries++
			iter = resume
			continue
		}

		g.E.RecordTest(iter, trace)
		iter++
	}
	return nil
}

// Checkpointer is the baseline the paper compares against: a full state
// snapshot at the end of every epoch (Sec 5.3). Reverting loses all
// progress since the last checkpoint — on average half an epoch, versus
// two iterations for re-execution.
type Checkpointer struct {
	// Every is the checkpoint period in iterations (one epoch in the
	// paper's comparison, typically ~1000 iterations).
	Every int

	last  *train.State
	Saves int
}

// NewCheckpointer creates a checkpointer with the given period.
func NewCheckpointer(every int) *Checkpointer {
	if every < 1 {
		panic("recovery: checkpoint period must be >= 1")
	}
	return &Checkpointer{Every: every}
}

// AfterIteration saves a checkpoint when the period elapses.
func (c *Checkpointer) AfterIteration(e *train.Engine, iter int) {
	if (iter+1)%c.Every == 0 {
		c.last = e.Snapshot(iter + 1)
		c.Saves++
	}
}

// LostIterations returns how many iterations of work reverting at iteration
// iter would discard.
func (c *Checkpointer) LostIterations(iter int) int {
	if c.last == nil {
		return iter
	}
	return iter - c.last.Iteration
}
