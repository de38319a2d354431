package experiment

// Masked early-termination: the convergence half of the campaign
// equivalence layer (see dedup.go for the injection-dedup half).
//
// Soundness. The golden run records, at every
// iteration boundary, a digest of the evolution-relevant engine state
// (train.Engine.StateDigest: root-replica weights, optimizer history,
// per-device normalization statistics). An experiment whose digest at
// boundary c equals the golden digest at c is in a bitwise-identical
// state: the weight broadcast has equalized the replicas, gradients are
// zeroed, the optimizer step counter equals c+1 on both sides, data order
// and all randomness are pure functions of (seed, iteration, device), and
// the one-shot injection has already fired and cannot recur. Iterations
// c+1..horizon of the experiment are therefore bitwise-identical to the
// golden run's — including the periodic test evaluations and the bounds
// detector's verdicts, whose bounds derive from static model structure and
// whose checks are pure functions of the state. The tail can be copied
// from the golden trace instead of executed, and the synthesized record
// equals the exhaustively executed one byte for byte (modulo hash
// collisions at probability 2^-128). The digest is keyed per process, so
// only digests taken in one process compare — as here, where every process
// that runs experiments prepares its own golden digests.
//
// The comparison starts at t+1, never t: the Table-4 necessary-condition
// measurements (HistAtT1/MvarAtT1) are taken at t+1 and must come from
// real execution — and a fired injection can only have re-joined the
// golden trajectory after its own iteration anyway.
//
// The comparison runs at every boundary from t+1 on, so a record's
// EarlyExitIter is the first boundary at which its state is golden again.

import "repro/internal/train"

// copyGoldenTail reconstructs iterations (c, horizon) of an experiment
// trace from the golden reference trace — the suffix twin of
// copyGoldenPrefix — and returns the number of iterations synthesized.
// Valid only when the run's state at boundary c is the golden run's.
func copyGoldenTail(dst *train.Trace, g *Golden, c int) int {
	ref := g.ref
	dst.TrainLoss = append(dst.TrainLoss, ref.TrainLoss[c+1:g.horizon]...)
	dst.TrainAcc = append(dst.TrainAcc, ref.TrainAcc[c+1:g.horizon]...)
	for j, it := range ref.TestIters {
		if it <= c {
			continue
		}
		dst.TestIters = append(dst.TestIters, it)
		dst.TestAcc = append(dst.TestAcc, ref.TestAcc[j])
		dst.TestLoss = append(dst.TestLoss, ref.TestLoss[j])
	}
	n := g.horizon - (c + 1)
	dst.Completed += n
	return n
}

// alarmAfter returns the first iteration strictly after c the golden
// detector schedule alarms at, or -1. This is what an exhaustive run's
// detector would report once its state is bitwise-golden: the bounds are
// static and the check is a pure function of the state.
func (g *Golden) alarmAfter(c int) int {
	for it := c + 1; it < len(g.alarms); it++ {
		if g.alarms[it] {
			return it
		}
	}
	return -1
}
