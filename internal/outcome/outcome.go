// Package outcome classifies fault-injection training runs into the
// paper's outcome taxonomy (Table 3): benign outcomes, immediate and
// short-term INFs/NaNs, and the four latent outcomes first characterized by
// the paper — SlowDegrade, SharpSlowDegrade, SharpDegrade and
// LowTestAccuracy. It also detects the three convergence phases of the
// SlowDegrade family (Fig 5).
//
// Classification compares a faulty run's convergence trend (training/test
// accuracy over iterations) against the fault-free reference run of the
// same workload, exactly as the paper characterizes outcomes by
// "(1) convergence trends ... and (2) occurrences of visible anomalies"
// (Sec 4.1).
package outcome

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/train"
)

// Outcome is a training-outcome class.
type Outcome int

// Outcome classes. Benign and SlightDegradation together form the paper's
// first category (82.3%–90.3% of experiments); the rest are the unexpected
// outcomes of Table 3.
const (
	// Benign: final accuracy within noise of (or better than) the
	// fault-free run. The paper observes most benign cases actually improve
	// slightly — injected noise acts as regularization.
	Benign Outcome = iota
	// SlightDegradation: small accuracy loss (≤ ~6%) for the same training
	// time, recoverable by training slightly longer (Sec 4.1).
	SlightDegradation
	// ImmediateINFNaN: INFs/NaNs in the same iteration as the fault (or the
	// next forward pass for backward-pass faults).
	ImmediateINFNaN
	// ShortTermINFNaN: INFs/NaNs within two iterations after the fault.
	ShortTermINFNaN
	// SlowDegrade: training accuracy slowly degrades for 10–100 iterations
	// and stays low (Fig 2a); caused by corrupted optimizer history.
	SlowDegrade
	// SharpSlowDegrade: SlowDegrade plus a sharp accuracy drop at the fault
	// iteration (Fig 2b); needs a forward-pass fault and no normalization
	// layers.
	SharpSlowDegrade
	// SharpDegrade: sharp drop at the fault iteration, stays low (Fig 2c);
	// caused by large weights + large mvar without overflow.
	SharpDegrade
	// LowTestAccuracy: training accuracy normal, test accuracy visibly
	// degraded (Fig 2d); caused by corrupted mvar only.
	LowTestAccuracy
	// GroupHang: a device-level failure (crash or hopeless straggler)
	// stalled the synchronous collective and the group could not make
	// progress — the system-level analogue of a visible anomaly; without
	// mitigation the run is lost.
	GroupHang
	// DegradedComplete: a faulty device was quarantined and training
	// completed on the surviving D−k replicas with rescaled averaging,
	// final accuracy inside the fault-free noise band.
	DegradedComplete
	// QuarantinedRecovered: the faulty device was quarantined, later
	// hot-rejoined from a healthy peer, and the run finished at full group
	// strength inside the fault-free noise band.
	QuarantinedRecovered
	numOutcomes
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	names := [...]string{
		"Benign", "SlightDegradation", "ImmediateINFNaN", "ShortTermINFNaN",
		"SlowDegrade", "SharpSlowDegrade", "SharpDegrade", "LowTestAccuracy",
		"GroupHang", "DegradedComplete", "QuarantinedRecovered",
	}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// IsUnexpected reports whether the outcome belongs to the paper's second
// category (unexpected training outcomes, Table 3). The two mitigated
// system-level outcomes count as expected: the run ended inside the
// fault-free noise band, which is the whole point of quarantine and
// degraded-mode training. GroupHang is unexpected — the run was lost.
func (o Outcome) IsUnexpected() bool {
	return o != Benign && o != SlightDegradation &&
		o != DegradedComplete && o != QuarantinedRecovered
}

// IsLatent reports whether the outcome is one of the four latent outcomes
// (manifestation latency "latent" in Table 3).
func (o Outcome) IsLatent() bool {
	return o == SlowDegrade || o == SharpSlowDegrade || o == SharpDegrade || o == LowTestAccuracy
}

// All returns every outcome class in order.
func All() []Outcome {
	out := make([]Outcome, numOutcomes)
	for i := range out {
		out[i] = Outcome(i)
	}
	return out
}

// Classifier holds the reference run and the decision thresholds.
type Classifier struct {
	// Ref is the fault-free run of the same workload and duration.
	Ref *train.Trace
	// Window is the smoothing window (iterations) for accuracy trends.
	Window int
	// SharpDrop is the minimum accuracy fall within SharpSpan iterations of
	// the fault to call a drop "sharp".
	SharpDrop float64
	// SharpSpan is how many iterations after the fault a sharp drop may
	// take.
	SharpSpan int
	// SigDelta is the final-accuracy deficit (vs reference) above which a
	// run is a degradation outcome.
	SigDelta float64
	// SlightDelta is the deficit below which a run is fully Benign.
	SlightDelta float64
	// FinalWindow is the number of trailing iterations averaged as "final"
	// accuracy.
	FinalWindow int
}

// NewClassifier creates a classifier with the default thresholds used by
// the campaigns.
func NewClassifier(ref *train.Trace) *Classifier {
	return &Classifier{
		Ref:         ref,
		Window:      5,
		SharpDrop:   0.25,
		SharpSpan:   3,
		SigDelta:    0.10,
		SlightDelta: 0.02,
		FinalWindow: 10,
	}
}

// smooth returns the moving average of xs with the classifier's window.
func (c *Classifier) smooth(xs []float64) []float64 {
	w := c.Window
	if w < 1 {
		w = 1
	}
	out := make([]float64, len(xs))
	var sum float64
	for i, x := range xs {
		sum += x
		if i >= w {
			sum -= xs[i-w]
		}
		n := i + 1
		if n > w {
			n = w
		}
		out[i] = sum / float64(n)
	}
	return out
}

// Classify assigns the Table-3 outcome to a faulty trace. pass is the
// training pass the fault was injected into (immediate-vs-short-term INF/NaN
// latency depends on it, Table 3).
func (c *Classifier) Classify(t *train.Trace, pass fault.Pass) Outcome {
	f := t.FaultIter
	if f < 0 {
		f = 0
	}

	// Visible anomaly first: INF/NaN error messages.
	if t.NonFiniteIter >= 0 {
		latency := t.NonFiniteIter - f
		immediateBound := 0
		if pass != fault.Forward {
			// A backward-pass fault may surface in the next iteration's
			// forward pass and still count as immediate (Table 3).
			immediateBound = 1
		}
		if latency <= immediateBound {
			return ImmediateINFNaN
		}
		return ShortTermINFNaN
	}

	// Convergence-trend analysis.
	finalFaulty := t.FinalTrainAcc(c.FinalWindow)
	finalRef := c.Ref.FinalTrainAcc(c.FinalWindow)
	trainDeficit := finalRef - finalFaulty

	testFaulty := t.FinalTestAcc()
	testRef := c.Ref.FinalTestAcc()
	testDeficit := 0.0
	if testFaulty >= 0 && testRef >= 0 {
		testDeficit = testRef - testFaulty
	}

	if trainDeficit >= c.SigDelta {
		sharp := c.hasSharpDrop(t, f)
		slow := c.hasSlowDecline(t, f)
		switch {
		case sharp && slow:
			return SharpSlowDegrade
		case sharp:
			return SharpDegrade
		default:
			return SlowDegrade
		}
	}

	if testDeficit >= c.SigDelta {
		return LowTestAccuracy
	}

	if trainDeficit >= c.SlightDelta || testDeficit >= c.SlightDelta {
		return SlightDegradation
	}
	return Benign
}

// hasSharpDrop reports whether smoothed training accuracy falls by at least
// SharpDrop within SharpSpan iterations of the fault.
func (c *Classifier) hasSharpDrop(t *train.Trace, f int) bool {
	acc := t.TrainAcc
	if f >= len(acc) {
		return false
	}
	// Pre-fault level: smoothed accuracy just before the fault.
	sm := c.smooth(acc)
	pre := sm[maxInt(0, f-1)]
	for i := f; i <= f+c.SharpSpan && i < len(acc); i++ {
		if pre-acc[i] >= c.SharpDrop {
			return true
		}
	}
	return false
}

// hasSlowDecline reports whether smoothed accuracy keeps declining well
// after the fault: the minimum of the post-fault smoothed curve occurs at
// least SharpSpan+2 iterations after the fault AND is substantially below
// the level shortly after the fault.
func (c *Classifier) hasSlowDecline(t *train.Trace, f int) bool {
	sm := c.smooth(t.TrainAcc)
	if f+c.SharpSpan+2 >= len(sm) {
		return false
	}
	// Level right after the (possibly sharp) initial reaction.
	after := sm[minInt(f+c.SharpSpan, len(sm)-1)]
	minV, minI := after, f+c.SharpSpan
	for i := f + c.SharpSpan; i < len(sm); i++ {
		if sm[i] < minV {
			minV, minI = sm[i], i
		}
	}
	return minI >= f+c.SharpSpan+2 && after-minV >= 0.05
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Phases describes the three-phase structure of SlowDegrade-family
// convergence trends (Fig 5): accuracy degrades while the corrupted
// gradient-history term dominates (phase 1), stays low while it decays
// (phase 2), and may recover once the optimizer's signal dominates again
// (phase 3).
type Phases struct {
	// DegradeStart is the iteration degradation begins (the fault iter).
	DegradeStart int
	// StagnationStart is the iteration the smoothed accuracy bottoms out.
	StagnationStart int
	// RecoveryStart is the iteration sustained recovery begins, or -1 if
	// the run never recovers (common in practice — Sec 4.2.3 notes the
	// recovery phase "may never be reached").
	RecoveryStart int
	// MinAcc is the smoothed accuracy at the bottom.
	MinAcc float64
}

// DetectPhases extracts the Fig-5 phases from a faulty trace.
func (c *Classifier) DetectPhases(t *train.Trace) Phases {
	p := Phases{DegradeStart: t.FaultIter, RecoveryStart: -1}
	f := t.FaultIter
	if f < 0 {
		f = 0
	}
	sm := c.smooth(t.TrainAcc)
	if f >= len(sm) {
		return p
	}
	minV, minI := sm[f], f
	for i := f; i < len(sm); i++ {
		if sm[i] < minV {
			minV, minI = sm[i], i
		}
	}
	p.StagnationStart = minI
	p.MinAcc = minV
	// Recovery: sustained rise of at least 0.1 above the bottom.
	for i := minI; i < len(sm); i++ {
		if sm[i] >= minV+0.1 {
			p.RecoveryStart = i
			break
		}
	}
	return p
}

// Tally accumulates outcome counts across a campaign.
type Tally struct {
	Counts [numOutcomes]int
	Total  int
}

// Add records one classified experiment.
func (ta *Tally) Add(o Outcome) {
	ta.Counts[o]++
	ta.Total++
}
