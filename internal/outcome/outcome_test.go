package outcome

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/train"
)

// synthTrace builds a trace from an accuracy curve function.
func synthTrace(n, faultIter int, acc func(i int) float64) *train.Trace {
	t := train.NewTrace("synth")
	t.FaultIter = faultIter
	for i := 0; i < n; i++ {
		a := acc(i)
		t.TrainAcc = append(t.TrainAcc, a)
		t.TrainLoss = append(t.TrainLoss, 1-a)
	}
	t.Completed = n
	return t
}

// refTrace is a clean converging run: acc ramps to 0.95.
func refTrace(n int) *train.Trace {
	tr := synthTrace(n, -1, func(i int) float64 {
		return math.Min(0.95, 0.3+float64(i)*0.02)
	})
	tr.TestIters = []int{n - 1}
	tr.TestAcc = []float64{0.93}
	tr.TestLoss = []float64{0.2}
	return tr
}

func TestClassifyBenign(t *testing.T) {
	ref := refTrace(100)
	c := NewClassifier(ref)
	faulty := synthTrace(100, 30, func(i int) float64 {
		return math.Min(0.95, 0.3+float64(i)*0.02)
	})
	faulty.TestIters, faulty.TestAcc = []int{99}, []float64{0.94}
	if got := c.Classify(faulty, fault.Forward); got != Benign {
		t.Fatalf("clean curve classified as %v", got)
	}
}

func TestClassifySlightDegradation(t *testing.T) {
	ref := refTrace(100)
	c := NewClassifier(ref)
	faulty := synthTrace(100, 30, func(i int) float64 {
		return math.Min(0.91, 0.3+float64(i)*0.02) // 4% below reference
	})
	if got := c.Classify(faulty, fault.Forward); got != SlightDegradation {
		t.Fatalf("4%% deficit classified as %v", got)
	}
}

func TestClassifyImmediateINFNaN(t *testing.T) {
	ref := refTrace(100)
	c := NewClassifier(ref)
	faulty := synthTrace(31, 30, func(i int) float64 { return 0.5 })
	faulty.NonFiniteIter = 30
	if got := c.Classify(faulty, fault.Forward); got != ImmediateINFNaN {
		t.Fatalf("same-iteration NaN classified as %v", got)
	}
	// For a backward-pass fault, NaN at iter+1 is still immediate (Table 3).
	faulty.NonFiniteIter = 31
	if got := c.Classify(faulty, fault.BackwardInput); got != ImmediateINFNaN {
		t.Fatalf("backward fault, NaN at f+1 classified as %v", got)
	}
	// But for a forward fault, f+1 is short-term.
	if got := c.Classify(faulty, fault.Forward); got != ShortTermINFNaN {
		t.Fatalf("forward fault, NaN at f+1 classified as %v", got)
	}
}

func TestClassifyShortTermINFNaN(t *testing.T) {
	ref := refTrace(100)
	c := NewClassifier(ref)
	faulty := synthTrace(33, 30, func(i int) float64 { return 0.5 })
	faulty.NonFiniteIter = 32
	if got := c.Classify(faulty, fault.Forward); got != ShortTermINFNaN {
		t.Fatalf("NaN at f+2 classified as %v", got)
	}
}

func TestClassifySharpDegrade(t *testing.T) {
	ref := refTrace(200)
	c := NewClassifier(ref)
	// Ramp to 0.9, sharp collapse at iter 50 to 0.3, stays flat.
	faulty := synthTrace(200, 50, func(i int) float64 {
		if i < 50 {
			return math.Min(0.9, 0.3+float64(i)*0.02)
		}
		return 0.3
	})
	if got := c.Classify(faulty, fault.Forward); got != SharpDegrade {
		t.Fatalf("sharp collapse classified as %v", got)
	}
}

func TestClassifySlowDegrade(t *testing.T) {
	ref := refTrace(200)
	c := NewClassifier(ref)
	// Gradual decline from 0.9 to 0.3 over 40 iterations after the fault.
	faulty := synthTrace(200, 50, func(i int) float64 {
		base := math.Min(0.9, 0.3+float64(i)*0.02)
		if i < 50 {
			return base
		}
		return math.Max(0.3, 0.9-float64(i-50)*0.015)
	})
	if got := c.Classify(faulty, fault.Forward); got != SlowDegrade {
		t.Fatalf("gradual decline classified as %v", got)
	}
}

func TestClassifySharpSlowDegrade(t *testing.T) {
	ref := refTrace(200)
	c := NewClassifier(ref)
	// Sharp drop 0.9 → 0.5 at the fault, then continued decline to 0.2.
	faulty := synthTrace(200, 50, func(i int) float64 {
		if i < 50 {
			return math.Min(0.9, 0.3+float64(i)*0.02)
		}
		return math.Max(0.2, 0.5-float64(i-50)*0.01)
	})
	if got := c.Classify(faulty, fault.Forward); got != SharpSlowDegrade {
		t.Fatalf("sharp+slow decline classified as %v", got)
	}
}

func TestClassifyLowTestAccuracy(t *testing.T) {
	ref := refTrace(100)
	c := NewClassifier(ref)
	// Training accuracy normal; test accuracy collapsed.
	faulty := synthTrace(100, 30, func(i int) float64 {
		return math.Min(0.95, 0.3+float64(i)*0.02)
	})
	faulty.TestIters = []int{99}
	faulty.TestAcc = []float64{0.4}
	if got := c.Classify(faulty, fault.Forward); got != LowTestAccuracy {
		t.Fatalf("test-only collapse classified as %v", got)
	}
}

func TestOutcomePredicates(t *testing.T) {
	if Benign.IsUnexpected() || SlightDegradation.IsUnexpected() {
		t.Fatal("benign outcomes marked unexpected")
	}
	for _, o := range []Outcome{ImmediateINFNaN, ShortTermINFNaN, SlowDegrade, SharpSlowDegrade, SharpDegrade, LowTestAccuracy} {
		if !o.IsUnexpected() {
			t.Fatalf("%v not marked unexpected", o)
		}
	}
	for _, o := range []Outcome{SlowDegrade, SharpSlowDegrade, SharpDegrade, LowTestAccuracy} {
		if !o.IsLatent() {
			t.Fatalf("%v not marked latent", o)
		}
	}
	if ImmediateINFNaN.IsLatent() || Benign.IsLatent() {
		t.Fatal("non-latent outcome marked latent")
	}
	if len(All()) != 11 {
		t.Fatalf("All() returned %d outcomes", len(All()))
	}
}

func TestDetectPhasesFullCycle(t *testing.T) {
	ref := refTrace(300)
	c := NewClassifier(ref)
	// Degrade 50→100, stagnate 100→200, recover 200→300 (Fig 5 shape).
	faulty := synthTrace(300, 50, func(i int) float64 {
		switch {
		case i < 50:
			return 0.9
		case i < 100:
			return 0.9 - float64(i-50)*0.012 // down to 0.3
		case i < 200:
			return 0.3
		default:
			return math.Min(0.9, 0.3+float64(i-200)*0.01)
		}
	})
	p := c.DetectPhases(faulty)
	if p.DegradeStart != 50 {
		t.Errorf("DegradeStart = %d", p.DegradeStart)
	}
	if p.StagnationStart < 95 || p.StagnationStart > 205 {
		t.Errorf("StagnationStart = %d, want ~100..200", p.StagnationStart)
	}
	if p.RecoveryStart < 205 || p.RecoveryStart > 240 {
		t.Errorf("RecoveryStart = %d, want shortly after 200", p.RecoveryStart)
	}
	if p.MinAcc > 0.35 {
		t.Errorf("MinAcc = %v", p.MinAcc)
	}
}

func TestDetectPhasesNoRecovery(t *testing.T) {
	ref := refTrace(200)
	c := NewClassifier(ref)
	faulty := synthTrace(200, 50, func(i int) float64 {
		if i < 50 {
			return 0.9
		}
		return 0.3
	})
	p := c.DetectPhases(faulty)
	if p.RecoveryStart != -1 {
		t.Fatalf("RecoveryStart = %d for a never-recovering run", p.RecoveryStart)
	}
}

func TestTally(t *testing.T) {
	var ta Tally
	ta.Add(Benign)
	ta.Add(Benign)
	ta.Add(SlowDegrade)
	ta.Add(ImmediateINFNaN)
	if ta.Total != 4 || ta.Counts[Benign] != 2 || ta.Counts[SlowDegrade] != 1 || ta.Counts[ImmediateINFNaN] != 1 {
		t.Fatalf("tally %+v", ta)
	}
}
