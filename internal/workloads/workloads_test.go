package workloads

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/train"
)

func TestAllNamesUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Fatalf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		got, err := ByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != w.Name {
			t.Fatalf("ByName(%q) returned %q", w.Name, got.Name)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("expected 10 workloads (Table 2), got %d", len(seen))
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

func TestConfigAxesMatchPaper(t *testing.T) {
	// The structural axes of Table 2 / Sec 4.2 must hold.
	cases := []struct {
		name    string
		hasNorm bool
		optType string
	}{
		{"resnet", true, "*opt.Adam"},
		{"resnet_nobn", false, "*opt.Adam"},
		{"resnet_sgd", true, "*opt.SGD"},
		{"resnet_largedecay", true, "*opt.Adam"},
		{"densenet", true, "*opt.Adam"},
		{"efficientnet", true, "*opt.Adam"},
		{"nfnet", false, "*opt.Adam"},
		{"yolo", true, "*opt.Adam"},
		{"mgnm", false, "*opt.Adam"},
		{"transformer", false, "*opt.Adam"},
	}
	for _, c := range cases {
		w, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if w.HasNorm != c.hasNorm {
			t.Errorf("%s: HasNorm = %v, want %v", c.name, w.HasNorm, c.hasNorm)
		}
		if got := fmt.Sprintf("%T", w.NewOptimizer()); got != c.optType {
			t.Errorf("%s: optimizer %s, want %s", c.name, got, c.optType)
		}
		if w.Devices != 8 {
			t.Errorf("%s: %d devices, want 8 (Sec 4.3.3)", c.name, w.Devices)
		}
	}
	ld, _ := ByName("resnet_largedecay")
	if ld.BNMomentum != 0.99 {
		t.Errorf("resnet_largedecay momentum = %v, want 0.99", ld.BNMomentum)
	}
	rn, _ := ByName("resnet")
	if rn.BNMomentum != 0.9 {
		t.Errorf("resnet momentum = %v, want 0.9", rn.BNMomentum)
	}
}

func TestEnginesBuildAndStep(t *testing.T) {
	// Every workload must construct and run one iteration without panics
	// and with a finite loss.
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			e := w.NewEngine(rng.Seed{State: 1, Stream: 1})
			st := e.RunIteration(0)
			if st.NonFinite {
				t.Fatalf("iteration 0 non-finite at %s", st.NonFiniteAt)
			}
			if st.Loss <= 0 {
				t.Fatalf("loss = %v", st.Loss)
			}
			if hasBN := len(e.Replica(0).BatchNorms()) > 0; hasBN != w.HasNorm {
				t.Fatalf("model has BatchNorm = %v, want %v", hasBN, w.HasNorm)
			}
		})
	}
}

func TestWorkloadsLearn(t *testing.T) {
	// Each workload's fault-free run must clearly beat chance — the
	// Table-2 requirement that fault-free accuracy approaches the
	// reference. Full convergence is exercised by the campaign benches;
	// here a shortened run checks learnability cheaply.
	if testing.Short() {
		t.Skip("long test")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			e := w.NewEngine(rng.Seed{State: 2, Stream: 2})
			trace := train.NewTrace(w.Name)
			iters := w.Iters
			if iters > 100 {
				iters = 100
			}
			e.Run(0, iters, trace, false)
			if trace.NonFiniteIter != -1 {
				t.Fatalf("fault-free run hit INF/NaN at %d (%s)", trace.NonFiniteIter, trace.NonFiniteAt)
			}
			chance := 1.0 / 4
			if w.Name == "transformer" {
				chance = 1.0 / 6
			}
			if acc := trace.FinalTrainAcc(10); acc < chance+0.2 {
				t.Fatalf("final train acc %v barely above chance %v", acc, chance)
			}
		})
	}
}

func TestDeterministicAcrossEngineRebuilds(t *testing.T) {
	w := Resnet()
	run := func() float64 {
		e := w.NewEngine(rng.Seed{State: 5, Stream: 5})
		var last float64
		for i := 0; i < 5; i++ {
			last = e.RunIteration(i).Loss
		}
		return last
	}
	if run() != run() {
		t.Fatal("workload engine not deterministic")
	}
}

func TestMixedPrecisionVariantLearns(t *testing.T) {
	// The accelerator's bfloat16-MAC precision (Sec 3.1) must not break
	// convergence: the mixed variant reaches accuracy comparable to FP32.
	if testing.Short() {
		t.Skip("long test")
	}
	w := ResnetMixed()
	if !w.Mixed {
		t.Fatal("mixed flag not set")
	}
	e := w.NewEngine(rng.Seed{State: 3, Stream: 3})
	trace := train.NewTrace(w.Name)
	e.Run(0, 80, trace, false)
	if trace.NonFiniteIter != -1 {
		t.Fatalf("mixed-precision run hit INF/NaN at %d", trace.NonFiniteIter)
	}
	if acc := trace.FinalTrainAcc(10); acc < 0.8 {
		t.Fatalf("mixed-precision final acc %v", acc)
	}
}
