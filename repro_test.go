package repro_test

import (
	"bytes"
	"testing"

	"repro"
	"repro/internal/accel"
	"repro/internal/paper"
	"repro/internal/rng"
	"repro/internal/train"
)

// TestGuardedRollbackKeepsTestPointsUnique: a two-iteration re-execution
// whose window contains a TestEvery boundary (resnet evaluates after
// iterations 9, 19, 29, 39, …) must record that boundary once — the
// re-executed one — not twice. The examples/guarded fault, at iterations
// around the boundary at 39.
func TestGuardedRollbackKeepsTestPointsUnique(t *testing.T) {
	crossed := false
	for faultIter := 38; faultIter <= 41; faultIter++ {
		g, w, err := repro.NewGuarded("resnet", 9)
		if err != nil {
			t.Fatal(err)
		}
		g.E.SetInjection(&repro.Injection{
			Kind: accel.GlobalG1, LayerIdx: 0, Pass: repro.BackwardWeight,
			Iteration: faultIter, N: 8, Seed: rng.Seed{State: 21, Stream: 4},
		})
		trace := train.NewTrace(w.Name)
		if err := g.Run(0, 60, trace); err != nil {
			t.Fatal(err)
		}
		if len(g.Events) == 0 {
			t.Fatalf("fault at iteration %d raised no alarm", faultIter)
		}
		for _, ev := range g.Events {
			if ev.ResumedFrom <= 39 && ev.Iteration > 39 {
				crossed = true
			}
		}
		for i := 1; i < len(trace.TestIters); i++ {
			if trace.TestIters[i] <= trace.TestIters[i-1] {
				t.Fatalf("fault at iteration %d: test iterations %v not strictly increasing", faultIter, trace.TestIters)
			}
		}
		if len(trace.TestIters) != 6 || len(trace.TestAcc) != 6 || len(trace.TestLoss) != 6 || trace.Completed != 60 {
			t.Fatalf("fault at iteration %d: %d test points over %d iterations, want 6 over 60", faultIter, len(trace.TestIters), trace.Completed)
		}
	}
	if !crossed {
		t.Fatal("no rollback window contained the boundary at iteration 39; the regression is not exercised")
	}
}

func TestPublicWorkloadZoo(t *testing.T) {
	ws := repro.Workloads()
	if len(ws) != 10 {
		t.Fatalf("workload zoo has %d entries, want 10 (Table 2)", len(ws))
	}
	for _, w := range ws {
		got, err := repro.WorkloadByName(w.Name)
		if err != nil || got.Name != w.Name {
			t.Fatalf("WorkloadByName(%q) = %v, %v", w.Name, got, err)
		}
	}
	if _, err := repro.WorkloadByName("not-a-workload"); err == nil {
		t.Fatal("unknown workload resolved")
	}
}

func TestPublicCampaignEndToEnd(t *testing.T) {
	w, err := repro.WorkloadByName("yolo")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 40
	c := repro.RunCampaignConfig(repro.CampaignConfig{
		Workload: w, Experiments: 8, Seed: 5, HorizonMult: 1,
	})
	if c.Tally.Total != 8 {
		t.Fatalf("tally %d", c.Tally.Total)
	}
	var buf bytes.Buffer
	if err := paper.WriteCampaign(&buf, c); err != nil || buf.Len() == 0 {
		t.Fatalf("empty report: %v", err)
	}
}

func TestPublicSingleInjectionAndGuarded(t *testing.T) {
	inj, err := repro.RandomInjection("yolo", 3)
	if err != nil {
		t.Fatal(err)
	}
	faulty, ref, err := repro.SingleInjection("yolo", inj, 3)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Completed == 0 || ref.Completed == 0 {
		t.Fatal("empty traces")
	}

	g, w, err := repro.NewGuarded("yolo", 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.D.Bounds.GradHistory <= 0 {
		t.Fatal("bounds not derived")
	}
	_ = w
}

func TestPublicInventoryAndValidation(t *testing.T) {
	if len(repro.Inventory()) == 0 {
		t.Fatal("empty inventory")
	}
}

func TestPublicOutcomeConstants(t *testing.T) {
	if repro.Benign.IsUnexpected() {
		t.Fatal("Benign marked unexpected")
	}
	if !repro.SlowDegrade.IsLatent() {
		t.Fatal("SlowDegrade not latent")
	}
	if repro.Version == "" {
		t.Fatal("empty version")
	}
	_ = rng.Seed{} // the seed type is part of the public injection surface
}
