package repro_test

import (
	"testing"

	"repro"
	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/rng"
)

func TestRunCampaignUnknownWorkload(t *testing.T) {
	if _, err := repro.RunCampaign("bogus", 1, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSingleInjectionRoundTrip(t *testing.T) {
	inj := fault.Injection{
		Kind: accel.GlobalG2, LayerIdx: 0, Pass: fault.Forward,
		Iteration: 5, CycleFrac: 0.2, N: 2,
		Seed: rng.Seed{State: 1, Stream: 1},
	}
	faulty, ref, err := repro.SingleInjection("yolo", inj, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Completed == 0 || faulty.Completed == 0 {
		t.Fatal("traces empty")
	}
	if faulty.FaultIter != 5 {
		t.Fatalf("fault fired at %d, want 5", faulty.FaultIter)
	}
	if _, _, err := repro.SingleInjection("bogus", inj, 3); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestNewGuardedBuilds(t *testing.T) {
	g, w, err := repro.NewGuarded("resnet", 1)
	if err != nil {
		t.Fatal(err)
	}
	if g == nil || w == nil || w.Name != "resnet" {
		t.Fatal("guarded construction broken")
	}
	if g.D.Bounds.GradHistory <= 0 || g.D.Bounds.Mvar <= 0 {
		t.Fatalf("bounds not derived: %+v", g.D.Bounds)
	}
	if _, _, err := repro.NewGuarded("bogus", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRandomInjectionInRange(t *testing.T) {
	inj, err := repro.RandomInjection("resnet", 7)
	if err != nil {
		t.Fatal(err)
	}
	if inj.LayerIdx < 0 || inj.N < 1 {
		t.Fatalf("bad injection %+v", inj)
	}
}

func TestInventoryComplete(t *testing.T) {
	rows := repro.Inventory()
	if len(rows) != len(accel.Kinds()) {
		t.Fatalf("%d rows, want %d", len(rows), len(accel.Kinds()))
	}
	var frac float64
	for _, r := range rows {
		if r.Count < 0 {
			t.Fatalf("negative count for %v", r.Kind)
		}
		frac += r.Fraction
	}
	if frac < 0.999 || frac > 1.001 {
		t.Fatalf("fractions sum to %v", frac)
	}
}
