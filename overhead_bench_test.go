// Steady-state mitigation overhead benchmarks: the per-iteration cost of
// each mitigation technique on a Resnet training iteration, one leg per
// mitigation. Each check has one read: the bounds check reads the
// statistics the optimizer step and BatchNorm keep (sweeping only a tensor
// marked dirty), ABFT and range restriction sweep what they check.
//
// Run with:
//
//	go test -bench 'Overhead' -run '^$' .
//
// The paper's context is a 0.003%–0.025% overhead for the bounds check
// against 5–7% for ABFT (Secs 5.3, 6).
package repro_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/detect"
	"repro/internal/rng"
	"repro/internal/train"
	"repro/internal/workloads"
)

// overheadEngine builds the benchmark workload engine (construction stays
// outside the timer).
func overheadEngine(b *testing.B) (*train.Engine, *workloads.Workload) {
	b.Helper()
	w, err := workloads.ByName("resnet")
	if err != nil {
		b.Fatal(err)
	}
	return w.NewEngine(rng.Seed{State: 11, Stream: 77}), w
}

// BenchmarkOverheadPlain is the no-mitigation baseline: one training
// iteration per op.
func BenchmarkOverheadPlain(b *testing.B) {
	e, _ := overheadEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunIteration(i)
	}
}

// BenchmarkOverheadDetect: training iteration + bounds check.
func BenchmarkOverheadDetect(b *testing.B) {
	e, w := overheadEngine(b)
	d := detect.ForEngine(e, w.BatchSize(), w.LR, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunIteration(i)
		if a := d.CheckEngine(e); a != nil {
			b.Fatalf("alarm on clean run: %v", a)
		}
	}
}

// BenchmarkOverheadDetectCheck isolates the bounds check itself — the cost
// the paper reports as 0.003%–0.025% of an iteration: O(#tensors) lookups of
// the kept statistics.
func BenchmarkOverheadDetectCheck(b *testing.B) {
	e, w := overheadEngine(b)
	d := detect.ForEngine(e, w.BatchSize(), w.LR, true)
	for i := 0; i < 3; i++ {
		e.RunIteration(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := d.CheckEngine(e); a != nil {
			b.Fatalf("alarm on clean run: %v", a)
		}
	}
}

// BenchmarkOverheadABFT: ABFT checksums on every Dense and Conv2D layer, the
// conv checksum one GEMM row over the layer's im2col matrix.
func BenchmarkOverheadABFT(b *testing.B) {
	e, _ := overheadEngine(b)
	s := baseline.NewABFTState(1e-2)
	for dev := 0; dev < e.Config().Devices; dev++ {
		baseline.WrapModel(baseline.ABFTBuilder(s), e.Replica(dev))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunIteration(i)
	}
	b.StopTimer()
	if s.Checks.Load() == 0 {
		b.Fatal("ABFT ran no checks")
	}
}

// BenchmarkOverheadRanger: range restriction, one abs-max over every layer
// output.
func BenchmarkOverheadRanger(b *testing.B) {
	prof, _ := overheadEngine(b)
	r := baseline.NewRanger(prof.Replica(0).Len(), 2.0)
	r.ProfileOnEngine(prof, 10)

	e, _ := overheadEngine(b)
	e.ForwardMonitor = r.Check
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SetIteration(i)
		e.RunIteration(i)
	}
}
