// Steady-state mitigation overhead benchmarks: the per-iteration cost of
// each mitigation technique in its fused form (checks consume reductions the
// kernels accumulated during their write loops) versus its sweep form
// (checks re-read whole tensors). Fused and sweep raise bitwise-identical
// alarms (see the fused equivalence tests in internal/detect and
// internal/baseline), so the delta is pure overhead.
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

func benchDetect(b *testing.B, fused bool) {
	e, w := overheadEngine(b)
	d := detect.ForEngine(e, w.BatchSize(), w.LR, fused)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunIteration(i)
		if a := d.CheckEngine(e); a != nil {
			b.Fatalf("alarm on clean run: %v", a)
		}
	}
}

// BenchmarkOverheadDetectFused: training iteration + bounds check consuming
// the optimizer's and BatchNorm's step-time stats.
func BenchmarkOverheadDetectFused(b *testing.B) { benchDetect(b, true) }

// BenchmarkOverheadDetectSweep: training iteration + bounds check sweeping
// every history and moving-variance tensor.
func BenchmarkOverheadDetectSweep(b *testing.B) { benchDetect(b, false) }

func benchDetectCheck(b *testing.B, fused bool) {
	e, w := overheadEngine(b)
	d := detect.ForEngine(e, w.BatchSize(), w.LR, fused)
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

// BenchmarkOverheadDetectCheckFused isolates the detection check itself —
// the cost the paper reports as 0.003%–0.025% of an iteration. Fused, the
// check is O(#tensors) stat lookups.
func BenchmarkOverheadDetectCheckFused(b *testing.B) { benchDetectCheck(b, true) }

// BenchmarkOverheadDetectCheckSweep: the same check sweeping every element
// of every history and moving-variance tensor — O(#values).
func BenchmarkOverheadDetectCheckSweep(b *testing.B) { benchDetectCheck(b, false) }

func benchABFT(b *testing.B, fused bool) {
	e, _ := overheadEngine(b)
	s := baseline.NewABFTState(1e-2)
	s.Fused = fused
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

// BenchmarkOverheadABFTFused: ABFT checksums riding the kernel epilogues
// (output sums from the bias-add loop, gradient sums from AddInPlaceSum,
// conv checksum GEMM over the layer's im2col matrix).
func BenchmarkOverheadABFTFused(b *testing.B) { benchABFT(b, true) }

// BenchmarkOverheadABFTSweep: ABFT with standalone reduction sweeps and a
// fresh checksum convolution per layer.
func BenchmarkOverheadABFTSweep(b *testing.B) { benchABFT(b, false) }

func benchRanger(b *testing.B, fused bool) {
	prof, _ := overheadEngine(b)
	r := baseline.NewRanger(prof.Replica(0).Len(), 2.0)
	r.ProfileOnEngine(prof, 10)

	e, _ := overheadEngine(b)
	r.AttachCheck(e, fused)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SetIteration(i)
		e.RunIteration(i)
	}
}

// BenchmarkOverheadRangerFused: range restriction via the AbsMaxMonitor,
// fed by abs-max reductions fused into the layers' output write loops.
func BenchmarkOverheadRangerFused(b *testing.B) { benchRanger(b, true) }

// BenchmarkOverheadRangerSweep: range restriction via the ForwardMonitor,
// re-reading every layer output.
func BenchmarkOverheadRangerSweep(b *testing.B) { benchRanger(b, false) }
