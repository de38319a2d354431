// Timing benchmarks behind the paper's overhead numbers (Sec 5.3, Sec 6)
// and two design ablations. Each reports through b.ReportMetric and prints
// nothing; the paper's tables and figures are data, regenerated by
// `repro paper` (internal/paper).
package repro_test

import (
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/detect"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/workloads"
)

// BenchmarkSec53_DetectionOverhead measures the per-iteration cost of the
// bounds check relative to a training iteration. Paper: 0.003–0.025%
// (geomean) on Cloud TPUs; the simulator's iterations are ~10⁶× cheaper
// than a TPU step, so the relative overhead here is correspondingly larger
// — the reported metric is the absolute check cost and the ratio.
func BenchmarkSec53_DetectionOverhead(b *testing.B) {
	w, _ := workloads.ByName("resnet")
	e := w.NewEngine(rng.Seed{State: 5, Stream: 77})
	d := detect.ForEngine(e, w.BatchSize(), w.LR, true)
	for i := 0; i < 3; i++ {
		e.RunIteration(i)
	}
	// Time one training iteration.
	iterStart := time.Now()
	const trainReps = 20
	for i := 0; i < trainReps; i++ {
		e.RunIteration(3 + i)
	}
	iterCost := time.Since(iterStart) / trainReps

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := d.CheckEngine(e); a != nil {
			b.Fatal(a)
		}
	}
	b.StopTimer()
	checkCost := time.Duration(int64(b.Elapsed()) / int64(b.N))
	pct := 100 * float64(checkCost) / float64(iterCost)
	b.ReportMetric(float64(iterCost.Nanoseconds()), "iter-ns")
	b.ReportMetric(pct, "overhead-%")
}

// BenchmarkSec53_RecoveryOverhead measures the cost of one two-iteration
// re-execution relative to the training run. Paper: 0.04–0.15% per
// invocation over a full training run.
func BenchmarkSec53_RecoveryOverhead(b *testing.B) {
	w, _ := workloads.ByName("resnet")
	e := w.NewEngine(rng.Seed{State: 5, Stream: 77})
	re := recovery.NewReExecutor(e)
	for i := 0; i < 5; i++ {
		re.BeforeIteration(i)
		e.RunIteration(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resume := re.Rollback()
		for j := resume; j <= resume+1; j++ {
			re.BeforeIteration(j)
			e.RunIteration(j)
		}
	}
	b.StopTimer()
	perInvocation := time.Duration(int64(b.Elapsed()) / int64(b.N))
	// Normalize against the paper's fault-free run length (Table 2: 1060
	// iterations for the Resnet workloads).
	iterStart := time.Now()
	for i := 0; i < 10; i++ {
		e.RunIteration(100 + i)
	}
	iterCost := time.Since(iterStart) / 10
	runPct := 100 * float64(perInvocation) / (float64(iterCost) * 1060)
	b.ReportMetric(float64(iterCost.Nanoseconds()), "iter-ns")
	b.ReportMetric(runPct, "overhead-%-of-1060-iter-run")
}

// BenchmarkSec6_ABFTOverhead measures the steady-state cost of ABFT
// checksums on training. Paper: 5–7% on TPUs with 463–485 changed lines
// (vs 24–32 lines for the bounds check).
func BenchmarkSec6_ABFTOverhead(b *testing.B) {
	ds := data.NewGaussianClusters(data.GaussianClustersConfig{
		Classes: 4, Examples: 320, C: 1, H: 6, W: 6, NoiseStd: 0.45, Seed: 11,
	})
	trainSet, testSet := ds.Split(256)
	mk := func(abft *baseline.ABFTState) *train.Engine {
		build := func(r *rng.Rand) *nn.Sequential {
			m := nn.NewSequential(
				nn.NewConv2D("c1", 1, 8, 3, 3, 1, 1, r, false),
				nn.NewReLU(),
				nn.NewConv2D("c2", 8, 8, 3, 3, 1, 1, r, false),
				nn.NewReLU(),
				nn.NewGlobalAvgPool(),
				nn.NewDense("fc", 8, 4, r, false),
			)
			if abft != nil {
				baseline.WrapModel(baseline.ABFTBuilder(abft), m)
			}
			return m
		}
		loader := data.NewLoader(trainSet, 16, rng.Seed{State: 1, Stream: 1})
		return train.New(train.Config{Devices: 8, PerDeviceBatch: 2, Seed: rng.Seed{State: 2, Stream: 2}},
			build, opt.NewAdam(0.01), loader, testSet)
	}

	plain := mk(nil)
	st := baseline.NewABFTState(5e-2)
	checked := mk(st)
	for i := 0; i < 3; i++ {
		plain.RunIteration(i)
		checked.RunIteration(i)
	}
	var pct float64
	iter := 3
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		const reps = 30
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			plain.RunIteration(iter + i)
		}
		plainCost := time.Since(t0)
		t1 := time.Now()
		for i := 0; i < reps; i++ {
			checked.RunIteration(iter + i)
		}
		abftCost := time.Since(t1)
		iter += reps
		pct = 100 * (float64(abftCost) - float64(plainCost)) / float64(plainCost)
	}
	b.StopTimer()
	if st.Alarms.Load() != 0 {
		b.Fatalf("clean ABFT training raised %d alarms", st.Alarms.Load())
	}
	b.ReportMetric(pct, "abft-overhead-%")
}

// BenchmarkAblation_Precision quantifies the cost of modeling the
// accelerator's bfloat16 MAC path (DESIGN.md decision 2).
func BenchmarkAblation_Precision(b *testing.B) {
	r := rng.NewFromInt(1)
	x := tensor.New(48, 48)
	y := tensor.New(48, 48)
	x.FillNormal(r, 0, 1)
	y.FillNormal(r, 0, 1)
	t0 := time.Now()
	const reps = 200
	for i := 0; i < reps; i++ {
		_ = tensor.MatMul(x, y)
	}
	fp32 := time.Since(t0)
	t1 := time.Now()
	for i := 0; i < reps; i++ {
		_ = tensor.MatMulMixed(x, y)
	}
	mixed := time.Since(t1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMulMixed(x, y)
	}
	b.ReportMetric(float64(mixed)/float64(fp32), "x-fp32")
}

// BenchmarkAblation_ScheduleVsNaive quantifies DESIGN.md decision 1: the
// tile schedule computes a fault's corrupted elements by random access in
// O(MACUnits·n), where an event-driven/naive model would scan every cycle
// of the operation. At statistical-campaign volumes this is the difference
// between the corruption step being free and it dominating.
func BenchmarkAblation_ScheduleVsNaive(b *testing.B) {
	shape := []int{8, 64, 16, 16} // a larger activation tensor
	sched := accel.NewSchedule(shape, 1)
	start, n := sched.Cycles()/2, 8

	naive := func() []int {
		var all []int
		for c := 0; c < sched.Cycles(); c++ { // full cycle scan
			if c >= start && c < start+n {
				all = append(all, sched.OutputsAt(c)...)
			}
		}
		return all
	}

	t0 := time.Now()
	const reps = 200
	for i := 0; i < reps; i++ {
		_ = sched.OutputsInWindow(start, n)
	}
	direct := time.Since(t0)
	t1 := time.Now()
	for i := 0; i < reps; i++ {
		_ = naive()
	}
	naiveCost := time.Since(t1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sched.OutputsInWindow(start, n)
	}
	b.ReportMetric(float64(naiveCost)/float64(direct), "x-faster-than-scan")
}

// BenchmarkEngineIteration is the raw training-step throughput measurement
// underlying the overhead numbers.
func BenchmarkEngineIteration(b *testing.B) {
	w, _ := workloads.ByName("resnet")
	e := w.NewEngine(rng.Seed{State: 5, Stream: 77})
	e.RunIteration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunIteration(1 + i)
	}
}
