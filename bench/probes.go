package main

// Layer probes: each times one public function of one layer on an engine
// built by Workload.NewEngine for the workload's model — one warm-up call,
// then the median of probeCalls timed calls. Kernel probes report analytic
// work rates (2·M·N·K FLOPs, computed bytes moved), not ns/op against their
// own previous version.

import (
	"time"

	"repro/internal/accel"
	"repro/internal/detect"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/outcome"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/workloads"
)

// probeCalls is the timed calls per probe (a variable so the smoke test can
// shrink it).
var probeCalls = 200

// probe returns the median seconds one call of fn takes. Each timed call
// runs fn inner times, so operations far below the clock's resolution are
// still measured over tens of microseconds.
func probe(inner int, fn func()) float64 {
	fn()
	samples := make([]float64, probeCalls)
	for i := range samples {
		t0 := time.Now()
		for j := 0; j < inner; j++ {
			fn()
		}
		samples[i] = time.Since(t0).Seconds() / float64(inner)
	}
	return median(samples)
}

// layerKind names a top-level model layer's kind, the unit of the nn
// forward/backward split. A residual block counts whole, including the
// convolutions and normalisations inside it.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv"
	case *nn.BatchNorm:
		return "batchnorm"
	case *nn.ReLU:
		return "relu"
	case *nn.Residual:
		return "residual"
	case *nn.GlobalAvgPool, *nn.SeqMean:
		return "pool"
	case *nn.Dense:
		return "dense"
	case *nn.SeqDense:
		return "seqdense"
	case *nn.Attention:
		return "attention"
	case *nn.LayerNorm:
		return "layernorm"
	case *nn.GELU:
		return "gelu"
	}
	return "other"
}

var layerKinds = []string{"conv", "batchnorm", "relu", "residual", "pool", "dense", "seqdense", "attention", "layernorm", "gelu"}

// gemmShape is an [M,K]×[K,N] product.
type gemmShape struct{ m, k, n int }

func (s gemmShape) flops() float64 { return 2 * float64(s.m) * float64(s.k) * float64(s.n) }

// The workloads' own GEMM shapes, per device shard of two examples: the
// residual block's 3×3 convolution lowered to [8,72]×[72,72], and the
// attention projections of an 8-token, 12-wide sequence.
var (
	convGEMM      = gemmShape{8, 72, 72}
	attentionGEMM = gemmShape{8, 12, 12}
	residentGEMM  = gemmShape{128, 128, 128} // fits L2 with room to spare
)

func randomTensor(r *rng.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillNormal(r, 0, 1)
	return t
}

// gemmGFLOPS times the three GEMM forms and the bf16 product on shape s.
func gemmGFLOPS(s gemmShape, inner int) (f32, ta, tb, bf16 float64) {
	r := rng.NewFromInt(7)
	a, b := randomTensor(r, s.m, s.k), randomTensor(r, s.k, s.n)
	at, bt := randomTensor(r, s.k, s.m), randomTensor(r, s.n, s.k)
	dst := tensor.New(s.m, s.n)
	rate := func(fn func()) float64 { return s.flops() / probe(inner, fn) / 1e9 }
	f32 = rate(func() { tensor.MatMulInto(dst, a, b, false) })
	ta = rate(func() { tensor.MatMulTAInto(dst, at, b, false) })
	tb = rate(func() { tensor.MatMulTBInto(dst, a, bt, false) })
	bf16 = rate(func() { tensor.MatMulInto(dst, a, b, true) })
	return
}

// probeResults maps per-layer metric names to values.
type probeResults map[string]float64

// runProbes measures every layer probe for the workload whose campaign
// config and golden are given.
func runProbes(cfg experiment.Config, g *experiment.Golden) probeResults {
	out := probeResults{}
	w := cfg.Workload
	seed := rng.Seed{State: uint64(cfg.Seed), Stream: 77}
	us := func(name string, inner int, fn func()) { out[name] = probe(inner, fn) * 1e6 }

	// train
	us("train.engine_build_us", 1, func() { w.NewEngine(seed) })
	e := w.NewEngine(seed)
	initial := e.Snapshot(-1)
	iter := 0
	us("train.iter_us", 1, func() { e.RunIteration(iter); iter++ })
	us("train.snapshot_us", 1, func() { e.Snapshot(iter) })
	us("train.state_digest_us", 1, func() { e.StateDigest() })
	us("train.evaluate_us", 1, func() { e.Evaluate(e.RootDevice()) })
	last := w.Devices - 1
	replica := e.SnapshotReplica(0)
	us("train.snapshot_replica_us", 1, func() { e.SnapshotReplica(0) })
	us("train.restore_replica_us", 1, func() { e.RestoreReplica(last, replica) })

	// detect: the fused bounds check after a real step, and the
	// cross-replica check over a real collective's signatures.
	det := detect.ForEngine(e, w.BatchSize(), w.LR, true)
	e.Group().SetCollectSigs(true)
	e.RunIteration(iter)
	iter++
	us("detect.check_engine_us", 1, func() { det.CheckEngine(e) })
	check := detect.NewGroupCheck()
	us("detect.group_check_us", 1, func() { check.Check(e.LastReduce()) })
	e.Group().SetCollectSigs(false)

	// opt and comm on the workload's parameter list.
	us("opt.adam_step_us", 1, func() { e.Optimizer().Step(e.Replica(0).Params()) })
	grads := make([][]*tensor.Tensor, w.Devices)
	for d := range grads {
		for _, p := range e.Replica(d).Params() {
			grads[d] = append(grads[d], p.Grad)
		}
	}
	us("comm.allreduce_us", 1, func() { e.Group().AllReduce(iter, grads) })
	e.Group().Quarantine(last)
	us("comm.allreduce_degraded_us", 1, func() { e.Group().AllReduce(iter, grads) })
	e.Group().Rejoin(last)

	// The per-experiment re-arm is measured last: it rewinds the engine.
	us("train.reset_restore_us", 1, func() { e.Reset(); e.Restore(initial) })

	probeLayers(out, e, w)
	probeKernels(out, w.Name)

	// fault / outcome: once per experiment each.
	inj := fault.NewSampler(accel.NVDLAInventory(), rng.NewFromInt(cfg.Seed)).Sample(e.Replica(0).Len(), w.Iters)
	target := randomTensor(rng.NewFromInt(9), 2, 8, 6, 6)
	axis := accel.PlanFor(accel.OpForward, target.Shape).ChanAxis
	us("fault.apply_us", 1, func() { inj.Apply(target, axis) })
	cls := outcome.NewClassifier(g.Ref())
	us("outcome.classify_us", 1, func() { cls.Classify(g.Ref(), fault.Forward) })
	return out
}

// probeLayers splits one replica's forward and backward pass by layer kind,
// timestamping the per-layer hooks of Sequential.Forward / Backward on the
// first device's shard of batch 0.
func probeLayers(out probeResults, e *train.Engine, w *workloads.Workload) {
	model := e.Replica(0)
	batch := e.Loader().Batch(0)
	n := w.PerDeviceBatch
	exLen := batch.X.Len() / batch.X.Shape[0]
	x := tensor.FromSlice(batch.X.Data[:n*exLen], append([]int{n}, batch.X.Shape[1:]...)...)
	y := batch.Y[:n]
	ctx := &nn.Context{Training: true, Rand: rng.NewFromInt(3)}
	var loss nn.SoftmaxCrossEntropy

	layers := model.Len()
	fwd := make([][]float64, layers)
	bwd := make([][]float64, layers)
	for call := 0; call <= probeCalls; call++ {
		prev := time.Now()
		logits := model.Forward(ctx, x, func(i int, _ *tensor.Tensor) *tensor.Tensor {
			t := time.Now()
			fwd[i] = append(fwd[i], t.Sub(prev).Seconds())
			prev = t
			return nil
		})
		grad := loss.Eval(logits, y).GradLogits
		prev = time.Now()
		model.Backward(grad, func(i int, _ *tensor.Tensor) *tensor.Tensor {
			t := time.Now()
			bwd[i] = append(bwd[i], t.Sub(prev).Seconds())
			prev = t
			return nil
		})
		model.ZeroGrad()
	}
	for _, kind := range layerKinds {
		out["nn.fwd_us."+kind], out["nn.bwd_us."+kind] = 0, 0
	}
	for i, nl := range model.Layers {
		kind := layerKind(nl.Layer)
		// The first call is the warm-up.
		out["nn.fwd_us."+kind] += median(fwd[i][1:]) * 1e6
		out["nn.bwd_us."+kind] += median(bwd[i][1:]) * 1e6
	}
}

// probeKernels reports the tensor kernels' work rates on the model's own
// shapes and on one L2-resident GEMM. The convolution lowering kernels only
// exist on the resnet path; on transformer they read zero.
func probeKernels(out probeResults, model string) {
	own := convGEMM
	if model == "transformer" {
		own = attentionGEMM
	}
	out["tensor.gemm_f32_gflops"], out["tensor.gemm_ta_gflops"], out["tensor.gemm_tb_gflops"], out["tensor.gemm_bf16_gflops"] = gemmGFLOPS(own, 16)
	out["tensor.gemm_f32_128_gflops"], out["tensor.gemm_ta_128_gflops"], out["tensor.gemm_tb_128_gflops"], out["tensor.gemm_bf16_128_gflops"] = gemmGFLOPS(residentGEMM, 1)

	r := rng.NewFromInt(8)
	gbps := func(bytes int, inner int, fn func()) float64 { return float64(bytes) / probe(inner, fn) / 1e9 }
	out["tensor.im2col_gbps"], out["tensor.col2im_gbps"] = 0, 0
	if model != "transformer" {
		in := randomTensor(r, 2, 8, 6, 6)
		p := tensor.ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}
		cols := tensor.New(8*3*3, 2*6*6)
		moved := 4 * (in.Len() + cols.Len())
		out["tensor.im2col_gbps"] = gbps(moved, 16, func() { tensor.Im2ColInto(cols, in, p) })
		out["tensor.col2im_gbps"] = gbps(moved, 16, func() { tensor.Col2ImInto(in, cols, p) })
	}
	big := randomTensor(r, 1<<14)
	out["tensor.absmax_gbps"] = gbps(4*big.Len(), 4, func() { big.AbsMax() })
	act, bias := randomTensor(r, 2, 8, 6, 6), randomTensor(r, 8)
	out["tensor.addbias_gbps"] = gbps(4*(2*act.Len()+bias.Len()), 64, func() { tensor.AddBiasNCHW(act, bias) })
}
