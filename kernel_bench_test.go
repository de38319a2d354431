// Kernel-layer benchmarks: blocked/parallel GEMM and workspace-reusing
// convolution against the seed repository's serial, allocating kernels.
//
// Run with:
//
//	go test -bench 'Kernel' -benchmem -run '^$' .
//
// The seed kernels are kept here verbatim as the comparison baseline (and
// as the bitwise reference — see internal/tensor/matmul_test.go). On a
// multi-core host the blocked+parallel kernels should show ≥2× on the large
// GEMM/conv shapes; on any host the allocs/op columns show the workspace
// effect (steady-state training iterations allocate near-zero kernel
// buffers).
package repro_test

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workloads"
)

// seedMatMul is the seed repository's serial ikj matmul (pre-optimization),
// the baseline the blocked kernels are measured against.
func seedMatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := tensor.New(m, n)
	for i := 0; i < m; i++ {
		ci := out.Data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := a.Data[i*k+kk]
			if av == 0 {
				continue
			}
			bk := b.Data[kk*n : (kk+1)*n]
			for j, bv := range bk {
				ci[j] += av * bv
			}
		}
	}
	return out
}

// seedConv2D is the seed's conv forward: fresh im2col + transpose-free
// matmul + fresh output buffers every call.
func seedConv2D(in, kernel *tensor.Tensor, p tensor.ConvParams) *tensor.Tensor {
	return tensor.Conv2D(in, kernel, p, false)
}

func benchMats(n int) (*tensor.Tensor, *tensor.Tensor) {
	r := rng.NewFromInt(31)
	a := tensor.New(n, n)
	b := tensor.New(n, n)
	a.FillNormal(r, 0, 1)
	b.FillNormal(r, 0, 1)
	return a, b
}

// reportGFLOPS reports a GEMM leg's rate from the analytic work model: an
// [m,k]x[k,n] product is m·k·n multiply-adds, 2·m·k·n floating-point
// operations, whatever the kernel skips or how it blocks.
func reportGFLOPS(b *testing.B, m, k, n int) {
	b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkKernel_MatMulSeed(b *testing.B) {
	x, y := benchMats(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = seedMatMul(x, y)
	}
	reportGFLOPS(b, 256, 256, 256)
}

func BenchmarkKernel_MatMulBlocked(b *testing.B) {
	x, y := benchMats(256)
	dst := tensor.New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMulInto(dst, x, y, false)
	}
	reportGFLOPS(b, 256, 256, 256)
}

func BenchmarkKernel_MatMulTA(b *testing.B) {
	x, y := benchMats(256)
	dst := tensor.New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMulTAInto(dst, x, y, false)
	}
	reportGFLOPS(b, 256, 256, 256)
}

// BenchmarkKernel_MatMulTASeed measures the pre-optimization pattern the
// fused kernel replaces: materialize the transpose, then multiply.
func BenchmarkKernel_MatMulTASeed(b *testing.B) {
	x, y := benchMats(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = seedMatMul(tensor.Transpose2D(x), y)
	}
	reportGFLOPS(b, 256, 256, 256)
}

func BenchmarkKernel_MatMulTB(b *testing.B) {
	x, y := benchMats(256)
	dst := tensor.New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMulTBInto(dst, x, y, false)
	}
	reportGFLOPS(b, 256, 256, 256)
}

// benchCampaignGEMM times one fp32 product at a shape the reference
// campaigns spend their GEMM time in — far below the parallel threshold, so
// it is the serial row-block driver and the micro-kernels that are measured,
// not the pool. mul receives A as [m,k] and B as [k,n] and transposes what
// its entry point wants transposed, outside the timer. Two legs: A without a
// zero (what a convolution behind a BatchNorm sees: one run of k dense steps
// per row block) and A with every other element zero at random (almost every
// k-step mixed: per-row kernels, the prescan finding nothing).
func benchCampaignGEMM(b *testing.B, m, k, n int, mul func(a, bm *tensor.Tensor) func()) {
	for _, leg := range []struct {
		name  string
		zeros bool
	}{{"dense", false}, {"half-zero", true}} {
		b.Run(leg.name, func(b *testing.B) {
			r := rng.NewFromInt(35)
			a, bm := tensor.New(m, k), tensor.New(k, n)
			a.FillNormal(r, 0, 1)
			bm.FillNormal(r, 0, 1)
			if leg.zeros {
				for i := range a.Data {
					if r.Intn(2) == 0 {
						a.Data[i] = 0
					}
				}
			}
			run := mul(a, bm)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			reportGFLOPS(b, m, k, n)
		})
	}
}

func benchCampaignNN(b *testing.B, m, k, n int) {
	benchCampaignGEMM(b, m, k, n, func(a, bm *tensor.Tensor) func() {
		dst := tensor.New(m, n)
		return func() { tensor.MatMulInto(dst, a, bm, false) }
	})
}

// The conv forward of the resnet campaign: kernel [8,72] × im2col [72,72].
func BenchmarkKernel_GEMMCampaignNN(b *testing.B) { benchCampaignNN(b, 8, 72, 72) }

// The transformer campaign's projections: 12 columns, one tile of 8 and one
// of 4.
func BenchmarkKernel_GEMMCampaignNN12(b *testing.B) { benchCampaignNN(b, 16, 12, 12) }

// The conv input gradient: kernelᵀ [72,8]ᵀ × gradOut [8,72].
func BenchmarkKernel_GEMMCampaignTA(b *testing.B) {
	benchCampaignGEMM(b, 72, 8, 72, func(a, bm *tensor.Tensor) func() {
		dst, at := tensor.New(72, 72), tensor.Transpose2D(a)
		return func() { tensor.MatMulTAInto(dst, at, bm, false) }
	})
}

// The conv weight gradient: gradOut [8,72] × im2col [72,72]ᵀ.
func BenchmarkKernel_GEMMCampaignTB(b *testing.B) {
	benchCampaignGEMM(b, 8, 72, 72, func(a, bm *tensor.Tensor) func() {
		dst, bt := tensor.New(8, 72), tensor.Transpose2D(bm)
		return func() { tensor.MatMulTBInto(dst, a, bt, false) }
	})
}

func benchConvOperands() (*tensor.Tensor, *tensor.Tensor, tensor.ConvParams) {
	r := rng.NewFromInt(32)
	in := tensor.New(8, 8, 16, 16)
	in.FillNormal(r, 0, 1)
	kernel := tensor.New(16, 8, 3, 3)
	kernel.FillNormal(r, 0, 0.5)
	return in, kernel, tensor.ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}
}

// benchLowering runs one direction of the convolution lowering at the
// campaign's shape ([2,8,6,6], 3×3, stride 1, pad 1 → a 72×72 matrix) and
// reports GB/s under the byte model bench/probes.go uses for
// tensor.im2col_gbps / col2im_gbps: the image and the matrix, once each.
func benchLowering(b *testing.B, fn func(in, cols *tensor.Tensor, p tensor.ConvParams)) {
	in := tensor.New(2, 8, 6, 6)
	in.FillNormal(rng.NewFromInt(33), 0, 1)
	p := tensor.ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}
	cols := tensor.Im2Col(in, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(in, cols, p)
	}
	b.ReportMetric(4*float64(in.Len()+cols.Len())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
}

func BenchmarkKernel_Im2Col(b *testing.B) {
	benchLowering(b, func(in, cols *tensor.Tensor, p tensor.ConvParams) { tensor.Im2ColInto(cols, in, p) })
}

func BenchmarkKernel_Col2Im(b *testing.B) {
	benchLowering(b, func(in, cols *tensor.Tensor, p tensor.ConvParams) { tensor.Col2ImInto(in, cols, p) })
}

// benchShape is one activation shape a layer benchmark runs at.
type benchShape struct {
	name  string
	shape []int
}

// elemShapes are the two activation shapes the resnet campaign puts through
// the element-wise layers: a device's training shard and the test batch.
// seqShapes are the transformer campaign's.
var (
	elemShapes = []benchShape{{"2x8x6x6", []int{2, 8, 6, 6}}, {"64x8x6x6", []int{64, 8, 6, 6}}}
	seqShapes  = []benchShape{{"2x8x12", []int{2, 8, 12}}, {"64x8x12", []int{64, 8, 12}}}
)

// benchElem times one element-wise layer call per shape and reports GB/s
// under a byte model of floats read plus floats written per activation
// element (streams), the figure to hold against AddInPlace's three streams.
func benchElem(b *testing.B, streams int, setup func(x, g *tensor.Tensor) func()) {
	benchShapes(b, elemShapes, streams, setup)
}

// benchShapes is benchElem over the given shapes; streams 0 reports no GB/s
// (a layer bound by arithmetic, not by its streams).
func benchShapes(b *testing.B, shapes []benchShape, streams int, setup func(x, g *tensor.Tensor) func()) {
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			r := rng.NewFromInt(34)
			x, g := tensor.New(s.shape...), tensor.New(s.shape...)
			x.FillNormal(r, 0, 1)
			g.FillNormal(r, 0, 1)
			call := setup(x, g)
			call()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
			if streams > 0 {
				b.ReportMetric(4*float64(streams*x.Len())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			}
		})
	}
}

// trainCtx is what the trainer passes outside a detector's collection pass.
var trainCtx = &nn.Context{Training: true}

func BenchmarkKernel_ReLUForward(b *testing.B) {
	benchElem(b, 3, func(x, _ *tensor.Tensor) func() {
		relu := nn.NewReLU()
		return func() { relu.Forward(trainCtx, x) }
	})
}

func BenchmarkKernel_ReLUBackward(b *testing.B) {
	benchElem(b, 3, func(x, g *tensor.Tensor) func() {
		relu := nn.NewReLU()
		relu.Forward(trainCtx, x)
		return func() { relu.Backward(g) }
	})
}

// BenchmarkKernel_BatchNormForward is the training forward: ChannelMoments'
// sequential float64 chains, then the normalize kernel.
func BenchmarkKernel_BatchNormForward(b *testing.B) {
	benchElem(b, 3, func(x, _ *tensor.Tensor) func() {
		bn := nn.NewBatchNorm("bn", x.Shape[1], 0.9)
		return func() { bn.Forward(trainCtx, x) }
	})
}

// BenchmarkKernel_BatchNormBackward is the two sequential float32 sums per
// channel, then the dx kernel.
func BenchmarkKernel_BatchNormBackward(b *testing.B) {
	benchElem(b, 3, func(x, g *tensor.Tensor) func() {
		bn := nn.NewBatchNorm("bn", x.Shape[1], 0.9)
		bn.Forward(trainCtx, x)
		return func() { bn.Backward(g) }
	})
}

func BenchmarkKernel_AddBias(b *testing.B) {
	benchElem(b, 2, func(x, _ *tensor.Tensor) func() {
		bias := tensor.New(x.Shape[1])
		bias.Fill(1e-3)
		return func() { tensor.AddBiasNCHW(x, bias) }
	})
}

// BenchmarkKernel_AddInPlace is the ceiling the element-wise kernels are held
// against: two streams in, one out, on addBlocksAVX.
func BenchmarkKernel_AddInPlace(b *testing.B) {
	benchElem(b, 3, func(x, g *tensor.Tensor) func() {
		g.Scale(1e-6)
		return func() { x.AddInPlace(g) }
	})
}

func BenchmarkKernel_Conv2DSeed(b *testing.B) {
	in, kernel, p := benchConvOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = seedConv2D(in, kernel, p)
	}
}

func BenchmarkKernel_Conv2DWorkspace(b *testing.B) {
	in, kernel, p := benchConvOperands()
	ws := tensor.NewWorkspace()
	tensor.Conv2DForwardWS(ws, in, kernel, p, false) // prime the workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tensor.Conv2DForwardWS(ws, in, kernel, p, false)
	}
}

func BenchmarkKernel_Conv2DBackwardWorkspace(b *testing.B) {
	in, kernel, p := benchConvOperands()
	ws := tensor.NewWorkspace()
	out, cols := tensor.Conv2DForwardWS(ws, in, kernel, p, false)
	gradOut := tensor.New(out.Shape...)
	gradOut.Fill(0.01)
	tensor.Conv2DBackwardWS(ws, in, kernel, gradOut, cols, p, false) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tensor.Conv2DBackwardWS(ws, in, kernel, gradOut, cols, p, false)
	}
}

// The sequence layers of the transformer campaign, one call per iteration at
// the training shard's shape and at the evaluation batch's.

// BenchmarkKernel_GELUForward is one math.Tanh per element.
func BenchmarkKernel_GELUForward(b *testing.B) {
	benchShapes(b, seqShapes, 0, func(x, _ *tensor.Tensor) func() {
		gelu := nn.NewGELU()
		return func() { gelu.Forward(trainCtx, x) }
	})
}

// BenchmarkKernel_GELUBackward reads the forward's tanh back.
func BenchmarkKernel_GELUBackward(b *testing.B) {
	benchShapes(b, seqShapes, 0, func(x, g *tensor.Tensor) func() {
		gelu := nn.NewGELU()
		gelu.Forward(trainCtx, x)
		return func() { gelu.Backward(g) }
	})
}

func BenchmarkKernel_LayerNormForward(b *testing.B) {
	benchShapes(b, seqShapes, 3, func(x, _ *tensor.Tensor) func() {
		ln := nn.NewLayerNorm("ln", x.Shape[2])
		return func() { ln.Forward(trainCtx, x) }
	})
}

func BenchmarkKernel_LayerNormBackward(b *testing.B) {
	benchShapes(b, seqShapes, 3, func(x, g *tensor.Tensor) func() {
		ln := nn.NewLayerNorm("ln", x.Shape[2])
		ln.Forward(trainCtx, x)
		return func() { ln.Backward(g) }
	})
}

// BenchmarkKernel_AttentionForward is four whole-batch projections and, per
// batch element, two 8×8-by-12 products and a softmax.
func BenchmarkKernel_AttentionForward(b *testing.B) {
	benchShapes(b, seqShapes, 0, func(x, _ *tensor.Tensor) func() {
		at := nn.NewAttention("attn", x.Shape[2], x.Shape[2], rng.NewFromInt(35), false)
		return func() { at.Forward(trainCtx, x) }
	})
}

func BenchmarkKernel_AttentionBackward(b *testing.B) {
	benchShapes(b, seqShapes, 0, func(x, g *tensor.Tensor) func() {
		at := nn.NewAttention("attn", x.Shape[2], x.Shape[2], rng.NewFromInt(35), false)
		at.Forward(trainCtx, x)
		return func() { at.Backward(g) }
	})
}

// BenchmarkKernel_TransformerStep is one replica's forward + backward of the
// whole transformer model on random tokens, gradients cleared after.
func BenchmarkKernel_TransformerStep(b *testing.B) {
	tokens := []benchShape{{"2x8x6", []int{2, 8, 6}}, {"64x8x6", []int{64, 8, 6}}}
	benchShapes(b, tokens, 0, func(x, _ *tensor.Tensor) func() {
		model := workloads.Transformer().Build(rng.NewFromInt(36))
		var loss nn.SoftmaxCrossEntropy
		labels := make([]int, x.Shape[0])
		return func() {
			logits := model.Forward(trainCtx, x, nil)
			model.Backward(loss.Eval(logits, labels).GradLogits, nil)
			model.ZeroGrad()
		}
	})
}

// BenchmarkKernel_TrainStepAllocs measures allocations of a full Resnet
// training iteration (8 devices, forward+backward+averaging+step). The
// workspace arena makes the per-layer kernel buffers steady-state, so
// allocs/op should sit far below the seed's one-buffer-per-kernel-call
// behavior (≥50% reduction is the acceptance bar).
func BenchmarkKernel_TrainStepAllocs(b *testing.B) {
	w := workloads.Resnet()
	e := w.NewEngine(rng.Seed{State: 77, Stream: 1})
	// Warm up one iteration so every workspace buffer exists.
	e.RunIteration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.RunIteration(i + 1)
	}
}

// BenchmarkKernel_TrainStepDeviceParallel is the same step with
// device-parallel stepping enabled (identical results, different schedule).
func BenchmarkKernel_TrainStepDeviceParallel(b *testing.B) {
	w := workloads.Resnet()
	e := w.NewEngine(rng.Seed{State: 77, Stream: 1})
	e.SetDeviceParallel(true)
	e.RunIteration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.RunIteration(i + 1)
	}
}

// --- persistent pool + bf16 panel packing ---

// benchWorkloadGEMM returns the dominant GEMM shape of the Resnet step: the
// im2col matrix [B·H·W, InC·KH·KW] times the lowered kernel [InC·KH·KW,
// OutC·…] — 8×72 by 72×576, which clears the parallel threshold.
func benchWorkloadGEMM() (*tensor.Tensor, *tensor.Tensor, *tensor.Tensor) {
	r := rng.NewFromInt(33)
	a := tensor.New(8, 72)
	bm := tensor.New(72, 576)
	a.FillNormal(r, 0, 1)
	bm.FillNormal(r, 0, 1)
	return tensor.New(8, 576), a, bm
}

// BenchmarkKernel_GEMMPool: workload-shaped parallel GEMM dispatched to the
// persistent worker pool. Workers are pinned to 4 so the dispatch machinery
// runs even on a single-core host (where GOMAXPROCS would otherwise keep
// the kernel serial) — the leg measures dispatch cost.
func BenchmarkKernel_GEMMPool(b *testing.B) {
	dst, x, y := benchWorkloadGEMM()
	defer tensor.SetWorkers(tensor.SetWorkers(4))
	defer tensor.SetParallelThreshold(tensor.SetParallelThreshold(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMulInto(dst, x, y, false)
	}
}

// BenchmarkKernel_GEMMMixedPacked: bf16 GEMM with the B panel pre-rounded
// once into a pooled buffer.
func BenchmarkKernel_GEMMMixedPacked(b *testing.B) {
	x, y := benchMats(256)
	dst := tensor.New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMulInto(dst, x, y, true)
	}
}

// BenchmarkKernel_TrainStepMixed: a full bf16-GEMM training iteration.
func BenchmarkKernel_TrainStepMixed(b *testing.B) {
	w := workloads.ResnetMixed()
	e := w.NewEngine(rng.Seed{State: 77, Stream: 1})
	e.RunIteration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.RunIteration(i + 1)
	}
}
