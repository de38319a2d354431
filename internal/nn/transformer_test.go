package nn_test

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workloads"
)

// TestTransformerStepZeroAllocs: once each batch size has been through, a
// forward + backward of every sequence layer, and of the whole transformer
// model with its loss and gradient clearing, allocates nothing — at the
// training shard's batch size and at the evaluation batch's, alternating as a
// campaign engine alternates them.
func TestTransformerStepZeroAllocs(t *testing.T) {
	if nn.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	r := rng.NewFromInt(71)
	ctx := &nn.Context{Training: true}
	random := func(shape ...int) *tensor.Tensor {
		x := tensor.New(shape...)
		x.FillNormal(r, 0, 1)
		return x
	}
	batches := []int{2, 64}
	// check warms run up at both batch sizes (buffers reach their largest
	// extent), then counts at each.
	check := func(name string, run func(b int)) {
		for _, b := range batches {
			run(b)
		}
		for _, b := range batches {
			if allocs := testing.AllocsPerRun(10, func() { run(b) }); allocs != 0 {
				t.Errorf("%s at batch %d: forward + backward allocates %v times, want 0", name, b, allocs)
			}
		}
	}
	layer := func(name string, l nn.Layer, gradShape func(b int) []int) {
		x, g := map[int]*tensor.Tensor{}, map[int]*tensor.Tensor{}
		for _, b := range batches {
			x[b], g[b] = random(b, 8, 12), random(gradShape(b)...)
		}
		check(name, func(b int) {
			l.Forward(ctx, x[b])
			l.Backward(g[b])
		})
	}
	seq := func(b int) []int { return []int{b, 8, 12} }
	layer("GELU", nn.NewGELU(), seq)
	layer("LayerNorm", nn.NewLayerNorm("ln", 12), seq)
	layer("SeqDense", nn.NewSeqDense("ff", 12, 12, r, false), seq)
	layer("SeqMean", nn.NewSeqMean(), func(b int) []int { return []int{b, 12} })
	layer("Attention", nn.NewAttention("attn", 12, 12, r, false), seq)

	model := workloads.Transformer().Build(r)
	var loss nn.SoftmaxCrossEntropy
	tokens, labels := map[int]*tensor.Tensor{}, map[int][]int{}
	for _, b := range batches {
		tokens[b], labels[b] = random(b, 8, 6), make([]int, b)
	}
	check("the transformer model", func(b int) {
		logits := model.Forward(ctx, tokens[b], nil)
		model.Backward(loss.Eval(logits, labels[b]).GradLogits, nil)
		model.ZeroGrad()
	})
}
