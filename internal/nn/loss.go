package nn

import (
	"math"

	"repro/internal/numerics"
	"repro/internal/tensor"
)

// SoftmaxCrossEntropy is the loss function assumed by the paper's bound
// derivation (Algorithm 1, Property 3). Given logits [B, C] and integer
// labels, it returns the mean loss, the per-example probabilities and the
// gradient with respect to the logits.
//
// As Algorithm 1 Step 1 derives, the logit gradient is (p_i − y_i)/m, so
// each component is bounded by 1/m in absolute value in the fault-free case
// — the anchor of the gradient-history bound.
//
// The zero value is ready to use. A value owns the storage of the results it
// returns (see LossResult), so concurrent evaluations need one value each.
type SoftmaxCrossEntropy struct {
	ws tensor.Workspace
}

// LossResult bundles the outputs of a loss evaluation. Probs and GradLogits
// live in buffers of the SoftmaxCrossEntropy that produced them and are
// overwritten by its next Eval.
type LossResult struct {
	// Loss is the mean cross-entropy over the batch. It is a float64 but
	// may be NaN/Inf if the logits were corrupted.
	Loss float64
	// Probs holds softmax probabilities, shape [B, C].
	Probs *tensor.Tensor
	// GradLogits is dL/dlogits, shape [B, C].
	GradLogits *tensor.Tensor
	// Correct is the number of argmax predictions matching the labels.
	Correct int
}

// Eval computes the loss, probabilities, accuracy count, and logit gradient.
func (s *SoftmaxCrossEntropy) Eval(logits *tensor.Tensor, labels []int) LossResult {
	total, res := s.eval(0, logits, labels)
	res.Loss = total / float64(logits.Shape[0])
	return res
}

// Accumulate adds each example's cross-entropy to total, in example order,
// and returns the new total (not divided by anything) with the number of
// correct predictions: Eval's loop, run from a running total. A caller that
// feeds a batch through Accumulate in consecutive slices, carrying the total
// from one to the next, and divides by the whole batch at the end gets Eval's
// loss on the whole batch bit for bit. A non-finite logit makes the total
// NaN, and it stays NaN.
func (s *SoftmaxCrossEntropy) Accumulate(total float64, logits *tensor.Tensor, labels []int) (float64, int) {
	total, res := s.eval(total, logits, labels)
	return total, res.Correct
}

// eval runs the per-example loop from the running loss total and returns
// the new total with a result whose Loss is left unset.
func (s *SoftmaxCrossEntropy) eval(totalLoss float64, logits *tensor.Tensor, labels []int) (float64, LossResult) {
	checkRank("softmax-cross-entropy", logits, 2)
	b, c := logits.Shape[0], logits.Shape[1]
	if len(labels) != b {
		panic("nn: label count does not match batch size")
	}
	// Every element of both is written below.
	probs := s.ws.Get("probs", b, c)
	grad := s.ws.Get("grad", b, c)
	correct := 0
	invB := 1 / float32(b)
	for i := 0; i < b; i++ {
		row := logits.Data[i*c : (i+1)*c]
		// Numerically stable softmax: subtract the row max.
		maxV := float32(math.Inf(-1))
		for _, v := range row {
			if numerics.IsNaN32(v) {
				maxV = v
				break
			}
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		prow := probs.Data[i*c : (i+1)*c]
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			prow[j] = float32(e)
			sum += e
		}
		var best float32
		bestJ := 0
		for j := range prow {
			prow[j] = float32(float64(prow[j]) / sum)
			if prow[j] > best {
				best, bestJ = prow[j], j
			}
		}
		label := labels[i]
		if label < 0 || label >= c {
			panic("nn: label out of range")
		}
		if bestJ == label {
			correct++
		}
		p := float64(prow[label])
		totalLoss += -math.Log(math.Max(p, 1e-30))
		if numerics.IsNaN32(row[0]) || numerics.HasNonFinite(row) != -1 {
			// Propagate corruption honestly: a non-finite logit makes the
			// loss non-finite, which is how the framework reports
			// "INFs/NaNs observed" (Table 3).
			totalLoss = math.NaN()
		}
		grow := grad.Data[i*c : (i+1)*c]
		for j := range grow {
			grow[j] = prow[j] * invB
		}
		grow[label] -= invB
	}
	return totalLoss, LossResult{Probs: probs, GradLogits: grad, Correct: correct}
}
