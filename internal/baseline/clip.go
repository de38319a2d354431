package baseline

import (
	"math"

	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// ClippedOptimizer wraps an optimizer with global-norm gradient clipping —
// the technique the paper's related-work section contrasts with its
// mathematically derived bounds (Sec 6). Clipping limits how much a faulty
// *gradient* can move the weights, but it does nothing for faults that
// corrupt the optimizer's history terms or a normalization layer's moving
// variance directly, which is why it "cannot be used to mitigate all
// unexpected training outcomes caused by hardware failures".
type ClippedOptimizer struct {
	Inner opt.Optimizer
	// MaxNorm is the global L2 norm the gradient vector is scaled down to
	// (heuristically chosen, per the paper's critique).
	MaxNorm float64
	// Clips counts iterations where clipping activated.
	Clips int
}

// NewClipped wraps inner with global-norm clipping.
func NewClipped(inner opt.Optimizer, maxNorm float64) *ClippedOptimizer {
	return &ClippedOptimizer{Inner: inner, MaxNorm: maxNorm}
}

// Step implements opt.Optimizer: clips the global gradient norm, then
// delegates.
func (c *ClippedOptimizer) Step(params []*nn.Param) {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(sq)
	if norm > c.MaxNorm && !math.IsNaN(norm) && !math.IsInf(norm, 0) {
		scale := float32(c.MaxNorm / norm)
		for _, p := range params {
			p.Grad.Scale(scale)
		}
		c.Clips++
	}
	c.Inner.Step(params)
}

// History implements opt.Optimizer.
func (c *ClippedOptimizer) History() map[string][]*tensor.Tensor { return c.Inner.History() }

// HistAbsMax implements opt.StepStats by forwarding to the inner optimizer.
func (c *ClippedOptimizer) HistAbsMax(name string, slot int) (float32, bool) {
	if ss, ok := c.Inner.(opt.StepStats); ok {
		return ss.HistAbsMax(name, slot)
	}
	return 0, false
}

// Snapshot implements opt.Optimizer.
func (c *ClippedOptimizer) Snapshot() map[string][]*tensor.Tensor { return c.Inner.Snapshot() }

// Restore implements opt.Optimizer.
func (c *ClippedOptimizer) Restore(s map[string][]*tensor.Tensor) { c.Inner.Restore(s) }
