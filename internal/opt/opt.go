// Package opt implements the optimizers of the training framework: SGD
// (with optional momentum) and Adam.
//
// Adam's gradient-history terms m_t and v_t (Eq. 1 of the paper) are the
// state at the center of the SlowDegrade / SharpSlowDegrade analysis
// (Sec 4.2.3): they carry fault effects across iterations, and "large
// absolute gradient history values in optimizers" is the necessary
// condition for those outcomes (Table 4). The optimizer therefore exposes
// its history state for (a) the detection technique's bound checks and
// (b) the fault injector, which needs to observe the post-fault history
// magnitudes to reproduce Table 4.
package opt

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter. It must be called exactly
	// once per training iteration, after gradient averaging.
	Step(params []*nn.Param)
	// History returns the optimizer's gradient-history tensors keyed by
	// parameter name, or nil if the optimizer keeps no history. The
	// detection technique bounds the absolute values of exactly these
	// tensors.
	History() map[string][]*tensor.Tensor
	// Snapshot and Restore serialize the internal state, enabling the
	// recovery technique to rewind the two most recent iterations.
	Snapshot() map[string][]*tensor.Tensor
	Restore(snap map[string][]*tensor.Tensor)
}

// StepStats is implemented by optimizers that fold the detection
// technique's history reductions into Step's write loop. Step tracks the
// running abs-max of every history tensor it rewrites (as sign-cleared bit
// maxima, bitwise-equal to a post-hoc Tensor.AbsMax sweep) and clears the
// tensors' dirty flags, so the detector's per-iteration bound checks read a
// kept scalar instead of re-scanning the tensor. Stats describe the most
// recent Step only; HistAbsMax returns ok=false before the first Step, after
// a Restore, or for an unknown parameter — callers then sweep. Callers must
// also sweep when the history tensor itself is Dirty() (out-of-band
// mutation after Step).
type StepStats interface {
	// HistAbsMax returns the abs-max Step kept for history slot (0 = m or
	// momentum velocity, 1 = Adam v) of the named parameter.
	HistAbsMax(name string, slot int) (float32, bool)
}

// SGD is stochastic gradient descent with optional classical momentum.
// Plain SGD (Momentum=0) keeps no history at all — which is why, in the
// paper, the short-term-INF/NaN outcome appears only for Resnet_SGD: its
// updates are not normalized, so a single faulty gradient can produce
// arbitrarily large weights (Sec 4.2.2).
type SGD struct {
	LR       float32
	Momentum float32
	velocity map[string]*tensor.Tensor
	statV    map[string]uint32
}

// NewSGD creates an SGD optimizer.
func NewSGD(lr, momentum float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[string]*tensor.Tensor),
		statV: make(map[string]uint32)}
}

// Step implements Optimizer.
func (s *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		if s.Momentum == 0 {
			p.Value.AxpyInPlace(-s.LR, p.Grad)
			continue
		}
		v, ok := s.velocity[p.Name]
		if !ok {
			v = tensor.New(p.Value.Shape...)
			s.velocity[p.Name] = v
		}
		// Track the velocity abs-max (as abs-bits, the order-independent
		// encoding) while writing it. Every element is rewritten, so the
		// running max equals a post-hoc v.AbsMax().
		var vb uint32
		for i := range v.Data {
			vv := s.Momentum*v.Data[i] + p.Grad.Data[i]
			v.Data[i] = vv
			if b := tensor.AbsBits(vv); b > vb {
				vb = b
			}
			p.Value.Data[i] -= s.LR * vv
		}
		s.statV[p.Name] = vb
		v.ClearDirty()
	}
}

// HistAbsMax implements StepStats. SGD has a single history slot, the
// momentum velocity (slot 0).
func (s *SGD) HistAbsMax(name string, slot int) (float32, bool) {
	if slot != 0 {
		return 0, false
	}
	b, ok := s.statV[name]
	if !ok {
		return 0, false
	}
	return tensor.AbsMaxOfBits(b), true
}

// History implements Optimizer. Momentum velocity is a gradient-history
// term; plain SGD has none.
func (s *SGD) History() map[string][]*tensor.Tensor {
	if s.Momentum == 0 || len(s.velocity) == 0 {
		return nil
	}
	h := make(map[string][]*tensor.Tensor, len(s.velocity))
	for name, v := range s.velocity {
		h[name] = []*tensor.Tensor{v}
	}
	return h
}

// Snapshot implements Optimizer.
func (s *SGD) Snapshot() map[string][]*tensor.Tensor {
	snap := make(map[string][]*tensor.Tensor, len(s.velocity))
	for name, v := range s.velocity {
		snap[name] = []*tensor.Tensor{v.Clone()}
	}
	return snap
}

// Restore implements Optimizer. Step stats describe the pre-restore state,
// so they are discarded; the detector sweeps until the next Step.
func (s *SGD) Restore(snap map[string][]*tensor.Tensor) {
	s.velocity = make(map[string]*tensor.Tensor, len(snap))
	for name, ts := range snap {
		s.velocity[name] = ts[0].Clone()
	}
	s.statV = make(map[string]uint32)
}

// Adam implements the Adam optimizer exactly as in the paper's Eq. 1:
//
//	m_t = β1·m_{t-1} + (1−β1)·g_t
//	v_t = β2·v_{t-1} + (1−β2)·g_t²
//	u_t = η · (m_t/(1−β1^t)) / (sqrt(v_t/(1−β2^t)) + ε)
//	w_t = w_{t-1} − u_t
type Adam struct {
	LR           float32
	Beta1, Beta2 float32
	Eps          float32
	// t counts completed steps (for bias correction).
	t int
	m map[string]*tensor.Tensor
	v map[string]*tensor.Tensor

	// histCache memoizes History(): the detection technique calls it every
	// iteration, and rebuilding the map would dominate the check's cost
	// for small models. Invalidated whenever the key set changes.
	histCache map[string][]*tensor.Tensor

	// statM and statV hold Step's abs-bits maxima of m and v (StepStats).
	statM, statV map[string]uint32
}

// NewAdam creates an Adam optimizer with the standard defaults
// β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m:     make(map[string]*tensor.Tensor),
		v:     make(map[string]*tensor.Tensor),
		statM: make(map[string]uint32),
		statV: make(map[string]uint32),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	c1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	c2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for _, p := range params {
		m, ok := a.m[p.Name]
		if !ok {
			m = tensor.New(p.Value.Shape...)
			a.m[p.Name] = m
			a.histCache = nil
		}
		v, ok := a.v[p.Name]
		if !ok {
			v = tensor.New(p.Value.Shape...)
			a.v[p.Name] = v
		}
		// Track both history abs-maxima (as abs-bits) while writing m and
		// v. Every element is rewritten, so the running maxima equal
		// post-hoc AbsMax sweeps bit for bit.
		var mb, vb uint32
		for i := range p.Value.Data {
			g := p.Grad.Data[i]
			mv := a.Beta1*m.Data[i] + (1-a.Beta1)*g
			vv := a.Beta2*v.Data[i] + (1-a.Beta2)*g*g
			m.Data[i] = mv
			v.Data[i] = vv
			if b := tensor.AbsBits(mv); b > mb {
				mb = b
			}
			if b := tensor.AbsBits(vv); b > vb {
				vb = b
			}
			mHat := mv / c1
			vHat := vv / c2
			p.Value.Data[i] -= a.LR * mHat / (float32(math.Sqrt(float64(vHat))) + a.Eps)
		}
		a.statM[p.Name] = mb
		a.statV[p.Name] = vb
		m.ClearDirty()
		v.ClearDirty()
	}
}

// HistAbsMax implements StepStats: slot 0 is m, slot 1 is v.
func (a *Adam) HistAbsMax(name string, slot int) (float32, bool) {
	mp := a.statM
	if slot == 1 {
		mp = a.statV
	}
	b, ok := mp[name]
	if !ok {
		return 0, false
	}
	return tensor.AbsMaxOfBits(b), true
}

// History implements Optimizer: returns {param: [m, v]}. The returned map
// is cached and shared across calls; callers must treat it as read-only
// (mutating the tensors themselves is fine — they are the live state).
func (a *Adam) History() map[string][]*tensor.Tensor {
	if len(a.m) == 0 {
		return nil
	}
	if a.histCache == nil {
		a.histCache = make(map[string][]*tensor.Tensor, len(a.m))
		for name, m := range a.m {
			a.histCache[name] = []*tensor.Tensor{m, a.v[name]}
		}
	}
	return a.histCache
}

// Snapshot implements Optimizer.
func (a *Adam) Snapshot() map[string][]*tensor.Tensor {
	snap := make(map[string][]*tensor.Tensor, len(a.m)+1)
	for name, m := range a.m {
		snap[name] = []*tensor.Tensor{m.Clone(), a.v[name].Clone()}
	}
	// Store the step counter as a one-element tensor under a reserved key.
	snap["__adam_t"] = []*tensor.Tensor{tensor.FromSlice([]float32{float32(a.t)}, 1)}
	return snap
}

// Restore implements Optimizer. Step stats describe the pre-restore state,
// so they are discarded; the detector sweeps until the next Step.
func (a *Adam) Restore(snap map[string][]*tensor.Tensor) {
	a.m = make(map[string]*tensor.Tensor)
	a.v = make(map[string]*tensor.Tensor)
	a.histCache = nil
	a.statM = make(map[string]uint32)
	a.statV = make(map[string]uint32)
	for name, ts := range snap {
		if name == "__adam_t" {
			a.t = int(ts[0].Data[0])
			continue
		}
		a.m[name] = ts[0].Clone()
		a.v[name] = ts[1].Clone()
	}
}
