// Package detect implements the paper's hardware-failure detection
// technique (Sec 5.1, Algorithm 1): per-iteration bounds checks on the
// optimizer's gradient-history values and the normalization layers' moving
// variance values. These two states are exactly the necessary conditions
// for all latent unexpected outcomes (Table 4), and the conditions appear
// within two training iterations of the fault — so checking them each
// iteration guarantees a bounded error-detection latency.
//
// The bounds are derived mathematically from workload properties rather
// than tuned heuristically (contrast with gradient clipping, Sec 6):
//
//	Part I:  |gradient history| < 20·sqrt(n_l)/m   w.p. > 1 − 3e−89
//	Part II: mvar ≤ (1 + N_l·η²·k²)^l
//
// where n_l/N_l are the partial-sum counts of the widest layer, m is the
// batch size, η the learning rate, k Adam's bias-correction factor, and l
// the network depth.
package detect

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/train"
)

// Config carries the workload properties the bound derivation needs.
type Config struct {
	// MaxFanIn is the largest number of partial sums used to compute one
	// gradient/output value across all layers (n_l and N_l in
	// Algorithm 1).
	MaxFanIn int
	// BatchSize is the global mini-batch size m.
	BatchSize int
	// Depth is the number of layers l (exponent of the mvar bound).
	Depth int
	// LR is the learning rate η.
	LR float64
	// MaxBiasCorrection bounds Adam's k = sqrt(1−β2^t)/(1−β1^t) over the
	// run; with the standard β's it approaches 1 from below, so 1 is a
	// safe bound.
	MaxBiasCorrection float64
	// SafetyFactor scales both bounds to absorb the idealization gap
	// between Algorithm 1's assumptions (exact variance preservation,
	// perfectly normalized inputs) and a real workload. The detection
	// targets are 8–30 orders of magnitude above the bounds (Table 4), so
	// a one-order-of-magnitude safety factor costs no coverage.
	SafetyFactor float64
}

// Bounds are the derived detection thresholds.
type Bounds struct {
	// GradHistory bounds first-moment history terms (Adam m_t, SGD
	// momentum velocity): 20·sqrt(n_l)/m (Algorithm 1 Part I).
	GradHistory float64
	// GradHistorySq bounds second-moment history terms (Adam v_t), which
	// accumulate g², hence the square of the Part-I gradient bound.
	GradHistorySq float64
	// Mvar bounds moving-variance values: (1 + N_l·η²·k²)^l (Part II).
	Mvar float64
}

// Derive computes the Algorithm-1 bounds from workload properties.
func Derive(cfg Config) Bounds {
	if cfg.SafetyFactor <= 0 {
		cfg.SafetyFactor = 1
	}
	k := cfg.MaxBiasCorrection
	if k <= 0 {
		k = 1
	}
	gradBound := 20 * math.Sqrt(float64(cfg.MaxFanIn)) / float64(cfg.BatchSize)
	mvarBound := math.Pow(1+float64(cfg.MaxFanIn)*cfg.LR*cfg.LR*k*k, float64(cfg.Depth))
	// Algorithm 1's mvar bound assumes unit input variance; normalize it
	// to at least a small constant above 1 so a fresh model (mvar = 1)
	// never trips it.
	if mvarBound < 2 {
		mvarBound = 2
	}
	return Bounds{
		GradHistory:   gradBound * cfg.SafetyFactor,
		GradHistorySq: gradBound * gradBound * cfg.SafetyFactor * cfg.SafetyFactor,
		Mvar:          mvarBound * cfg.SafetyFactor,
	}
}

// TailProbability returns the Gaussian two-sided tail bound P(|X| > z·σ),
// the probability behind Algorithm 1's "< 3×10⁻⁸⁹" claim at z = 20.
func TailProbability(z float64) float64 {
	return math.Erfc(z / math.Sqrt2)
}

// ConfigForModel extracts the bound-derivation properties from a model: the
// maximum fan-in over Dense/Conv2D layers (descending into containers is
// not needed because container params come from those same layer types held
// at top level in our workloads) and the layer count.
func ConfigForModel(model *nn.Sequential, batchSize int, lr float64) Config {
	maxFanIn := 1
	depth := 0
	var visit func(l nn.Layer)
	visit = func(l nn.Layer) {
		if c, ok := l.(nn.Container); ok {
			for _, sub := range c.Sublayers() {
				visit(sub)
			}
			return
		}
		switch v := l.(type) {
		case *nn.Dense:
			depth++
			if f := v.FanIn(); f > maxFanIn {
				maxFanIn = f
			}
		case *nn.Conv2D:
			depth++
			if f := v.FanIn(); f > maxFanIn {
				maxFanIn = f
			}
		default:
			if len(l.Params()) > 0 {
				depth++
				// Parameterized layers without an explicit fan-in (LSTM,
				// attention, norms) contribute their largest parameter
				// dimension as a fan-in proxy.
				for _, p := range l.Params() {
					if len(p.Value.Shape) >= 2 && p.Value.Shape[0] > maxFanIn {
						maxFanIn = p.Value.Shape[0]
					}
				}
			}
		}
	}
	for _, nl := range model.Layers {
		visit(nl.Layer)
	}
	return Config{
		MaxFanIn:          maxFanIn,
		BatchSize:         batchSize,
		Depth:             depth,
		LR:                lr,
		MaxBiasCorrection: 1,
		SafetyFactor:      10,
	}
}

// LayeredBounds holds per-parameter detection bounds, keyed by parameter
// name. Algorithm 1 derives its bound from n_l, the partial-sum count of
// layer l: a narrow layer's gradients are bounded far tighter than the
// widest layer's, so per-layer bounds detect smaller corruptions earlier
// than one model-wide bound built from max(n_l).
type LayeredBounds struct {
	// PerParam maps parameter name → bounds derived from that layer's own
	// fan-in. Parameters of layers without an explicit fan-in fall back to
	// Global.
	PerParam map[string]Bounds
	// Global is the max-fan-in bound used as the fallback and for the
	// mvar check (mvar is bounded by the depth product, not per layer).
	Global Bounds
}

// DeriveLayered computes per-parameter bounds for a model. cfgTemplate
// supplies batch size, learning rate, depth, safety factor and bias
// correction; the per-layer fan-in replaces MaxFanIn for each
// parameterized layer.
func DeriveLayered(model *nn.Sequential, cfgTemplate Config) LayeredBounds {
	lb := LayeredBounds{PerParam: map[string]Bounds{}, Global: Derive(cfgTemplate)}
	var visit func(l nn.Layer)
	visit = func(l nn.Layer) {
		var fanIn int
		switch v := l.(type) {
		case *nn.Dense:
			fanIn = v.FanIn()
		case *nn.Conv2D:
			fanIn = v.FanIn()
		case *nn.Residual:
			for _, b := range v.Branch {
				visit(b)
			}
			return
		case *nn.DenseBlock:
			for _, stage := range v.Stages {
				for _, b := range stage {
					visit(b)
				}
			}
			return
		default:
			return
		}
		cfg := cfgTemplate
		cfg.MaxFanIn = fanIn
		b := Derive(cfg)
		for _, p := range l.Params() {
			lb.PerParam[p.Name] = b
		}
	}
	for _, nl := range model.Layers {
		visit(nl.Layer)
	}
	return lb
}

// boundsFor returns the bounds to apply for a parameter name.
func (lb *LayeredBounds) boundsFor(name string) Bounds {
	if b, ok := lb.PerParam[name]; ok {
		return b
	}
	return lb.Global
}

// Alarm describes a detection event.
type Alarm struct {
	// Where identifies the out-of-bound state ("adam-m:conv1/kernel",
	// "mvar:bn2@device0").
	Where string
	// Value is the offending absolute value; Bound the threshold crossed.
	Value, Bound float64
}

// String implements fmt.Stringer.
func (a Alarm) String() string {
	return fmt.Sprintf("detect: %s = %.3e exceeds bound %.3e", a.Where, a.Value, a.Bound)
}

// Detector performs the per-iteration bounds checks. It is the
// 24–32-lines-of-code artifact of Sec 5.3, structured as a reusable type.
type Detector struct {
	Bounds Bounds
	// Layered, when non-nil, refines the history checks with per-layer
	// bounds (Algorithm 1's n_l is per layer); the mvar check always uses
	// Bounds.Mvar.
	Layered *LayeredBounds
	// Fused makes the checks consume the stats the hot path already fused
	// into its write loops (opt.StepStats history maxima, BatchNorm's mvar
	// stat) instead of sweeping each tensor. A tensor mutated out-of-band —
	// fault injection, checkpoint restore — is flagged by the dirty-tensor
	// protocol, and the check re-sweeps exactly that tensor, so fused and
	// sweep modes raise bitwise-identical alarms.
	Fused bool
	// Checks counts bound evaluations per value class: one per
	// gradient-history tensor slot (Adam m, Adam v, SGD velocity — one
	// evaluation covers the whole tensor's abs-max) and one per BatchNorm
	// moving-variance tensor per device, per Check* call. The unit is
	// identical between fused and sweep modes, so overhead comparisons
	// divide by the same count.
	Checks int

	// names caches the sorted history key set so alarm order is
	// deterministic (map iteration is not); the key set only grows.
	names []string
}

// New creates a detector with the given bounds.
func New(b Bounds) *Detector { return &Detector{Bounds: b} }

// NewLayered creates a detector with per-layer history bounds.
func NewLayered(lb LayeredBounds) *Detector {
	return &Detector{Bounds: lb.Global, Layered: &lb}
}

// ForEngine builds the standard detector for a training engine — bounds
// derived from the replica-0 model via ConfigForModel — shared by the
// experiment driver, the guarded-run facade and `repro mitigate`. With fused
// enabled it also switches the engine's optimizer to inline stat
// collection so the per-iteration checks stop sweeping tensors.
func ForEngine(e *train.Engine, batchSize int, lr float64, fused bool) *Detector {
	d := New(Derive(ConfigForModel(e.Replica(0), batchSize, lr)))
	d.Fused = fused
	if fused {
		if ss, ok := e.Optimizer().(opt.StepStats); ok {
			ss.SetCollectStats(true)
		}
	}
	return d
}

// CheckEngine scans the engine's optimizer history and normalization
// statistics. It returns nil if everything is in bounds, or the first alarm
// otherwise. Cost is O(#history values + #channels): the two comparisons per
// value the paper reports as 0.003%–0.025% overhead.
func (d *Detector) CheckEngine(e *train.Engine) *Alarm {
	if a := d.CheckHistory(e.Optimizer()); a != nil {
		return a
	}
	return d.CheckMvar(e)
}

// CheckHistory checks the optimizer's gradient-history tensors: index 0 of
// each entry against the first-moment bound, index 1 (if present) against
// the second-moment bound. Tensors are visited in sorted-name order so the
// first alarm is deterministic. In fused mode the abs-max comes from the
// optimizer's Step-time stats (opt.StepStats) whenever the tensor is clean;
// a dirty tensor — mutated by injection or restore since the last Step — is
// re-swept, which is what keeps fused alarms bitwise-identical to sweep
// alarms.
func (d *Detector) CheckHistory(o opt.Optimizer) *Alarm {
	h := o.History()
	if h == nil {
		return nil
	}
	if len(d.names) != len(h) {
		d.names = d.names[:0]
		for name := range h {
			d.names = append(d.names, name)
		}
		sort.Strings(d.names)
	}
	var ss opt.StepStats
	if d.Fused {
		ss, _ = o.(opt.StepStats)
	}
	for _, name := range d.names {
		ts := h[name]
		bounds := d.Bounds
		if d.Layered != nil {
			bounds = d.Layered.boundsFor(name)
		}
		for i, t := range ts {
			d.Checks++
			bound := bounds.GradHistory
			label := "hist-m"
			if i == 1 {
				bound = bounds.GradHistorySq
				label = "hist-v"
			}
			var av float32
			fused := false
			if ss != nil && !t.Dirty() {
				av, fused = ss.HistAbsMax(name, i)
			}
			if !fused {
				av = t.AbsMax()
			}
			v := float64(av)
			if math.IsNaN(v) || v > bound {
				if math.IsNaN(v) {
					v = math.Inf(1)
				}
				return &Alarm{Where: fmt.Sprintf("%s:%s", label, name), Value: v, Bound: bound}
			}
		}
	}
	return nil
}

// CheckMvar checks every device's BatchNorm moving variances, including
// normalization layers nested inside residual branches and dense blocks
// (the layers the paper's Observation 3 singles out). In fused mode each
// layer's update-time stat replaces the sweep unless the tensor was
// dirtied out-of-band since the update.
func (d *Detector) CheckMvar(e *train.Engine) *Alarm {
	for dev := 0; dev < e.Config().Devices; dev++ {
		for _, bn := range e.Replica(dev).BatchNorms() {
			d.Checks++
			var av float32
			fused := false
			if d.Fused && !bn.MovingVar.Dirty() {
				av, fused = bn.MovingVarAbsMax()
			}
			if !fused {
				av = bn.MovingVar.AbsMax()
			}
			v := float64(av)
			if math.IsNaN(v) || v > d.Bounds.Mvar {
				if math.IsNaN(v) {
					v = math.Inf(1)
				}
				return &Alarm{
					Where: fmt.Sprintf("mvar:%s@device%d", bn.Name(), dev),
					Value: v, Bound: d.Bounds.Mvar,
				}
			}
		}
	}
	return nil
}
