// Package nn implements the neural-network layers of the training framework
// with manually written forward and backward passes.
//
// The paper's fault-injection methodology requires manual backward passes:
// "In order to inject faults to the backward pass and also correctly
// propagate the error effects, we manually implemented the backward pass for
// each DNN workload" (Artifact A.1). Every layer here therefore exposes an
// explicit Backward method; there is no autodiff tape. This also gives the
// fault injector natural interception points: the output tensor of every
// layer in the forward pass, and the input-gradient/weight-gradient tensors
// in the backward pass — exactly the tensors the Table-1 software fault
// models corrupt.
package nn

import (
	"fmt"
	"sync"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Context carries per-step execution state into the forward pass.
type Context struct {
	// Training selects batch statistics (true) vs moving statistics (false)
	// in normalization layers, and enables dropout.
	Training bool
	// Rand supplies randomness (dropout masks). The training engine derives
	// it deterministically from (seed, iteration, device) so that
	// re-execution reproduces the same masks — requirement (3) of the
	// paper's recovery technique (Sec 5.2).
	Rand *rng.Rand
	// CollectStats asks layers to accumulate output statistics (abs-max)
	// inside their forward write loops — the fused-epilogue path of Ranger
	// range checking. Layers expose the result via OutputStats; results are
	// bitwise-equal to sweeping the output afterwards.
	CollectStats bool
}

// OutputStats is implemented by layers whose forward pass can fuse an
// output abs-max reduction into its write loop (Dense, Conv2D, BatchNorm,
// ReLU). OutAbsMax returns the fused abs-max of the most recent forward
// output and whether one was collected (false when the last forward ran
// without Context.CollectStats). Consumers must fall back to a sweep when
// ok is false or when the output tensor was mutated after the forward (the
// dirty-tensor protocol).
type OutputStats interface {
	OutAbsMax() (float32, bool)
}

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	// Name is stable across runs ("conv1/kernel"); detection and ABFT key
	// their state by it.
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

func newParam(name string, shape ...int) *Param {
	p := allocParam()
	*p = Param{Name: name, Value: arenaNew(shape...), Grad: arenaNew(shape...)}
	return p
}

// paramName builds the canonical "<layer>/<role>" parameter name. The
// result is interned: pooled campaign workers rebuild structurally
// identical engines over and over, and after the first build every name
// lookup hits the cache instead of re-allocating the concatenation.
func paramName(base, role string) string {
	k := [2]string{base, role}
	nameMu.Lock()
	s, ok := nameCache[k]
	if !ok {
		s = base + "/" + role
		nameCache[k] = s
	}
	nameMu.Unlock()
	return s
}

var (
	nameMu    sync.Mutex
	nameCache = make(map[[2]string]string)
)

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module.
//
// Forward consumes the input tensor and returns the output; implementations
// cache whatever they need for Backward. Backward consumes dL/d(output) and
// returns dL/d(input), accumulating dL/d(param) into each Param's Grad.
// A Layer processes exactly one Forward/Backward pair at a time.
type Layer interface {
	// Name returns a short stable identifier used in fault-injection
	// records and reports.
	Name() string
	Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers. It is the model container the training engine
// iterates over; the fault injector addresses layers by their index in a
// Sequential.
type Sequential struct {
	Layers []*NamedLayer

	// params caches the flattened parameter list. The layer set is fixed
	// after construction, and Param structs are stable pointers, so the
	// list is computed once; callers must not mutate the returned slice.
	params []*Param
	// bns lists every BatchNorm, nested ones included, in traversal order;
	// built once by NewSequential.
	bns []*BatchNorm
}

// NamedLayer pairs a layer with its position-stable name.
type NamedLayer struct {
	Layer Layer
}

// NewSequential builds a model from layers in order.
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{Layers: make([]*NamedLayer, 0, len(layers))}
	for _, l := range layers {
		nl := allocNamed()
		nl.Layer = l
		s.Layers = append(s.Layers, nl)
	}
	s.VisitLayers(func(l Layer) {
		if bn, ok := l.(*BatchNorm); ok {
			s.bns = append(s.bns, bn)
		}
	})
	return s
}

// Len returns the number of top-level layers.
func (s *Sequential) Len() int { return len(s.Layers) }

// Params returns all parameters of all layers, in layer order. The slice is
// cached (the engine calls this on every device every iteration) and must
// be treated as read-only.
func (s *Sequential) Params() []*Param {
	if s.params == nil {
		// Per-layer Params results are themselves cached, so the counting
		// pass costs nothing extra and the flat slice is sized exactly.
		total := 0
		for _, nl := range s.Layers {
			total += len(nl.Layer.Params())
		}
		s.params = carveParams(total)
		for _, nl := range s.Layers {
			s.params = append(s.params, nl.Layer.Params()...)
		}
	}
	return s.params
}

// ZeroGrad clears all parameter gradients.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// ForwardHook observes/replaces the output of layer i during the forward
// pass. The fault injector uses it to corrupt layer outputs (Table 1 models
// 1–4 and datapath models); returning a different tensor substitutes it.
type ForwardHook func(layerIdx int, out *tensor.Tensor) *tensor.Tensor

// BackwardHook observes/replaces the input-gradient produced by layer i
// during the backward pass (Table 1 corruption of "input gradients ...
// in backward pass").
type BackwardHook func(layerIdx int, gradIn *tensor.Tensor) *tensor.Tensor

// Forward runs the full forward pass. hook may be nil.
func (s *Sequential) Forward(ctx *Context, x *tensor.Tensor, hook ForwardHook) *tensor.Tensor {
	for i, nl := range s.Layers {
		x = nl.Layer.Forward(ctx, x)
		if hook != nil {
			if replaced := hook(i, x); replaced != nil {
				x = replaced
			}
		}
	}
	return x
}

// Backward runs the full backward pass from the loss gradient. hook may be
// nil. It returns the gradient with respect to the model input (rarely
// needed, but useful in tests).
func (s *Sequential) Backward(grad *tensor.Tensor, hook BackwardHook) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Layer.Backward(grad)
		if hook != nil {
			if replaced := hook(i, grad); replaced != nil {
				grad = replaced
			}
		}
	}
	return grad
}

// Container is implemented by layers that nest other layers (Residual,
// DenseBlock). Traversals that must reach every layer — snapshotting
// normalization statistics, detector sweeps, bound derivation — recurse
// through it; walking only Sequential.Layers silently skips the nested
// ones (the paper's Observation 3 is specifically about normalization
// layers inside residual branches).
type Container interface {
	Sublayers() []Layer
}

// VisitLayers calls fn for l and, depth-first, for every layer nested in
// it through Container. The traversal order is structural and therefore
// deterministic.
func VisitLayers(l Layer, fn func(Layer)) {
	fn(l)
	if c, ok := l.(Container); ok {
		for _, sub := range c.Sublayers() {
			VisitLayers(sub, fn)
		}
	}
}

// VisitLayers applies fn to every layer of the model, including layers
// nested inside container layers.
func (s *Sequential) VisitLayers(fn func(Layer)) {
	for _, nl := range s.Layers {
		VisitLayers(nl.Layer, fn)
	}
}

// WorkspaceHolder is implemented by layers that own a kernel scratch
// Workspace (Dense, Conv2D). Traversals that manage workspace lifetimes —
// the campaign scrub invariant — reach them through it.
type WorkspaceHolder interface {
	Workspace() *tensor.Workspace
}

// ScrubWorkspaces poisons the cached scratch buffers of every layer in the
// model (including nested ones) with NaNs. Scratch contents are undefined
// between kernel calls, so scrubbing must never change results; it exists
// to prove that invariant — a stale-read bug surfaces as a loud NaN instead
// of a silent wrong number. See tensor.Workspace.Reset.
func (s *Sequential) ScrubWorkspaces() {
	s.VisitLayers(func(l Layer) {
		if wh, ok := l.(WorkspaceHolder); ok {
			wh.Workspace().Reset()
		}
	})
}

// BatchNorms returns every BatchNorm of the model in deterministic
// traversal order, including those nested inside container layers. The
// engine and the detector call it per device per iteration; the slice is
// read-only.
func (s *Sequential) BatchNorms() []*BatchNorm { return s.bns }

// LayerNames lists layer names in order, for reports.
func (s *Sequential) LayerNames() []string {
	names := make([]string, len(s.Layers))
	for i, nl := range s.Layers {
		names[i] = fmt.Sprintf("%d:%s", i, nl.Layer.Name())
	}
	return names
}

// checkRank panics with a descriptive message when a layer receives an
// input of the wrong rank. Shape errors are programming bugs, not runtime
// conditions, hence panic rather than error returns.
func checkRank(layer string, x *tensor.Tensor, rank int) {
	if len(x.Shape) != rank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", layer, rank, x.Shape))
	}
}

// checkGradRank is checkRank for the output gradient of a backward pass. The
// layer's name is joined to " backward" only on the failing branch: the
// passing one runs every iteration and must not build a string.
func checkGradRank(layer string, gradOut *tensor.Tensor, rank int) {
	if len(gradOut.Shape) != rank {
		checkRank(layer+" backward", gradOut, rank)
	}
}

// checkGradLen panics unless gradOut has as many elements as like, a tensor
// the layer's last Forward recorded with its output's element count (nil when
// there has been none): a shorter gradient would leave the tail of the reused
// input-gradient buffer as it was, a longer one index out of range.
func checkGradLen(layer string, gradOut, like *tensor.Tensor) {
	if like == nil {
		panic(fmt.Sprintf("nn: %s backward called before forward", layer))
	}
	if len(gradOut.Data) != len(like.Data) {
		panic(fmt.Sprintf("nn: %s backward expects a gradient of %d elements, got shape %v", layer, len(like.Data), gradOut.Shape))
	}
}
