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

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Context carries per-step execution state into the forward pass.
type Context struct {
	// Training selects batch statistics (true) vs moving statistics (false)
	// in normalization layers.
	Training bool
	// Rand supplies randomness to a layer that draws it. No layer of this
	// package does, and the training engine leaves it nil.
	Rand *rng.Rand
}

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	// Name is stable across runs ("conv1/kernel"); detection and ABFT key
	// their state by it.
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// newParam creates a zeroed parameter named "<layer>/<role>".
func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module.
//
// Forward consumes the input tensor and returns the output; implementations
// cache whatever they need for Backward. Backward consumes dL/d(output) and
// returns dL/d(input), accumulating dL/d(param) into each Param's Grad.
// A Layer processes exactly one Forward/Backward pair at a time.
type Layer interface {
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
	// bns lists every BatchNorm, nested ones included, in traversal order,
	// and holders every WorkspaceHolder; both built once by NewSequential.
	bns     []*BatchNorm
	holders []WorkspaceHolder
}

// NamedLayer is one entry of Sequential.Layers: a wrapper around one Layer,
// which is all it holds (it carries no name). Sequential.Layers could be a
// []Layer; the wrapper stays while the benchmark harness reads nl.Layer.
type NamedLayer struct {
	Layer Layer
}

// NewSequential builds a model from layers in order.
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{Layers: make([]*NamedLayer, 0, len(layers))}
	for _, l := range layers {
		s.Layers = append(s.Layers, &NamedLayer{Layer: l})
	}
	s.VisitLayers(func(l Layer) {
		if bn, ok := l.(*BatchNorm); ok {
			s.bns = append(s.bns, bn)
		}
		if wh, ok := l.(WorkspaceHolder); ok {
			s.holders = append(s.holders, wh)
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
		s.params = make([]*Param, 0, total)
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
	return s.backward(grad, hook, 0)
}

// paramGrader is implemented by layers that can accumulate their parameter
// gradients without forming their input gradient (Conv2D, Dense, SeqDense):
// the accumulation is Backward's, bit for bit, and the layer's returned
// gradient is simply never computed.
type paramGrader interface {
	BackwardParams(gradOut *tensor.Tensor)
}

// BackwardParams is Backward for a caller that discards the gradient with
// respect to the model input (the training engine): with no hook, a first
// layer that is a paramGrader accumulates only its parameter gradients, so
// the input gradient nothing reads is never formed. With a hook, which may
// read or replace the first layer's input gradient, it is Backward. Every
// parameter gradient is Backward's bit for bit.
func (s *Sequential) BackwardParams(grad *tensor.Tensor, hook BackwardHook) {
	if len(s.Layers) == 0 {
		return
	}
	if first, ok := s.Layers[0].Layer.(paramGrader); ok && hook == nil {
		first.BackwardParams(s.backward(grad, nil, 1))
		return
	}
	s.backward(grad, hook, 0)
}

// backward runs layers len-1 down to stop and returns the gradient with
// respect to layer stop's input.
func (s *Sequential) backward(grad *tensor.Tensor, hook BackwardHook, stop int) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= stop; i-- {
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
// Workspace (Dense, Conv2D, ...). Traversals that manage workspace lifetimes
// — the campaign scrub invariant, BuildReplicas' binding — reach them
// through it.
type WorkspaceHolder interface {
	Workspace() *tensor.Workspace
	// SetWorkspace replaces the layer's workspace.
	SetWorkspace(*tensor.Workspace)
}

// BuildReplicas calls build n times and binds the n models to one scratch
// set: each later model's WorkspaceHolders, in VisitLayers order, are
// pointed at the first model's workspaces. Each model keeps its own
// parameters, gradients, normalization statistics and the fields a layer
// carries from its forward to its backward; only kernel scratch is shared.
// That is sound for a caller that never overlaps two models' passes on one
// scratch set and reads no layer's scratch after its pass (train.Engine
// binds a replica to a lane's set before stepping it, and a lane steps one
// device at a time; see BindWorkspaces). build must construct the same
// layers every call; a model with a different number of workspaces than the
// first panics.
func BuildReplicas(n int, build func() *Sequential) []*Sequential {
	models := make([]*Sequential, n)
	var first []*tensor.Workspace
	for i := range models {
		models[i] = build()
		if i == 0 {
			first = models[0].Workspaces()
			continue
		}
		if len(models[i].holders) != len(first) {
			panic(fmt.Sprintf("nn: replica %d has %d workspaces, the first %d", i, len(models[i].holders), len(first)))
		}
		models[i].BindWorkspaces(first)
	}
	return models
}

// Workspaces returns the workspaces the model's WorkspaceHolders hold now,
// in VisitLayers order: a scratch set BindWorkspaces can bind another
// replica of the same model to.
func (s *Sequential) Workspaces() []*tensor.Workspace {
	ws := make([]*tensor.Workspace, len(s.holders))
	for i, h := range s.holders {
		ws[i] = h.Workspace()
	}
	return ws
}

// BindWorkspaces points the model's WorkspaceHolders, in VisitLayers order,
// at set, which must come from Workspaces of a model built the same way. It
// allocates nothing, so a caller may rebind a model before every pass.
func (s *Sequential) BindWorkspaces(set []*tensor.Workspace) {
	if len(set) != len(s.holders) {
		panic(fmt.Sprintf("nn: binding %d workspaces to a model with %d", len(set), len(s.holders)))
	}
	for i, h := range s.holders {
		h.SetWorkspace(set[i])
	}
}

// BatchNorms returns every BatchNorm of the model in deterministic
// traversal order, including those nested inside container layers. The
// engine and the detector call it per device per iteration; the slice is
// read-only.
func (s *Sequential) BatchNorms() []*BatchNorm { return s.bns }

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
