package tensor

import (
	"fmt"
	"math"
)

// Workspace is a keyed set of scratch buffers. Layers and kernels use it so
// that steady-state training iterations allocate nothing: the first call
// for a key allocates, and every later call returns the same buffer,
// resliced to the requested size.
//
// Lifetime rules:
//
//   - Get(key, ...) returns a buffer that stays valid until the next Get
//     with the same key. Callers therefore use one workspace per layer (or
//     per logical operation) and distinct keys for buffers that are alive
//     simultaneously.
//   - The next Get with the same key rewrites the SAME tensor header — its
//     shape and, when the size differs, its Data — so a holder of the
//     earlier result sees the new extent. Nothing may be held across a
//     same-key Get, same size or not.
//   - Buffers only grow. A key requested with alternating sizes (a device's
//     training shard, then an elastic shard re-balanced over fewer devices,
//     or the short last slice of the test set) keeps the larger backing
//     array and reslices it; the heap is touched once per key, when a
//     request first exceeds the capacity.
//   - Buffer contents are undefined on return from Get; the caller must
//     overwrite every element (the Into kernels do).
//   - A Workspace is not safe for concurrent use. The replicas of one
//     engine share their layers' workspaces per lane (train.New,
//     train.Engine.SetLanes): a lane binds a replica to its own set before
//     stepping a stack of devices on it and steps one stack at a time, each
//     stack's forward and backward finishing before the lane's next stack
//     starts, so nothing reads a buffer another stack wrote.
//   - A nil *Workspace is valid and simply allocates fresh tensors,
//     preserving the original allocation behaviour.
type Workspace struct {
	// bufs holds one entry per key in first-use order. A layer's keys are a
	// handful of string constants (Attention's thirteen are the most in the
	// zoo, and it looks them up only when it resolves them anew), so Get
	// scans them and nothing is hashed. It looks at the previous hit first
	// (a key asked for twice in a row), then scans from next, one past it: a
	// layer asks
	// for its keys in the same order every iteration, so in steady state one
	// of the first two entries looked at is the one wanted, and comparing a
	// constant with itself is a length and two equal pointers.
	bufs []wsBuf
	next int
	// gen counts the Gets that gave a buffer another shape (Generation).
	gen uint64
	// view is the header reshaped hands out: one reusable alias of a
	// caller's tensor. It is not in bufs, so Reset never poisons through it.
	view Tensor
}

// wsBuf is one keyed buffer of a Workspace.
type wsBuf struct {
	key string
	t   *Tensor
}

// wsScanMax is the most keys a workspace is meant to hold, Get's scan being
// cheaper than a hash up to about there. Nothing enforces it at run time;
// TestWorkspaceKeysWithinScan holds every layer of the model zoo to it.
const wsScanMax = 16

// NewWorkspace creates an empty workspace. The key list grows on first use of
// each key, so building a model whose workspaces are never used (a pooled
// engine awaiting its first experiment) allocates nothing for it.
func NewWorkspace() *Workspace { return &Workspace{} }

// Get returns the cached tensor for key with the requested shape, growing
// its backing array only when the element count exceeds the capacity. The
// shape header is rewritten in place, so steady-state calls — including
// ones that alternate between sizes — perform zero allocations. Contents are
// undefined; the caller must overwrite them.
func (ws *Workspace) Get(key string, shape ...int) *Tensor {
	if ws == nil {
		return New(shape...)
	}
	var t *Tensor
	if p := ws.next - 1; p >= 0 && ws.bufs[p].key == key {
		t = ws.bufs[p].t // the previous hit again: a key asked for twice in a row
	}
	for k, i := 0, ws.next; t == nil && k < len(ws.bufs); k, i = k+1, i+1 {
		if i >= len(ws.bufs) {
			i = 0
		}
		if ws.bufs[i].key == key {
			t, ws.next = ws.bufs[i].t, i+1
		}
	}
	if t == nil {
		t = New(shape...)
		ws.bufs = append(ws.bufs, wsBuf{key, t})
		return t
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(t.Data) == n && sameDims(t.Shape, shape) {
		return t
	}
	if n <= cap(t.Data) {
		t.Data = t.Data[:n]
	} else {
		t.Data = make([]float32, n)
	}
	t.Shape = append(t.Shape[:0], shape...)
	ws.gen++
	return t
}

// Generation changes whenever a Get gives one of ws's buffers another shape,
// and with it maybe another backing array. A layer that resolves its buffers
// once (nn.Attention) and keeps them, and views into them, across calls may
// do so only while the generation it resolved them at is current: with the
// generation unchanged, every key still names the tensor, the shape and the
// memory it did then. A nil workspace allocates on every Get; its generation
// is always 0.
func (ws *Workspace) Generation() uint64 {
	if ws == nil {
		return 0
	}
	return ws.gen
}

func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reshaped is t.Reshape(shape...) through the workspace's one reusable
// header, so a kernel that needs a tensor under another shape every call (the
// convolution kernel as a [K, C·KH·KW] matrix) allocates no header in steady
// state. The view is valid until the next reshaped call on ws. A nil
// workspace allocates, like Reshape.
func (ws *Workspace) reshaped(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		// Format a copy, so shape does not escape (see New).
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), append([]int(nil), shape...)))
	}
	if ws == nil {
		return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
	}
	ws.view.Shape = append(ws.view.Shape[:0], shape...)
	ws.view.Data = t.Data
	return &ws.view
}

// Reset poisons every cached buffer — its whole capacity, in first-use order
// of the keys — with NaNs and marks it dirty, without dropping the buffers
// themselves (the next Get still reuses them). Buffer contents are undefined
// between Gets — every consumer must fully overwrite before reading — so a
// Reset between pooled-engine experiments must not change any result; if
// stale workspace state ever leaked across a reuse, the poison would surface
// it as a loud NaN. The campaign scrub invariant
// (experiment.Config.ScrubWorkspaces) is built on this.
func (ws *Workspace) Reset() {
	if ws == nil {
		return
	}
	nan := float32(math.NaN())
	for _, b := range ws.bufs {
		// The full capacity, not just the current extent: a later, larger
		// Get reslices into the part a smaller one left behind.
		full := b.t.Data[:cap(b.t.Data)]
		for i := range full {
			full[i] = nan
		}
		b.t.MarkDirty()
	}
}
