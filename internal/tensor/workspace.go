package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Arena is a slab allocator for tensor storage. Engine construction
// allocates hundreds of small tensors (parameters, gradients, normalization
// statistics, workspace buffers); an arena carves them out of a few
// contiguous slabs instead, so a pooled campaign engine is built with a
// handful of allocations and its working set stays cache-resident across
// forked experiments.
//
// Arenas only grow — nothing is ever freed or reused until the arena itself
// becomes garbage — which is exactly right for engine lifetimes: every
// tensor allocated during a build lives as long as the engine. Callers that
// outgrow an allocation (a workspace key requested with a larger shape) must
// fall back to the heap instead (Workspace does).
//
// Alloc is mutex-protected: concurrent layers of one engine (device-parallel
// first iterations) may carve from the same arena safely. A nil *Arena is
// valid and falls back to plain heap allocation.
type Arena struct {
	mu sync.Mutex

	data []float32 // current float32 slab
	off  int
	hdrs []Tensor // current header slab
	hoff int
	ints []int // current shape slab
	ioff int
	wss  []Workspace // current workspace-header slab
	woff int

	floats int64 // total float32s ever carved, for Bytes
}

// Slab sizes: large enough that a typical engine build stays in single-digit
// slab counts, small enough that a mostly-unused trailing slab wastes little.
const (
	arenaDataSlab = 1 << 15 // float32s (128 KiB)
	arenaHdrSlab  = 64      // tensor headers
	arenaIntSlab  = 256     // shape ints
)

// NewArena creates an empty arena.
func NewArena() *Arena { return &Arena{} }

// New allocates a zero-filled tensor with the given shape out of the arena,
// with the exact semantics of the package-level New (fresh slabs are zeroed
// by construction and never reused, so the zero-fill contract holds). A nil
// receiver allocates from the heap.
func (a *Arena) New(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// A copy, so shape does not escape (see New).
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	a.mu.Lock()
	if a.hoff == len(a.hdrs) {
		a.hdrs = make([]Tensor, arenaHdrSlab)
		a.hoff = 0
	}
	t := &a.hdrs[a.hoff]
	a.hoff++
	if a.ioff+len(shape) > len(a.ints) {
		a.ints = make([]int, max(arenaIntSlab, len(shape)))
		a.ioff = 0
	}
	// Three-index slices cap every carve at its own extent: an append past
	// a tensor's length (Workspace rewrites shape headers in place) must
	// reallocate to the heap, never clobber a neighbor's storage.
	sh := a.ints[a.ioff : a.ioff+len(shape) : a.ioff+len(shape)]
	a.ioff += len(shape)
	if a.off+n > len(a.data) {
		a.data = make([]float32, max(arenaDataSlab, n))
		a.off = 0
	}
	d := a.data[a.off : a.off+n : a.off+n]
	a.off += n
	a.floats += int64(n)
	a.mu.Unlock()
	copy(sh, shape)
	t.Shape = sh
	t.Data = d
	return t
}

// Bytes returns the total tensor payload carved from the arena so far
// (header and shape storage are negligible at these sizes).
func (a *Arena) Bytes() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.floats * 4
}

// Workspace is a keyed scratch-buffer arena. Layers and kernels use it so
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
//   - Buffers only grow. A key requested with alternating sizes (the small
//     training shard, then the full test batch every TestEvery iterations)
//     keeps the larger backing array and reslices it; the heap is touched
//     once per key, when a request first exceeds the capacity.
//   - Buffer contents are undefined on return from Get; the caller must
//     overwrite every element (the Into kernels do). GetZeroed clears the
//     buffer first for accumulation uses.
//   - A Workspace is not safe for concurrent use. Device-parallel training
//     is race-free because every model replica owns its layers and each
//     layer owns its workspace.
//   - A nil *Workspace is valid and simply allocates fresh tensors,
//     preserving the original allocation behaviour.
type Workspace struct {
	// bufs holds one entry per key in first-use order. A layer's keys are a
	// handful of string constants (Attention's fifteen are the most in the
	// zoo), so Get scans them and nothing is hashed. The scan starts at
	// next, one past the previous hit: a layer asks for its keys in the same
	// order every iteration, so in steady state the first entry looked at is
	// the one wanted, and comparing a constant with itself is a length and
	// two equal pointers.
	bufs []wsBuf
	next int
	// arena, when non-nil, backs each key's FIRST allocation. Growth always
	// comes from the heap: arenas never free, so the outgrown carve would
	// stay pinned beside its replacement.
	arena *Arena
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

// NewWorkspace creates an empty arena. The key list grows on first use of
// each key, so building a model whose workspaces are never used (a pooled
// engine awaiting its first experiment) allocates nothing for it.
func NewWorkspace() *Workspace { return &Workspace{} }

// NewWorkspaceIn creates a workspace whose steady-state buffers (the first
// allocation per key) are carved from a, keeping a pooled engine's scratch
// memory in the same contiguous slabs as its parameters.
func NewWorkspaceIn(a *Arena) *Workspace {
	return &Workspace{arena: a}
}

// NewWorkspace carves an arena-backed workspace: the header comes from an
// arena slab (the key list still comes from the heap) and the steady-state
// buffers from the arena, like NewWorkspaceIn. A nil receiver falls back to
// a plain heap workspace.
func (a *Arena) NewWorkspace() *Workspace {
	if a == nil {
		return NewWorkspace()
	}
	a.mu.Lock()
	if a.woff == len(a.wss) {
		a.wss = make([]Workspace, arenaHdrSlab)
		a.woff = 0
	}
	ws := &a.wss[a.woff]
	a.woff++
	a.mu.Unlock()
	ws.arena = a
	return ws
}

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
	for k, i := 0, ws.next; k < len(ws.bufs); k, i = k+1, i+1 {
		if i >= len(ws.bufs) {
			i = 0
		}
		if ws.bufs[i].key == key {
			t, ws.next = ws.bufs[i].t, i+1
			break
		}
	}
	if t == nil {
		t = ws.arena.New(shape...) // nil arena → heap
		ws.bufs = append(ws.bufs, wsBuf{key, t})
		return t
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n <= cap(t.Data) {
		t.Data = t.Data[:n]
	} else {
		t.Data = make([]float32, n)
	}
	t.Shape = append(t.Shape[:0], shape...)
	return t
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

// GetZeroed is Get with the returned buffer cleared to zero.
func (ws *Workspace) GetZeroed(key string, shape ...int) *Tensor {
	t := ws.Get(key, shape...)
	t.Zero()
	return t
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
