// Arena-backed model construction.
//
// Campaign workers build (and pool) whole engines; the dominant build cost
// is the hundreds of small tensor allocations the layer constructors make.
// BuildIn lets a caller route ALL of them — parameter values and gradients,
// normalization statistics, layer workspaces — into one tensor.Arena, so an
// engine's state lands in a few contiguous slabs.
//
// The arena hook is installed process-globally for the duration of one
// build: constructors keep their signatures (workload builders call them
// directly), and BuildIn serializes concurrent builds with a mutex so two
// engines can never interleave allocations into each other's arena. The
// pointer itself is atomic, making the hand-off safe even against stray
// concurrent constructor calls outside BuildIn (those simply see nil and
// allocate from the heap, the historical behavior).
package nn

import (
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

var (
	buildMu    sync.Mutex
	buildArena atomic.Pointer[tensor.Arena]
	slabs      atomic.Pointer[buildSlabs]

	// Slab continuity across the replicas of one engine: train.New calls
	// BuildIn once per replica with the same arena, and reusing the slab
	// remainders avoids re-carving fresh backing arrays eight times per
	// engine. Guarded by buildMu.
	slabArena *tensor.Arena
	slabSet   *buildSlabs
)

// typedSlab batches heap objects of one concrete type: constructors inside
// BuildIn carve structs out of shared backing arrays (64 at a time) instead
// of allocating each one individually. Slabs are per-build, so one engine's
// structs never pin another engine's memory.
type typedSlab[T any] struct{ buf []T }

func (s *typedSlab[T]) alloc() *T {
	if len(s.buf) == 0 {
		s.buf = make([]T, 128)
	}
	p := &s.buf[0]
	s.buf = s.buf[1:]
	return p
}

// carve returns an empty slice with capacity n, capped at its own extent so
// appends past n reallocate instead of clobbering the next carve.
func (s *typedSlab[T]) carve(n int) []T {
	if len(s.buf) < n {
		s.buf = make([]T, max(64, n))
	}
	out := s.buf[0:0:n]
	s.buf = s.buf[n:]
	return out
}

// buildSlabs groups the struct slabs of one arena build: the high-count
// allocations of an engine build after tensor storage itself (Param and
// layer structs, NamedLayer wrappers, cached parameter-list backing).
type buildSlabs struct {
	params typedSlab[Param]
	prefs  typedSlab[*Param]
	named  typedSlab[NamedLayer]
	dense  typedSlab[Dense]
	conv   typedSlab[Conv2D]
	bn     typedSlab[BatchNorm]
	relu   typedSlab[ReLU]
}

func allocParam() *Param {
	if s := slabs.Load(); s != nil {
		return s.params.alloc()
	}
	return new(Param)
}

// carveParams returns an empty []*Param with capacity n for a Params()
// cache, slab-backed during a build.
func carveParams(n int) []*Param {
	if s := slabs.Load(); s != nil {
		return s.prefs.carve(n)
	}
	return make([]*Param, 0, n)
}

func allocNamed() *NamedLayer {
	if s := slabs.Load(); s != nil {
		return s.named.alloc()
	}
	return new(NamedLayer)
}

func allocDense() *Dense {
	if s := slabs.Load(); s != nil {
		return s.dense.alloc()
	}
	return new(Dense)
}

func allocConv2D() *Conv2D {
	if s := slabs.Load(); s != nil {
		return s.conv.alloc()
	}
	return new(Conv2D)
}

func allocBatchNorm() *BatchNorm {
	if s := slabs.Load(); s != nil {
		return s.bn.alloc()
	}
	return new(BatchNorm)
}

func allocReLU() *ReLU {
	if s := slabs.Load(); s != nil {
		return s.relu.alloc()
	}
	return new(ReLU)
}

// BuildIn runs build with every layer constructor drawing tensor storage
// from a, and returns its result. Builds are serialized process-wide;
// tensors created by constructors invoked outside any BuildIn always come
// from the heap. Arena-built and heap-built models are bitwise-identical in
// every value — only the storage placement differs.
func BuildIn(a *tensor.Arena, build func() *Sequential) *Sequential {
	buildMu.Lock()
	defer buildMu.Unlock()
	buildArena.Store(a)
	defer buildArena.Store(nil)
	if slabArena != a {
		slabArena, slabSet = a, &buildSlabs{}
	}
	slabs.Store(slabSet)
	defer slabs.Store(nil)
	m := build()
	if m != nil {
		// Populate the Params() caches while the slabs are still active, so
		// the cache backing joins the build's slabs too.
		m.Params()
	}
	return m
}

// arenaNew allocates tensor storage for a layer under construction: from
// the active build arena inside BuildIn, from the heap otherwise.
func arenaNew(shape ...int) *tensor.Tensor { return buildArena.Load().New(shape...) }

// newWorkspace creates a layer's scratch workspace, arena-backed inside
// BuildIn so steady-state kernel buffers (and the workspace headers
// themselves) join the engine's slabs.
func newWorkspace() *tensor.Workspace {
	return buildArena.Load().NewWorkspace() // nil arena → heap workspace
}
