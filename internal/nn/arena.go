// Arena-backed model construction.
//
// Campaign workers build (and pool) whole engines; the dominant build cost
// is the hundreds of small tensor allocations the layer constructors make.
// BuildReplicas routes ALL of them — parameter values and gradients,
// normalization statistics, layer workspaces — into one tensor.Arena, so an
// engine's state lands in a few contiguous slabs, and binds the engine's
// replicas to one scratch set: the first replica's layer workspaces.
//
// The arena and scratch hooks are installed process-globally for the
// duration of one build: constructors keep their signatures (workload
// builders call them directly), and builds are serialized with a mutex so
// two engines can never interleave allocations into each other's arena or
// workspaces into each other's scratch set. The pointers themselves are
// atomic, so a constructor called while no build runs, on any goroutine,
// sees nil and allocates from the heap, the historical behavior.
package nn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

var (
	buildMu    sync.Mutex
	buildArena atomic.Pointer[tensor.Arena]
	slabs      atomic.Pointer[buildSlabs]
	// buildScratch is the workspace set of the running BuildReplicas; nil
	// outside one.
	buildScratch atomic.Pointer[scratchSet]

	// Slab continuity across builds into one arena: reusing the slab
	// remainders avoids re-carving fresh backing arrays per replica.
	// Guarded by buildMu.
	slabArena *tensor.Arena
	slabSet   *buildSlabs
)

// typedSlab batches heap objects of one concrete type: constructors inside
// BuildReplicas carve structs out of shared backing arrays (64 at a time) instead
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

// BuildReplicas runs build n times with every layer constructor drawing
// tensor storage from a, and returns the n models. Builds are serialized
// process-wide; tensors created by constructors invoked while no build runs
// come from the heap. Arena-built and heap-built models are bitwise-identical
// in every value — only the storage placement differs.
//
// The models are bound to one scratch set: the first model's layers get
// fresh workspaces, and every later model's layers get the first model's, in
// construction order. Each model keeps its own parameters, gradients,
// normalization statistics and the fields a layer carries from its forward
// to its backward; only kernel scratch is shared. That is sound for a caller
// that never overlaps two models' passes and reads no layer's scratch after
// its pass (train.Engine steps its devices one at a time). build must
// construct the same layers every call; a model that asks for a different
// number of workspaces than the first panics.
func BuildReplicas(a *tensor.Arena, n int, build func() *Sequential) []*Sequential {
	buildMu.Lock()
	defer buildMu.Unlock()
	buildArena.Store(a)
	defer buildArena.Store(nil)
	if slabArena != a {
		slabArena, slabSet = a, &buildSlabs{}
	}
	slabs.Store(slabSet)
	defer slabs.Store(nil)
	set := &scratchSet{}
	buildScratch.Store(set)
	defer buildScratch.Store(nil)
	models := make([]*Sequential, n)
	for i := range models {
		set.next = 0
		m := build()
		if i > 0 && set.next != len(set.wss) {
			panic(fmt.Sprintf("nn: replica %d built %d workspaces, the first %d", i, set.next, len(set.wss)))
		}
		set.replay = true
		if m != nil {
			// Populate the Params() caches while the slabs are still
			// active, so the cache backing joins the build's slabs too.
			m.Params()
		}
		models[i] = m
	}
	return models
}

// scratchSet is the workspaces of one BuildReplicas call: recorded in
// construction order by the first model's build, handed out again in that
// order to every later model's, next counting the ones handed out.
type scratchSet struct {
	wss    []*tensor.Workspace
	next   int
	replay bool
}

// arenaNew allocates tensor storage for a layer under construction: from
// the active build arena inside BuildReplicas, from the heap otherwise.
func arenaNew(shape ...int) *tensor.Tensor { return buildArena.Load().New(shape...) }

// newWorkspace creates a layer's scratch workspace, arena-backed inside
// BuildReplicas so steady-state kernel buffers (and the workspace headers
// themselves) join the engine's slabs; every model after the first gets the
// first model's workspace for the same constructor call.
func newWorkspace() *tensor.Workspace {
	set := buildScratch.Load()
	if set == nil {
		return tensor.NewWorkspace() // outside any build: heap
	}
	if set.replay {
		if set.next == len(set.wss) {
			panic(fmt.Sprintf("nn: a replica builds more than the first model's %d workspaces", len(set.wss)))
		}
		ws := set.wss[set.next]
		set.next++
		return ws
	}
	ws := buildArena.Load().NewWorkspace()
	set.wss = append(set.wss, ws)
	return ws
}
