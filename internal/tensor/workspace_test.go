package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

func TestArenaNewZeroedAndShaped(t *testing.T) {
	a := NewArena()
	x := a.New(3, 4)
	if len(x.Data) != 12 || x.Shape[0] != 3 || x.Shape[1] != 4 {
		t.Fatalf("arena tensor shape/data wrong: %v, %d elements", x.Shape, len(x.Data))
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("arena tensor not zeroed at %d: %v", i, v)
		}
	}
	if a.Bytes() != 48 {
		t.Fatalf("Bytes = %d, want 48", a.Bytes())
	}
}

func TestArenaNilReceiverHeapFallback(t *testing.T) {
	var a *Arena
	x := a.New(2, 2)
	if len(x.Data) != 4 {
		t.Fatalf("nil-arena fallback returned %d elements", len(x.Data))
	}
}

// TestArenaNeighborIsolation: carves are capped slices, so writing through
// one tensor — including appends past its length — must never touch a
// neighbor carved from the same slab.
func TestArenaNeighborIsolation(t *testing.T) {
	a := NewArena()
	x := a.New(4)
	y := a.New(4)
	for i := range x.Data {
		x.Data[i] = 1
	}
	// Shape-header rewrite growing the rank (Workspace.Get does this) must
	// reallocate off-slab, not clobber y's shape storage.
	x.Shape = append(x.Shape[:0], 2, 2)
	// Data append past the cap must reallocate too.
	_ = append(x.Data, 9, 9)
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("neighbor data clobbered at %d: %v", i, v)
		}
	}
	if y.Shape[0] != 4 {
		t.Fatalf("neighbor shape clobbered: %v", y.Shape)
	}
}

func TestArenaLargeAllocation(t *testing.T) {
	a := NewArena()
	big := a.New(arenaDataSlab + 100) // exceeds one slab
	small := a.New(8)                 // next carve starts a fresh slab
	big.Data[0] = 5
	if small.Data[0] != 0 {
		t.Fatal("slab overflow allocation aliases the next carve")
	}
}

func TestWorkspaceArenaBacking(t *testing.T) {
	a := NewArena()
	ws := NewWorkspaceIn(a)
	x := ws.Get("x", 4, 4)
	if a.Bytes() != 64 {
		t.Fatalf("first Get did not carve from the arena: Bytes = %d", a.Bytes())
	}
	// Same-size Get reuses the arena buffer.
	x2 := ws.Get("x", 2, 8)
	if &x.Data[0] != &x2.Data[0] {
		t.Fatal("same-size Get did not reuse the arena buffer")
	}
	// Growth comes from the HEAP: the arena must not grow.
	before := a.Bytes()
	y := ws.Get("x", 5, 5)
	if a.Bytes() != before {
		t.Fatalf("resize grew the arena: %d -> %d bytes", before, a.Bytes())
	}
	if len(y.Data) != 25 {
		t.Fatalf("resized buffer has %d elements, want 25", len(y.Data))
	}
}

// TestWorkspaceResetPoison pins the scrub invariant: Reset must NaN-fill
// every cached buffer (so stale-state reads surface loudly) while keeping
// the buffers themselves alive for reuse.
func TestWorkspaceResetPoison(t *testing.T) {
	for _, arena := range []*Arena{nil, NewArena()} {
		ws := NewWorkspaceIn(arena)
		x := ws.Get("x", 3)
		for i := range x.Data {
			x.Data[i] = float32(i)
		}
		ws.Reset()
		for i, v := range x.Data {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("Reset left element %d = %v, want NaN", i, v)
			}
		}
		// The buffer must survive the scrub (reuse, not reallocation).
		x2 := ws.Get("x", 3)
		if &x.Data[0] != &x2.Data[0] {
			t.Fatal("Reset dropped the cached buffer")
		}
		// The poison covers the capacity a smaller Get leaves unaddressed: the
		// next larger Get reslices into it.
		ws.Get("x", 1)
		ws.Reset()
		for i, v := range ws.Get("x", 3).Data {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("Reset left element %d = %v beyond the current extent, want NaN", i, v)
			}
		}
	}
	// Nil workspace: no-op, no panic.
	var nilWS *Workspace
	nilWS.Reset()
}

// TestWorkspaceKeyOrder: Get starts its scan behind the previous hit, which
// may not matter to what it finds — each key keeps its own buffer whatever
// order the keys are asked for in, equal keys built at run time included, and
// Reset reaches every buffer.
func TestWorkspaceKeyOrder(t *testing.T) {
	for _, nKeys := range []int{1, 4, wsScanMax} {
		ws := NewWorkspace()
		keys := make([]string, nKeys)
		first := map[string]*float32{}
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i*i)
			first[keys[i]] = &ws.Get(keys[i], 2).Data[0]
		}
		r := rng.NewFromInt(int64(nKeys))
		for trial := 0; trial < 200; trial++ {
			i := r.Intn(nKeys)
			if trial%3 == 0 {
				i = trial / 3 % nKeys // ascending stretches, and repeats
			}
			k := string(append([]byte(nil), keys[i]...)) // equal, not identical
			if got := &ws.Get(k, 2).Data[0]; got != first[keys[i]] {
				t.Fatalf("%d keys: Get(%q) returned another key's buffer", nKeys, k)
			}
		}
		if len(ws.bufs) != nKeys {
			t.Fatalf("workspace holds %d buffers for %d keys", len(ws.bufs), nKeys)
		}
		ws.Reset()
		for _, k := range keys {
			if v := ws.Get(k, 2).Data[1]; v == v {
				t.Fatalf("%d keys: Reset did not poison %q", nKeys, k)
			}
		}
	}
}
