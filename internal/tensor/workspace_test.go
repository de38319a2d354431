package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// TestWorkspaceResetPoison pins the scrub invariant: Reset must NaN-fill
// every cached buffer (so stale-state reads surface loudly) while keeping
// the buffers themselves alive for reuse.
func TestWorkspaceResetPoison(t *testing.T) {
	ws := NewWorkspace()
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
