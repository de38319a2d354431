package train_test

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/workloads"
)

// TestRunIterationAllocatesNothingPerDevice: a steady-state fault-free
// iteration allocates steadyAllocs objects, none of them per device: the
// collective's two healthy-device lists and its report. Nothing in the device
// step allocates — in particular not the layer context, the two generators of
// the (seed, iteration, device) stream, or the batch shard's header and shape
// (7 objects a device when they were built per step) — and neither does the
// loader, which draws an epoch's permutation once, into its own buffer.
func TestRunIterationAllocatesNothingPerDevice(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const steadyAllocs = 3
	for _, wl := range []string{"resnet", "transformer"} {
		w, err := workloads.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		e := w.NewEngine(rng.Seed{State: 31, Stream: 77})
		e.RunIteration(0) // workspaces and optimizer history are built here
		iter := 1
		if allocs := testing.AllocsPerRun(10, func() {
			e.RunIteration(iter)
			iter++
		}); allocs > steadyAllocs {
			t.Fatalf("%s: RunIteration allocates %.1f objects on %d devices, want at most %d", wl, allocs, w.Devices, steadyAllocs)
		}
	}
}
