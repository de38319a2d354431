package train_test

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/workloads"
)

// TestRunIterationAllocatesNothingPerDevice: a steady-state fault-free
// iteration allocates fewer objects than the engine has devices, so nothing
// in the device step allocates — in particular not the three things it used
// to build per device per iteration (the layer context, the two generators of
// the (seed, iteration, device) stream, the batch shard's header and shape:
// 7 objects a device, 56 of an iteration's 66). Device-parallel stepping adds
// only its goroutine fan-out, which is measured against a serial twin.
func TestRunIterationAllocatesNothingPerDevice(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, wl := range []string{"resnet", "transformer"} {
		w, err := workloads.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		measure := func(parallel bool) float64 {
			e := w.NewEngine(rng.Seed{State: 31, Stream: 77})
			e.SetDeviceParallel(parallel)
			e.RunIteration(0) // workspaces and optimizer history are built here
			iter := 1
			return testing.AllocsPerRun(10, func() {
				e.RunIteration(iter)
				iter++
			})
		}
		serial := measure(false)
		if serial >= float64(w.Devices) {
			t.Fatalf("%s: RunIteration allocates %.0f objects on %d devices; something allocates per device again", wl, serial, w.Devices)
		}
		// One goroutine and one closure per device, and the WaitGroup.
		if parallel, fanOut := measure(true), float64(2*w.Devices+1); parallel > serial+fanOut {
			t.Fatalf("%s: device-parallel RunIteration allocates %.0f objects, serial %.0f + fan-out %.0f", wl, parallel, serial, fanOut)
		}
	}
}
