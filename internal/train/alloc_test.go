package train_test

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// TestRunIterationAllocatesNothingPerDevice: a steady-state fault-free
// iteration allocates steadyAllocs objects, none of them per device: the
// group's two healthy-device lists (comm.Group.Healthy). The collective's
// report lives in the group's own buffers. Nothing in the device
// step allocates — in particular not the layer context, the two generators of
// the (seed, iteration, device) stream, or the batch shard's header and shape
// (7 objects a device when they were built per step) — and neither does the
// loader, which draws an epoch's permutation once, into its own buffer.
func TestRunIterationAllocatesNothingPerDevice(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const steadyAllocs = 2
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

// TestDeviceFaultAllReduceAllocatesNothing: on a device-fault engine that
// collects signatures, as a device-fault campaign's reference engine does,
// with a stuck-at lane corrupting one device's contribution and a straggler
// spending a retry every iteration, the collective allocates nothing in
// steady state: its Arrived, Failed and Sigs are the group's buffers,
// reused by the next AllReduce. The iteration's allocations stay the two
// healthy-device lists.
func TestDeviceFaultAllReduceAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w, err := workloads.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	e := w.NewEngine(rng.Seed{State: 32, Stream: 78})
	g := e.Group()
	g.SetCollectSigs(true)
	g.Arm(fault.DeviceFault{Kind: fault.DeviceStuckAt, Device: 1, BitPos: 2, Lane: 3})
	g.Arm(fault.DeviceFault{Kind: fault.DeviceStraggler, Device: 2, DelayTicks: 150})
	e.RunIteration(0)
	if red := e.LastReduce(); red.Sigs == nil || red.Retries == 0 || len(red.Arrived) != w.Devices {
		t.Fatalf("the faults did not shape the step: %+v", red)
	}
	iter := 1
	if allocs := testing.AllocsPerRun(10, func() {
		e.RunIteration(iter)
		iter++
	}); allocs > 2 {
		t.Fatalf("RunIteration with signatures and device faults allocates %.1f objects, want at most 2", allocs)
	}
}
