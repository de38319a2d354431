package train_test

// Stacks change which replica a device's shard runs on, which rows a layer
// call holds and which goroutine steps it, never a value: every iteration's
// IterStats and the engine state after it must be the bits of the step of
// one device at a time (SetLanes(Devices)), on any lane count, with the
// whole group healthy, with a device quarantined, and under the elastic
// partition — with an injection per pass fired on device 0 and a forward
// monitor that must see each device's rows as the per-device step shows
// them.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/workloads"
)

func TestStacksMatchPerDeviceStep(t *testing.T) {
	const iters = 5
	cases := []struct {
		name    string
		prepare func(e *train.Engine)
	}{
		{"healthy", func(*train.Engine) {}},
		{"quarantined", func(e *train.Engine) { e.Quarantine(3) }},
		{"elastic", func(e *train.Engine) { e.SetElastic(true); e.Quarantine(5) }},
	}
	type point struct {
		stats  train.IterStats
		digest [16]byte
	}
	for _, w := range append(workloads.All(), workloads.ResnetMixed()) {
		probe := w.NewEngine(rng.Seed{State: 17, Stream: 4})
		wgtLayer := 0
		for len(probe.Replica(0).Layers[wgtLayer].Layer.Params()) == 0 {
			wgtLayer++
		}
		injs := []fault.Injection{
			{Kind: accel.GlobalG1, LayerIdx: 1, Pass: fault.Forward, Iteration: 1, CycleFrac: 0.3, N: 2, Seed: rng.Seed{State: 5, Stream: 1}},
			{Kind: accel.GlobalG1, LayerIdx: 1, Pass: fault.BackwardInput, Iteration: 2, CycleFrac: 0.6, N: 2, Seed: rng.Seed{State: 6, Stream: 1}},
			{Kind: accel.GlobalG1, LayerIdx: wgtLayer, Pass: fault.BackwardWeight, Iteration: 3, CycleFrac: 0.5, N: 2, Seed: rng.Seed{State: 7, Stream: 1}},
		}
		for _, c := range cases {
			run := func(lanes int) ([]point, map[string]string) {
				e := w.NewEngine(rng.Seed{State: 17, Stream: 4})
				e.SetLanes(lanes)
				defer e.SetLanes(1)
				c.prepare(e)
				e.SetInjections(injs)
				seen := map[string]string{}
				points := make([]point, iters)
				for i := range points {
					// The monitor runs at one iteration only: every lane
					// count steps it on lane 0.
					if i == 1 {
						e.ForwardMonitor = func(d, li int, out *tensor.Tensor) {
							seen[fmt.Sprintf("device %d layer %d", d, li)] = viewDigest(out)
						}
					} else {
						e.ForwardMonitor = nil
					}
					points[i] = point{e.RunIteration(i), e.StateDigest()}
				}
				if want := len(e.Group().Healthy()) * e.Replica(0).Len(); len(seen) != want {
					t.Fatalf("%s %s: the monitor saw %d device-layer outputs, want %d", w.Name, c.name, len(seen), want)
				}
				return points, seen
			}
			want, wantSeen := run(w.Devices)
			if !want[1].stats.Injected || !want[2].stats.Injected || !want[3].stats.Injected {
				t.Fatalf("%s %s: an injection did not fire: %+v", w.Name, c.name, want)
			}
			for _, lanes := range []int{1, 2, 3} {
				got, gotSeen := run(lanes)
				for i := range want {
					if !reflect.DeepEqual(got[i].stats, want[i].stats) && !sameNaN(got[i].stats, want[i].stats) {
						t.Fatalf("%s %s: iteration %d on %d lanes: %+v, per device %+v", w.Name, c.name, i, lanes, got[i].stats, want[i].stats)
					}
					if got[i].digest != want[i].digest {
						t.Fatalf("%s %s: engine state after iteration %d differs between %d lanes and the per-device step", w.Name, c.name, i, lanes)
					}
				}
				if !reflect.DeepEqual(gotSeen, wantSeen) {
					t.Fatalf("%s %s: on %d lanes the monitor saw %d device-layer outputs unlike the per-device step's %d", w.Name, c.name, lanes, len(gotSeen), len(wantSeen))
				}
			}
		}
	}
}

// sameNaN reports whether a and b differ only in Loss and TrainAcc both
// being NaN, which DeepEqual calls unequal.
func sameNaN(a, b train.IterStats) bool {
	if !math.IsNaN(a.Loss) || !math.IsNaN(b.Loss) {
		return false
	}
	a.Loss, b.Loss = 0, 0
	return reflect.DeepEqual(a, b)
}

// viewDigest names a monitored output by its shape and bits.
func viewDigest(t *tensor.Tensor) string {
	h := sha256.New()
	for _, d := range t.Shape {
		binary.Write(h, binary.LittleEndian, int64(d))
	}
	for _, v := range t.Data {
		binary.Write(h, binary.LittleEndian, math.Float32bits(v))
	}
	return fmt.Sprintf("%v %x", t.Shape, h.Sum(nil)[:8])
}

// TestScrubWorkspacesPoisonsEveryLane: ScrubWorkspaces reaches every lane's
// workspace set, not only the one New bound the replicas to. A probe buffer
// taken from each workspace after lanes have stepped must read NaN after the
// scrub (Reset poisons every buffer a workspace holds).
func TestScrubWorkspacesPoisonsEveryLane(t *testing.T) {
	e := workloads.Resnet().NewEngine(rng.Seed{State: 2, Stream: 9})
	e.SetLanes(3)
	defer e.SetLanes(1)
	e.RunIteration(0)
	e.RunIteration(1)
	sets := e.LaneWorkspaces()
	if len(sets) != 3 {
		t.Fatalf("%d lanes, want 3", len(sets))
	}
	for _, set := range sets {
		for _, ws := range set {
			ws.Get("probe", 4).Fill(1)
		}
	}
	e.ScrubWorkspaces()
	for l, set := range sets {
		for j, ws := range set {
			for _, v := range ws.Get("probe", 4).Data {
				if !math.IsNaN(float64(v)) {
					t.Fatalf("lane %d: workspace %d holds %v after the scrub", l, j, v)
				}
			}
		}
	}
}
