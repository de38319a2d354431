package train_test

// Lanes change which goroutine steps a device and which scratch it steps
// over, never a value: every iteration's IterStats and the engine state after
// it must be the bits one lane gives, on any lane count, with the whole group
// healthy, with a device quarantined, and under the elastic partition.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/train"
	"repro/internal/workloads"
)

func TestLanesMatchOneLane(t *testing.T) {
	const iters = 4
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
	for _, w := range []*workloads.Workload{workloads.Resnet(), workloads.Transformer()} {
		for _, c := range cases {
			run := func(lanes int) []point {
				e := w.NewEngine(rng.Seed{State: 17, Stream: 4})
				e.SetLanes(lanes)
				defer e.SetLanes(1)
				c.prepare(e)
				points := make([]point, iters)
				for i := range points {
					points[i] = point{e.RunIteration(i), e.StateDigest()}
				}
				return points
			}
			want := run(1)
			for _, lanes := range []int{2, 3, 8} {
				got := run(lanes)
				for i := range want {
					if !reflect.DeepEqual(got[i].stats, want[i].stats) {
						t.Fatalf("%s %s: iteration %d on %d lanes: %+v, one lane %+v", w.Name, c.name, i, lanes, got[i].stats, want[i].stats)
					}
					if got[i].digest != want[i].digest {
						t.Fatalf("%s %s: engine state after iteration %d differs between %d lanes and one", w.Name, c.name, i, lanes)
					}
				}
			}
		}
	}
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
