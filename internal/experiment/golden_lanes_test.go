package experiment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/recovery"
	"repro/internal/workloads"
)

// goldenSections serializes everything a Golden holds that experiments read,
// one byte string per part, floats by their bits.
func goldenSections(g *Golden) map[string][]byte {
	out := map[string][]byte{}
	put := func(name string, vs ...any) {
		var b bytes.Buffer
		for _, v := range vs {
			switch v := v.(type) {
			case []float64:
				for _, f := range v {
					binary.Write(&b, binary.LittleEndian, math.Float64bits(f))
				}
			case []float32:
				for _, f := range v {
					binary.Write(&b, binary.LittleEndian, math.Float32bits(f))
				}
			default:
				fmt.Fprintf(&b, "%v;", v)
			}
		}
		out[name] = b.Bytes()
	}
	r := g.ref
	put("reference trace", r.TrainLoss, r.TrainAcc, r.NonFiniteIter, r.NonFiniteAt, r.Completed, []float64{g.refAcc})
	put("test curve", r.TestIters, r.TestAcc, r.TestLoss)
	put("digests", g.digests)
	put("alarms", g.alarms)
	put("group alarms", g.groupAlarms)
	put("history table", g.histAbsMax)
	put("moving-variance table", g.mvarAbsMax)
	put("shapes", g.fwdShapes, g.bwdShapes, g.wgtShapes)
	put("snapshot layout", g.bounds, g.stride, g.bytes)
	for j, s := range g.snaps {
		var vs []any
		vs = append(vs, s.Iteration)
		for _, p := range s.Params {
			vs = append(vs, p.Data)
		}
		names := make([]string, 0, len(s.OptState))
		for name := range s.OptState {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			vs = append(vs, name)
			for _, t := range s.OptState[name] {
				vs = append(vs, t.Data)
			}
		}
		for _, dev := range s.BNStats {
			for _, t := range dev {
				vs = append(vs, t.Data)
			}
		}
		put(fmt.Sprintf("snapshot %d", j), vs...)
	}
	return out
}

// TestPrepareGoldenLaneInvariant: the golden run steps its devices on
// min(Workers, GOMAXPROCS, Devices) lanes, and the Golden must be the same
// bits at every count — reference trace and test curve, state digests,
// detector alarms, the cross-replica check's verdicts (device faults on), the
// history and moving-variance tables and every snapshot — with no lane
// goroutine left running once PrepareGolden returns. GOMAXPROCS is raised to
// 8 for the test, so Workers 1, 2 and 8 step on 1, 2 and 8 lanes.
func TestPrepareGoldenLaneInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, leg := range []struct {
		model        string
		deviceFaults bool
	}{{"resnet", false}, {"transformer", true}} {
		w, err := workloads.ByName(leg.model)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workload: w, Experiments: 16, Seed: 5, HorizonMult: 1.5, SnapshotStride: 2,
			DeviceFaults: leg.deviceFaults}
		if leg.deviceFaults {
			cfg.Recovery = recovery.StrategyJIT
		}
		var want map[string][]byte
		for _, workers := range []int{1, 2, 8} {
			cfg.Workers = workers
			before := runtime.NumGoroutine()
			g := PrepareGolden(cfg)
			if len(g.ref.TestIters) == 0 || len(g.snaps) < 2 || len(g.digests) == 0 ||
				(leg.deviceFaults && len(g.groupAlarms) == 0) {
				t.Fatalf("%s: the Golden holds %d test points, %d snapshots, %d digests and %d group alarms; every part compared must be there",
					leg.model, len(g.ref.TestIters), len(g.snaps), len(g.digests), len(g.groupAlarms))
			}
			// A stopped lane's goroutine has returned from its last wait
			// but may not have run to its exit yet, however loaded the
			// host: wait for the count to fall, backing off, up to a
			// deadline no exiting goroutine comes near (goleak's approach).
			deadline := time.Now().Add(10 * time.Second)
			for wait := time.Microsecond; runtime.NumGoroutine() > before; wait = min(2*wait, 10*time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%s, %d workers: %d goroutines 10 s after PrepareGolden, %d before:\n%s",
						leg.model, workers, runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(wait)
			}
			got := goldenSections(g)
			if want == nil {
				want = got
				continue
			}
			for name, b := range want {
				if !bytes.Equal(got[name], b) {
					t.Fatalf("%s: %s differs between %d workers and 1", leg.model, name, workers)
				}
			}
		}
	}
}
