package recovery

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/train"
	"repro/internal/workloads"
)

// TestHealthyReplicasHoldRootWeights: at every iteration boundary, every
// healthy replica's parameter values equal the reduction root's bit for bit.
// The training step runs each layer once over the stacked shards of its
// healthy devices on the root's weights, which is exact only while this
// holds. Every device-fault kind runs under every recovery strategy on resnet
// and transformer, through a quarantine and, where the strategy re-admits, a
// rejoin.
func TestHealthyReplicasHoldRootWeights(t *testing.T) {
	const iters = 18
	faults := []fault.DeviceFault{
		{Kind: fault.DeviceCrash, Device: 2, Iteration: 3, RepairIter: 8},
		{Kind: fault.DeviceStuckAt, Device: 5, Iteration: 4, BitPos: 30, Lane: 1, RepairIter: 9},
		{Kind: fault.DeviceLinkSDC, Device: 0, Iteration: 3, BitPos: 30, Flips: 3},
		{Kind: fault.DeviceStraggler, Device: 6, Iteration: 2, DelayTicks: 100000},
	}
	strategies := []Strategy{StrategyJIT, StrategyReexec, StrategyElastic, StrategyDegraded}
	for _, w := range []*workloads.Workload{workloads.Resnet(), workloads.Transformer()} {
		for _, s := range strategies {
			for _, f := range faults {
				e := w.NewEngine(rng.Seed{State: 41, Stream: 5})
				e.Group().Arm(f)
				g := NewGroupGuard(e)
				g.Strategy = s
				trace := train.NewTrace(w.Name)
				for iter := 0; iter < iters; iter++ {
					if err := g.Run(iter, iter+1, trace); err != nil {
						t.Fatalf("%s %v %v: %v", w.Name, s, f.Kind, err)
					}
					if trace.NonFiniteIter != -1 {
						break
					}
					root := e.Replica(e.RootDevice()).Params()
					for _, d := range e.Group().Healthy() {
						for pi, p := range e.Replica(d).Params() {
							for j, v := range p.Value.Data {
								if math.Float32bits(v) != math.Float32bits(root[pi].Value.Data[j]) {
									t.Fatalf("%s %v %v: after iteration %d device %d's %s[%d] differs from root %d's",
										w.Name, s, f.Kind, iter, d, p.Name, j, e.RootDevice())
								}
							}
						}
					}
				}
				if g.Quarantines == 0 {
					t.Fatalf("%s %v %v: nothing was quarantined", w.Name, s, f.Kind)
				}
				if s != StrategyDegraded && f.RepairIter > 0 && g.Rejoins == 0 && g.Readmits == 0 {
					t.Fatalf("%s %v %v: the repaired device never rejoined", w.Name, s, f.Kind)
				}
			}
		}
	}
}
