package tensor_test

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workloads"
)

// TestWorkspaceKeysWithinScan: Workspace.Get finds a key by scanning, which is
// only right while a layer's key set is a fixed handful. After a training
// iteration and an evaluation pass of every workload of the zoo (and the
// mixed-precision resnet), no layer's workspace holds more than wsScanMax
// keys — a layer that keyed its buffers by batch element would show here.
func TestWorkspaceKeysWithinScan(t *testing.T) {
	for _, w := range append(workloads.All(), workloads.ResnetMixed()) {
		e := w.NewEngine(rng.Seed{State: 5, Stream: 1})
		e.RunIteration(0)
		e.Evaluate(0)
		holders := 0
		e.Replica(0).VisitLayers(func(l nn.Layer) {
			wh, ok := l.(nn.WorkspaceHolder)
			if !ok {
				return
			}
			holders++
			if n := wh.Workspace().NumKeys(); n > tensor.WsScanMax {
				t.Errorf("%s: layer %s holds %d workspace keys, more than the %d Get is meant to scan", w.Name, l.Name(), n, tensor.WsScanMax)
			}
		})
		if holders == 0 {
			t.Errorf("%s: no layer with a workspace was visited", w.Name)
		}
	}
}
