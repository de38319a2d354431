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
				t.Errorf("%s: layer %T holds %d workspace keys, more than the %d Get is meant to scan", w.Name, l, n, tensor.WsScanMax)
			}
		})
		if holders == 0 {
			t.Errorf("%s: no layer with a workspace was visited", w.Name)
		}
	}
}

// workspaces lists the workspaces of m's layers, nested ones included, in
// traversal order.
func workspaces(m *nn.Sequential) []*tensor.Workspace {
	var out []*tensor.Workspace
	m.VisitLayers(func(l nn.Layer) {
		if wh, ok := l.(nn.WorkspaceHolder); ok {
			out = append(out, wh.Workspace())
		}
	})
	return out
}

// TestReplicasShareOneScratchSet: an engine's memory is one replica's
// scratch. On every zoo workload, after an iteration every replica's layers
// hold replica 0's workspaces, and the first evaluation after it grows none
// of them: evaluation runs at the device batch, so the scratch training
// sized is all the engine ever holds.
func TestReplicasShareOneScratchSet(t *testing.T) {
	for _, w := range append(workloads.All(), workloads.ResnetMixed()) {
		t.Run(w.Name, func(t *testing.T) {
			e := w.NewEngine(rng.Seed{State: 5, Stream: 1})
			e.RunIteration(0)
			want := workspaces(e.Replica(0))
			if len(want) == 0 {
				t.Fatal("no layer with a workspace was visited")
			}
			for d := 1; d < w.Devices; d++ {
				got := workspaces(e.Replica(d))
				if len(got) != len(want) {
					t.Fatalf("replica %d has %d workspaces, replica 0 %d", d, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("replica %d: workspace %d is its own, not replica 0's", d, i)
					}
				}
			}
			floats := func() (n int) {
				for _, ws := range want {
					n += ws.Floats()
				}
				return n
			}
			before := floats()
			e.Evaluate(e.RootDevice())
			if after := floats(); after != before {
				t.Fatalf("the first Evaluate grew the scratch from %d to %d floats", before, after)
			}
		})
	}
}
