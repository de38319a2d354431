package train

import "repro/internal/tensor"

// LaneWorkspaces returns every lane's workspace set, lane 0's first.
func (e *Engine) LaneWorkspaces() [][]*tensor.Workspace {
	sets := make([][]*tensor.Workspace, len(e.lanes))
	for i, l := range e.lanes {
		sets[i] = l.ws
	}
	return sets
}

// EvalRows is how many examples a slice of Evaluate holds.
func (e *Engine) EvalRows() int { return e.evalRows() }
