package tensor

// What the external tests of this package (package tensor_test, which may
// import the layers and the model zoo) need of its unexported side.

const WsScanMax = wsScanMax

// NumKeys returns how many keyed buffers ws holds.
func (ws *Workspace) NumKeys() int { return len(ws.bufs) }
