package tensor

// What the external tests of this package (package tensor_test, which may
// import the layers and the model zoo) need of its unexported side.

const WsScanMax = wsScanMax

// NumKeys returns how many keyed buffers ws holds.
func (ws *Workspace) NumKeys() int { return len(ws.bufs) }

// Floats returns how many float32s ws's buffers hold, each at its full
// capacity: the scratch memory the workspace keeps alive.
func (ws *Workspace) Floats() int {
	n := 0
	for _, b := range ws.bufs {
		n += cap(b.t.Data)
	}
	return n
}
