package baseline

import (
	"math"

	"repro/internal/numerics"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Ranger implements activation range restriction (Sec 6's "bound the
// activation outputs" family): it profiles the maximum absolute activation
// per layer during clean training, then flags any activation exceeding the
// profiled bound times a margin.
//
// The paper's finding that this approach "can only detect a small fraction
// (33.7% ...) of all latent unexpected outcomes" follows structurally:
// faults injected into the backward pass corrupt gradients and optimizer
// history without ever producing an out-of-range forward activation, so an
// activation monitor cannot see them.
//
// A Ranger belongs to one engine: its checks and SetIteration run on the
// goroutine that runs the engine's iterations.
type Ranger struct {
	// Bounds[layer] is the profiled max |activation| for each layer.
	Bounds []float64
	// Margin scales the bounds before checking.
	Margin float64
	// Alarms counts out-of-range observations.
	Alarms int64
	// firstAlarm is the first iteration an alarm fired (-1 if none).
	firstAlarm int

	iter int
}

// NewRanger creates an unprofiled monitor for a model with numLayers
// top-level layers.
func NewRanger(numLayers int, margin float64) *Ranger {
	return &Ranger{Bounds: make([]float64, numLayers), Margin: margin, firstAlarm: -1}
}

// Profile observes clean activations to grow the per-layer bounds. Attach
// it as the engine's ForwardMonitor during a profiling run.
func (r *Ranger) Profile(device, layer int, out *tensor.Tensor) {
	v := float64(out.AbsMax())
	if math.IsNaN(v) {
		return
	}
	if v > r.Bounds[layer] {
		r.Bounds[layer] = v
	}
}

// SetIteration tells the monitor the current training iteration (for alarm
// latency reporting).
func (r *Ranger) SetIteration(iter int) { r.iter = iter }

// Check is the detection-mode ForwardMonitor: any activation beyond
// margin × profiled bound (or any non-finite activation) raises an alarm.
func (r *Ranger) Check(device, layer int, out *tensor.Tensor) {
	m := out.AbsMax()
	if !numerics.IsNaN32(m) && float64(m) <= r.Bounds[layer]*r.Margin {
		return
	}
	r.Alarms++
	if r.firstAlarm == -1 {
		r.firstAlarm = r.iter
	}
}

// FirstAlarmIter returns the iteration of the first alarm, or -1.
func (r *Ranger) FirstAlarmIter() int { return r.firstAlarm }

// Reset clears alarm state (bounds are kept).
func (r *Ranger) Reset() {
	r.Alarms, r.firstAlarm = 0, -1
}

// ProfileOnEngine runs iters clean training iterations with profiling
// attached, then leaves the engine's monitor cleared.
func (r *Ranger) ProfileOnEngine(e *train.Engine, iters int) {
	e.ForwardMonitor = r.Profile
	for i := 0; i < iters; i++ {
		e.RunIteration(i)
	}
	e.ForwardMonitor = nil
}
