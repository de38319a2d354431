package accel

import "fmt"

// Schedule is the cycle-accurate mapping between the elements of an
// operation's output tensor and the accelerator cycles that compute them.
// It encodes the two dataflow facts of Table 1:
//
//   - the outputs computed in one cycle are MACUnits (16) consecutive
//     channels at a single spatial/width position, and
//   - consecutive cycles advance along the width dimension (for a fixed
//     channel group).
//
// The same mapping applies to forward outputs, input gradients, and weight
// gradients, because "the dataflow and compute operations are the same in
// the forward/backward pass of training" (Sec 3.2.2). A schedule is all the
// fault models need from the hardware: given the FF and cycle of a bit
// flip, it identifies the corrupted output elements and their positions.
type Schedule struct {
	shape    []int
	chanAxis int
	channels int
	width    int // number of positions per channel (product of other axes)
	groups   int // ceil(channels / MACUnits)

	// strides[i] is the row-major stride of axis i in the flat tensor.
	strides []int
	// posAxes lists the non-channel axes in order; width positions
	// enumerate them row-major.
	posAxes []int
}

// NewSchedule builds the schedule for a tensor of the given shape whose
// channel axis is chanAxis. For NCHW activations chanAxis is 1; for [B, U]
// dense outputs chanAxis is 1; for [K, C, KH, KW] weight-gradient tensors
// chanAxis is 0.
func NewSchedule(shape []int, chanAxis int) *Schedule {
	if chanAxis < 0 || chanAxis >= len(shape) {
		panic(fmt.Sprintf("accel: channel axis %d out of range for shape %v", chanAxis, shape))
	}
	s := &Schedule{
		shape:    append([]int(nil), shape...),
		chanAxis: chanAxis,
		channels: shape[chanAxis],
	}
	s.strides = make([]int, len(shape))
	stride := 1
	for i := len(shape) - 1; i >= 0; i-- {
		s.strides[i] = stride
		stride *= shape[i]
	}
	s.width = 1
	for i, d := range shape {
		if i != chanAxis {
			s.width *= d
			s.posAxes = append(s.posAxes, i)
		}
	}
	s.groups = (s.channels + MACUnits - 1) / MACUnits
	return s
}

// Cycles returns the total number of cycles needed to compute the tensor.
func (s *Schedule) Cycles() int { return s.groups * s.width }

// Channels returns the size of the channel axis.
func (s *Schedule) Channels() int { return s.channels }

// Width returns the number of width positions per channel.
func (s *Schedule) Width() int { return s.width }

// posOffset converts a width-position index into the flat-tensor offset of
// that position at channel 0.
func (s *Schedule) posOffset(pos int) int {
	off := 0
	// Decompose pos over the non-channel axes, last axis fastest.
	for i := len(s.posAxes) - 1; i >= 0; i-- {
		axis := s.posAxes[i]
		d := s.shape[axis]
		off += (pos % d) * s.strides[axis]
		pos /= d
	}
	return off
}

// OutputsAt returns the flat indices of the output elements computed in the
// given cycle: up to MACUnits consecutive channels at one width position.
func (s *Schedule) OutputsAt(cycle int) []int {
	if cycle < 0 || cycle >= s.Cycles() {
		panic(fmt.Sprintf("accel: cycle %d out of range [0,%d)", cycle, s.Cycles()))
	}
	group := cycle / s.width
	pos := cycle % s.width
	base := s.posOffset(pos)
	lo := group * MACUnits
	hi := lo + MACUnits
	if hi > s.channels {
		hi = s.channels
	}
	out := make([]int, 0, hi-lo)
	for ch := lo; ch < hi; ch++ {
		out = append(out, base+ch*s.strides[s.chanAxis])
	}
	return out
}

// OutputsInWindow returns the flat indices of all elements computed in
// cycles [start, start+n), clamped to the schedule's end — the footprint of
// a fault persisting n cycles.
func (s *Schedule) OutputsInWindow(start, n int) []int {
	var all []int
	for c := start; c < start+n && c < s.Cycles(); c++ {
		all = append(all, s.OutputsAt(c)...)
	}
	return all
}

// IndexOf returns the flat index of channel ch at width position pos. The
// fault models use it to relocate values across width positions (wrong
// address reads/writes, Table 1 groups 4–6).
func (s *Schedule) IndexOf(ch, pos int) int {
	if ch < 0 || ch >= s.channels || pos < 0 || pos >= s.width {
		panic(fmt.Sprintf("accel: IndexOf(%d, %d) out of range (%d channels, %d positions)", ch, pos, s.channels, s.width))
	}
	return s.posOffset(pos) + ch*s.strides[s.chanAxis]
}

// UnitOutputAt returns the flat index computed by MAC unit `unit` in the
// given cycle, and ok=false if that unit is idle (channel beyond the axis).
// Used by the group-3 model, which corrupts a single MAC unit.
func (s *Schedule) UnitOutputAt(cycle, unit int) (int, bool) {
	if unit < 0 || unit >= MACUnits {
		panic(fmt.Sprintf("accel: MAC unit %d out of range", unit))
	}
	group := cycle / s.width
	pos := cycle % s.width
	ch := group*MACUnits + unit
	if ch >= s.channels {
		return 0, false
	}
	return s.posOffset(pos) + ch*s.strides[s.chanAxis], true
}
