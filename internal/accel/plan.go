package accel

import "fmt"

// Op identifies which training computation a tile executes. The modeled
// accelerator is an inference design adapted for training (Sec 3.1): the
// forward pass runs natively, while the backward pass's input-gradient and
// weight-gradient operations are compiled onto the same MAC array by
// inserting "extra matrix transpose and rotation operations such that the
// order of gradient computations ... matches that required by the training
// algorithm".
type Op int

// Training operations executed on the accelerator.
const (
	// OpForward computes layer outputs: out[N, K, H, W] (or [B, U]).
	OpForward Op = iota
	// OpInputGrad computes input gradients: same layout as the layer
	// input, produced with rotated (180°) kernels in the conv case.
	OpInputGrad
	// OpWeightGrad computes weight gradients: out[K, C, KH, KW], i.e. the
	// output-channel axis leads and the "width" dimension ranges over the
	// kernel's spatial taps — the transposed ordering of Sec 3.1.
	OpWeightGrad
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpForward:
		return "forward"
	case OpInputGrad:
		return "input-grad"
	case OpWeightGrad:
		return "weight-grad"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// OpPlan records how an operation's output tensor maps onto the MAC
// array: which axis the 16 parallel units stripe across (the channel
// axis), and whether the compilation inserted a transpose relative to the
// forward layout.
type OpPlan struct {
	Op Op
	// ChanAxis is the output tensor axis striped across MAC units.
	ChanAxis int
	// Transposed is true when the op required the Sec-3.1 reordering
	// (weight gradients: the parameter tensor's leading axis is the
	// MAC-parallel one).
	Transposed bool
}

// PlanFor returns the tile plan for an operation producing a tensor of the
// given shape.
//
//	rank 4 forward/input-grad:  NCHW activations → channel axis 1
//	rank 3 (sequence models):   [B, L, D] → feature axis 2
//	rank 2 (dense layers):      [B, U] → unit axis 1
//	weight gradients:           leading (output-channel) axis 0
//
// This is the single place the framework encodes the dataflow-to-tensor
// mapping; the fault injector and the training engine both consume it, so
// the corruption geometry of every pass agrees with the modeled hardware.
func PlanFor(op Op, shape []int) OpPlan {
	if op == OpWeightGrad {
		return OpPlan{Op: op, ChanAxis: 0, Transposed: true}
	}
	axis := 1
	if len(shape) == 3 {
		axis = 2
	}
	if len(shape) == 1 {
		axis = 0
	}
	return OpPlan{Op: op, ChanAxis: axis}
}
