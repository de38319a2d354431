// Package fault implements the fault-injection framework: the hardware
// fault model (a single-cycle bit flip in a single FF, Sec 3.2.1), the
// software fault models that translate FF bit flips into tensor-level
// corruptions (Table 1 plus the FIdelity-style datapath/local-control
// models), and the sampler that draws random injection sites for
// statistical campaigns (Sec 3.3).
//
// Table 1 defines the corruption targets generically: Layer_Output means
// "output neurons in forward pass, input gradients or weight gradients in
// backward pass". Apply therefore operates on any tensor plus the
// accelerator Schedule describing how that tensor is computed, and the
// training engine points it at forward outputs, input gradients, or weight
// gradients according to the sampled injection site.
package fault

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/numerics"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Pass identifies which training computation the fault lands in.
type Pass int

// Injection passes. Table 3 distinguishes faults in the forward pass from
// faults in the backward pass; the backward pass itself splits into the
// input-gradient and weight-gradient operations (Table 1 definitions).
const (
	Forward Pass = iota
	BackwardInput
	BackwardWeight
)

// String implements fmt.Stringer.
func (p Pass) String() string {
	switch p {
	case Forward:
		return "forward"
	case BackwardInput:
		return "backward-input-grad"
	case BackwardWeight:
		return "backward-weight-grad"
	}
	return fmt.Sprintf("pass(%d)", int(p))
}

// Injection fully describes one fault-injection experiment: where the bit
// flip occurs (FF kind, layer, pass, iteration, cycle) and the sampled
// micro-parameters of the corresponding software fault model. All fields
// are plain values so an Injection can be recorded and replayed — the
// repository equivalent of the paper artifact's injection config files.
type Injection struct {
	// Kind is the FF class the flipped FF belongs to.
	Kind accel.FFKind
	// LayerIdx is the index of the targeted layer in the model.
	LayerIdx int
	// Pass selects forward / backward-input / backward-weight.
	Pass Pass
	// Iteration is the global training iteration during which the flip
	// occurs.
	Iteration int
	// CycleFrac in [0,1) positions the flip within the operation; the
	// concrete start cycle is CycleFrac × schedule.Cycles(), resolved when
	// the target tensor's shape is known.
	CycleFrac float64
	// N is the number of consecutive cycles the fault persists (1 unless
	// the FF sits in a feedback loop).
	N int
	// Unit is the affected MAC unit for single-unit models.
	Unit int
	// DeltaFrac in (0,1) parameterizes address corruption as a fraction of
	// the width dimension.
	DeltaFrac float64
	// BitPos is the flipped bit for datapath models (0..31).
	BitPos uint
	// Source is where the corrupted input fetch originates for the
	// input-side models (groups 5–10). Table 1 distinguishes the two: a
	// fault on the DRAM path persists for n consecutive cycles, while a
	// fault on the on-chip buffer path affects only one cycle.
	Source FetchSource
	// Seed drives the random faulty values of the dynamic-range models, so
	// replaying the same Injection reproduces identical corruption.
	Seed rng.Seed
}

// FetchSource identifies the memory path of an input fetch.
type FetchSource int

// Input fetch sources (Table 1).
const (
	// FromDRAM: the fault affects n consecutive fetch cycles.
	FromDRAM FetchSource = iota
	// FromOnChip: the fault affects exactly one cycle.
	FromOnChip
)

// String implements fmt.Stringer.
func (s FetchSource) String() string {
	if s == FromOnChip {
		return "on-chip"
	}
	return "dram"
}

// effectiveN returns the cycle span the fault persists for, applying the
// Table-1 source rule to the input-side models.
func (inj *Injection) effectiveN() int {
	switch inj.Kind {
	case accel.GlobalG5, accel.GlobalG6, accel.GlobalG7, accel.GlobalG8,
		accel.GlobalG9, accel.GlobalG10:
		if inj.Source == FromOnChip {
			return 1
		}
	}
	return inj.N
}

// Result reports what a corruption did to a tensor.
type Result struct {
	// Indices are the flat positions whose values changed (or were
	// rewritten with equal values — hardware masking).
	Indices []int
	// NewValues[i] is the value written at Indices[i].
	NewValues []float32
	// Masked is true when the corruption was entirely value-preserving.
	Masked bool
}

// WriteOpKind distinguishes the three primitive element writes an
// injection's software fault model is built from.
type WriteOpKind byte

// Write-op kinds. A WriteSet stores a concrete value; a WriteFlip flips one
// bit of the target's current value; a WriteCopy stores the current value
// of another element. Flip and copy are symbolic — their written values
// depend on the tensor contents at apply time — which is exactly what makes
// the op program a canonical description of the corruption independent of
// the data: applied to bitwise-identical tensors, identical programs
// produce bitwise-identical results.
const (
	WriteSet WriteOpKind = iota
	WriteFlip
	WriteCopy
)

// WriteOp is one element write of an injection's effective corruption.
type WriteOp struct {
	Kind WriteOpKind
	// Idx is the written flat index.
	Idx int
	// Src is the flat index read by a WriteCopy.
	Src int
	// Bit is the bit position flipped by a WriteFlip.
	Bit uint
	// Val is the value stored by a WriteSet.
	Val float32
}

// CorruptionOps resolves the injection's software fault model against a
// target tensor shape into the ordered element-write program Apply
// executes. The program is a pure function of (Injection, shape, chanAxis):
// it fully determines the corruption without reading tensor data, so two
// injections with equal programs at the same (pass, layer, iteration) site
// corrupt bitwise-identical tensors identically — the equivalence relation
// campaign-scale dedup (package experiment) hashes.
func (inj *Injection) CorruptionOps(shape []int, chanAxis int) []WriteOp {
	sched := accel.NewSchedule(shape, chanAxis)
	r := rng.New(inj.Seed)
	start := int(inj.CycleFrac * float64(sched.Cycles()))
	if start >= sched.Cycles() {
		start = sched.Cycles() - 1
	}
	width := sched.Width()
	delta := 1
	if width > 1 {
		delta = 1 + int(inj.DeltaFrac*float64(width-1))
		if delta >= width {
			delta = width - 1
		}
	}
	n := 1
	for _, s := range shape {
		n *= s
	}

	var ops []WriteOp
	switch inj.Kind {
	case accel.DatapathOther:
		// FIdelity-style: a single-cycle flip of one non-upper-exponent bit
		// of one datapath register corrupts one output element.
		idx := r.Intn(n)
		bit := inj.BitPos
		if numerics.IsUpperExponentBit(bit) {
			bit = (bit + 3) % 29 // remap into the non-upper-exponent bits
		}
		ops = append(ops, WriteOp{Kind: WriteFlip, Idx: idx, Bit: bit})

	case accel.DatapathUpperExponent:
		// The flip lands in exponent bit 29 or 30 (Sec 4.3.1's dominant
		// datapath contributors).
		idx := r.Intn(n)
		bit := uint(29)
		if inj.BitPos%2 == 1 {
			bit = 30
		}
		ops = append(ops, WriteOp{Kind: WriteFlip, Idx: idx, Bit: bit})

	case accel.GlobalG1:
		// All 16 MAC outputs take random dynamic-range values for n cycles.
		for _, idx := range sched.OutputsInWindow(start, inj.N) {
			ops = append(ops, WriteOp{Kind: WriteSet, Idx: idx, Val: accel.RandomDynamicRangeValue(r)})
		}

	case accel.GlobalG2:
		// Valid→invalid: the window's outputs are zeroed.
		for _, idx := range sched.OutputsInWindow(start, inj.N) {
			ops = append(ops, WriteOp{Kind: WriteSet, Idx: idx})
		}

	case accel.LocalControl, accel.GlobalG3:
		// One MAC unit's output takes random dynamic-range values for n
		// cycles: the unit a group-3 FF configures, or the one datapath
		// register a local control FF drives.
		for c := start; c < start+inj.N && c < sched.Cycles(); c++ {
			if idx, ok := sched.UnitOutputAt(c, inj.Unit); ok {
				ops = append(ops, WriteOp{Kind: WriteSet, Idx: idx, Val: accel.RandomDynamicRangeValue(r)})
			}
		}

	case accel.GlobalG4:
		// Outputs written to wrong memory locations while maintaining
		// relative positions: each affected cycle's outputs land at a
		// shifted width position; the correct locations retain stale buffer
		// content (modeled as zero).
		for c := start; c < start+inj.N && c < sched.Cycles(); c++ {
			ops = moveCycleOutputs(ops, sched, c, delta)
		}

	case accel.GlobalG5, accel.GlobalG6:
		// Inputs read from wrong memory addresses while maintaining
		// relative positions: the affected outputs take the values that
		// wrong-window inputs would produce — plausible-magnitude wrong
		// values, modeled as the outputs of a shifted width position. The
		// span follows the Table-1 source rule (n cycles from DRAM, one
		// from on-chip buffers).
		for c := start; c < start+inj.effectiveN() && c < sched.Cycles(); c++ {
			ops = copyFromShifted(ops, sched, c, delta)
		}

	case accel.GlobalG7, accel.GlobalG8:
		// Input valid→... inputs forced to zero: the affected outputs lose
		// all input contributions and become zero.
		for _, idx := range sched.OutputsInWindow(start, inj.effectiveN()) {
			ops = append(ops, WriteOp{Kind: WriteSet, Idx: idx})
		}

	case accel.GlobalG9, accel.GlobalG10:
		// Inputs reuse a stale random slice: all affected outputs take the
		// values of one fixed (random) width position.
		src := r.Intn(width)
		for c := start; c < start+inj.effectiveN() && c < sched.Cycles(); c++ {
			ops = copyFromFixed(ops, sched, c, src)
		}

	default:
		panic(fmt.Sprintf("fault: unknown FF kind %v", inj.Kind))
	}
	return ops
}

// AppendCorruption appends a canonical binary encoding of the injection's
// effective corruption on a tensor of the given shape. Two injections
// append identical bytes iff they resolve to identical write-op programs —
// the hashing seam of campaign-scale injection dedup.
func (inj *Injection) AppendCorruption(buf []byte, shape []int, chanAxis int) []byte {
	for _, op := range inj.CorruptionOps(shape, chanAxis) {
		buf = append(buf, byte(op.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Idx))
		switch op.Kind {
		case WriteSet:
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(op.Val))
		case WriteFlip:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Bit))
		case WriteCopy:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Src))
		}
	}
	return buf
}

// Apply corrupts t according to the injection's software fault model.
// chanAxis identifies the tensor's channel dimension for the accelerator
// schedule (1 for activations/gradients in NCHW or [B,U], 0 for weight
// gradients [K,...]). It returns the corruption footprint.
//
// Apply materializes CorruptionOps sequentially, reading flips' and copies'
// source values from the live tensor — later ops observe earlier ops'
// writes, preserving the read-after-write semantics of the hardware model
// (e.g. a G4 relocation zeroes an address a later cycle may copy from).
func (inj *Injection) Apply(t *tensor.Tensor, chanAxis int) Result {
	var res Result
	res.Masked = true
	for _, op := range inj.CorruptionOps(t.Shape, chanAxis) {
		v := op.Val
		switch op.Kind {
		case WriteFlip:
			v = numerics.FlipBit32(t.Data[op.Idx], op.Bit)
		case WriteCopy:
			v = t.Data[op.Src]
		}
		old := t.Data[op.Idx]
		t.Data[op.Idx] = v
		res.Indices = append(res.Indices, op.Idx)
		res.NewValues = append(res.NewValues, v)
		if old != v {
			res.Masked = false
		}
	}
	// The injection mutated t outside its producing kernel; any fused stats
	// cached for t are now stale, so flag it for the detector's sweep
	// fallback (the dirty-tensor protocol — see tensor.Tensor).
	if len(res.Indices) > 0 {
		t.MarkDirty()
	}
	return res
}

// moveCycleOutputs implements the G4 relocation for one cycle.
func moveCycleOutputs(ops []WriteOp, sched *accel.Schedule, cycle, delta int) []WriteOp {
	width := sched.Width()
	pos := cycle % width
	wrong := (pos + delta) % width
	group := cycle / width
	lo := group * accel.MACUnits
	hi := lo + accel.MACUnits
	if hi > sched.Channels() {
		hi = sched.Channels()
	}
	for ch := lo; ch < hi; ch++ {
		srcIdx := sched.IndexOf(ch, pos)
		dstIdx := sched.IndexOf(ch, wrong)
		ops = append(ops,
			WriteOp{Kind: WriteCopy, Idx: dstIdx, Src: srcIdx},
			WriteOp{Kind: WriteSet, Idx: srcIdx}) // stale buffer content at the abandoned address
	}
	return ops
}

// copyFromShifted overwrites one cycle's outputs with the values of a
// width-shifted position (G5/G6).
func copyFromShifted(ops []WriteOp, sched *accel.Schedule, cycle, delta int) []WriteOp {
	width := sched.Width()
	pos := cycle % width
	src := (pos + delta) % width
	group := cycle / width
	lo := group * accel.MACUnits
	hi := lo + accel.MACUnits
	if hi > sched.Channels() {
		hi = sched.Channels()
	}
	for ch := lo; ch < hi; ch++ {
		ops = append(ops, WriteOp{Kind: WriteCopy, Idx: sched.IndexOf(ch, pos), Src: sched.IndexOf(ch, src)})
	}
	return ops
}

// copyFromFixed overwrites one cycle's outputs with a fixed source
// position's values (G9/G10).
func copyFromFixed(ops []WriteOp, sched *accel.Schedule, cycle, src int) []WriteOp {
	width := sched.Width()
	pos := cycle % width
	group := cycle / width
	lo := group * accel.MACUnits
	hi := lo + accel.MACUnits
	if hi > sched.Channels() {
		hi = sched.Channels()
	}
	for ch := lo; ch < hi; ch++ {
		ops = append(ops, WriteOp{Kind: WriteCopy, Idx: sched.IndexOf(ch, pos), Src: sched.IndexOf(ch, src)})
	}
	return ops
}

// Sampler draws random injections for a statistical campaign. Each call
// implements step (1) of the paper's experiment procedure: "randomly select
// an FF and a cycle to indicate where and when a bit-flip is to be
// injected" (Sec 3.3), generalized over layers, passes and iterations.
type Sampler struct {
	inv *accel.Inventory
	r   *rng.Rand
}

// NewSampler creates a sampler over the given inventory.
func NewSampler(inv *accel.Inventory, r *rng.Rand) *Sampler {
	return &Sampler{inv: inv, r: r}
}

// Sample draws one injection targeting a random layer in [0, numLayers), a
// random pass, and a random iteration in [0, maxIter).
func (s *Sampler) Sample(numLayers, maxIter int) Injection {
	kind := s.inv.SampleKind(s.r)
	pass := Pass(s.r.Intn(3))
	inj := Injection{
		Kind:      kind,
		LayerIdx:  s.r.Intn(numLayers),
		Pass:      pass,
		Iteration: s.r.Intn(maxIter),
		CycleFrac: s.r.Float64(),
		N:         s.inv.SampleDuration(kind, s.r),
		Unit:      s.r.Intn(accel.MACUnits),
		DeltaFrac: s.r.Float64(),
		BitPos:    uint(s.r.Intn(32)),
		Seed:      rng.Seed{State: s.r.Uint64(), Stream: s.r.Uint64() >> 1},
	}
	// Derive the fetch source from an already-drawn bit rather than a new
	// draw, so adding the source distinction did not perturb the sampler's
	// stream (campaign reproducibility across versions).
	if inj.Seed.State>>17&1 == 1 {
		inj.Source = FromOnChip
	}
	return inj
}
