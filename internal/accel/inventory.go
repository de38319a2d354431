// Package accel models the deep-learning accelerator the fault-injection
// framework targets. It is the repository's stand-in for NVDLA's RTL
// (Sec 3.1 of the paper): an inventory of flip-flop classes with the
// population fractions reported in Table 1, a cycle-accurate tile schedule
// that maps every output element of a layer operation onto the (cycle, MAC
// unit) that computes it, and a small structural MAC-array simulator used to
// validate the software fault models the way the paper validates them
// against RTL fault injection (Sec 3.2.3).
//
// Dataflow constants follow NVDLA as described in the paper: 16 parallel
// MAC units compute 16 consecutive output channels per cycle; input fetches
// deliver 64 consecutive input channels per cycle; consecutive cycles
// advance along the width dimension.
package accel

import (
	"fmt"

	"repro/internal/rng"
)

// Dataflow constants of the modeled accelerator.
const (
	// MACUnits is the number of parallel multiply-accumulate units; the
	// outputs computed in one cycle belong to MACUnits consecutive
	// channels (Table 1).
	MACUnits = 16
	// GlobalControlFFCount is NVDLA's global-control FF population
	// (Sec 3.2.2: "41K in total").
	GlobalControlFFCount = 41000
	// MaxLoopIterations bounds n, the number of cycles a fault in a
	// feedback-loop FF persists (Table 1: "n is randomly chosen between 1
	// and the max number of loop iterations").
	MaxLoopIterations = 8
)

// FFKind classifies a flip-flop by the software fault model its bit-flips
// map to. The ten Global* kinds correspond one-to-one to the rows of
// Table 1.
type FFKind int

// FF kinds. Datapath and local-control FFs use the FIdelity-style models;
// GlobalG1..GlobalG10 use the paper's new global-control models.
const (
	// DatapathOther is a datapath FF holding a non-upper-exponent bit.
	DatapathOther FFKind = iota
	// DatapathUpperExponent is a datapath FF holding one of the upper two
	// exponent bits — 5.5% of all FFs but 31.9–44.3% of unexpected
	// outcomes (Sec 4.3.1).
	DatapathUpperExponent
	// LocalControl is a control FF driving exactly one datapath register.
	LocalControl
	// GlobalG1: configuration/valid flip makes all 16 MAC outputs take
	// random dynamic-range values for n cycles.
	GlobalG1
	// GlobalG2: valid→invalid flip zeroes all 16 MAC outputs for n cycles.
	GlobalG2
	// GlobalG3: like G1 but only one MAC unit is affected.
	GlobalG3
	// GlobalG4: output-address corruption relocates each cycle's outputs.
	GlobalG4
	// GlobalG5: input-1 address corruption (wrong feature-map reads).
	GlobalG5
	// GlobalG6: input-2 address corruption (wrong weight reads).
	GlobalG6
	// GlobalG7: input-1 valid flip zeroes the fetched feature-map slice.
	GlobalG7
	// GlobalG8: input-2 valid flip zeroes the fetched weight slice.
	GlobalG8
	// GlobalG9: input-1 valid flip reuses a stale random feature-map slice.
	GlobalG9
	// GlobalG10: input-2 valid flip reuses a stale random weight slice.
	GlobalG10
	numFFKinds
)

// String implements fmt.Stringer.
func (k FFKind) String() string {
	names := [...]string{
		"datapath", "datapath-upper-exp", "local-control",
		"global-g1", "global-g2", "global-g3", "global-g4", "global-g5",
		"global-g6", "global-g7", "global-g8", "global-g9", "global-g10",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("ffkind(%d)", int(k))
}

// Inventory is the accelerator's FF population broken down by kind. The
// fractions are taken from the paper: Table 1's "% FFs" column for the
// global-control groups, 5.5% for upper-exponent datapath bits (Sec 4.3.1),
// and local control sized so that groups 1+3 plus local control account for
// 9.8% of all FFs (Sec 4.3.1).
type Inventory struct {
	// Fraction[k] is the share of all FFs of kind k; fractions sum to 1.
	Fraction [numFFKinds]float64
	// TotalFFs is the absolute FF count the fractions are scaled against.
	TotalFFs int
	// loopProb[k] is the probability that an FF of kind k sits in a
	// feedback loop (so its fault persists n > 1 cycles).
	loopProb [numFFKinds]float64

	cumulative [numFFKinds]float64
}

// NVDLAInventory returns the inventory of the modeled NVDLA-style design.
func NVDLAInventory() *Inventory {
	inv := &Inventory{}
	inv.Fraction[GlobalG1] = 0.0024
	inv.Fraction[GlobalG2] = 0.0025
	inv.Fraction[GlobalG3] = 0.0048
	inv.Fraction[GlobalG4] = 0.0236
	inv.Fraction[GlobalG5] = 0.0131
	inv.Fraction[GlobalG6] = 0.0096
	inv.Fraction[GlobalG7] = 0.0009
	inv.Fraction[GlobalG8] = 0.0022
	inv.Fraction[GlobalG9] = 0.0016
	inv.Fraction[GlobalG10] = 0.0012
	// Sec 4.3.1: groups 1+3 + local control = 9.8% of all FFs.
	inv.Fraction[LocalControl] = 0.098 - inv.Fraction[GlobalG1] - inv.Fraction[GlobalG3]
	// Sec 4.3.1: the upper two exponent bits are 5.5% of all FFs.
	inv.Fraction[DatapathUpperExponent] = 0.055
	var rest float64
	for k := FFKind(0); k < numFFKinds; k++ {
		if k != DatapathOther {
			rest += inv.Fraction[k]
		}
	}
	inv.Fraction[DatapathOther] = 1 - rest
	// Scale so the global-control population matches the paper's 41K.
	var globalFrac float64
	for k := GlobalG1; k <= GlobalG10; k++ {
		globalFrac += inv.Fraction[k]
	}
	inv.TotalFFs = int(float64(GlobalControlFFCount)/globalFrac + 0.5)

	// Feedback loops: sequencing/address logic is loop-heavy; pure datapath
	// pipeline registers are not.
	inv.loopProb[DatapathOther] = 0.1
	inv.loopProb[DatapathUpperExponent] = 0.1
	inv.loopProb[LocalControl] = 0.3
	for k := GlobalG1; k <= GlobalG10; k++ {
		inv.loopProb[k] = 0.5
	}
	inv.buildCumulative()
	return inv
}

func (inv *Inventory) buildCumulative() {
	var acc float64
	for k := FFKind(0); k < numFFKinds; k++ {
		acc += inv.Fraction[k]
		inv.cumulative[k] = acc
	}
}

// Count returns the absolute number of FFs of kind k.
func (inv *Inventory) Count(k FFKind) int {
	return int(inv.Fraction[k]*float64(inv.TotalFFs) + 0.5)
}

// SampleKind draws an FF kind with probability proportional to its
// population — the "randomly select an FF" step of each FI experiment
// (Sec 3.3).
func (inv *Inventory) SampleKind(r *rng.Rand) FFKind {
	u := r.Float64()
	for k := FFKind(0); k < numFFKinds; k++ {
		if u < inv.cumulative[k] {
			return k
		}
	}
	return numFFKinds - 1
}

// SampleDuration draws n, the number of consecutive cycles the fault
// persists, for an FF of kind k (Table 1's feedback-loop rule).
func (inv *Inventory) SampleDuration(k FFKind, r *rng.Rand) int {
	if r.Float64() < inv.loopProb[k] {
		return 1 + r.Intn(MaxLoopIterations)
	}
	return 1
}

// Kinds returns all FF kinds in order.
func Kinds() []FFKind {
	ks := make([]FFKind, numFFKinds)
	for i := range ks {
		ks[i] = FFKind(i)
	}
	return ks
}
