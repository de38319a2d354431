package accel

import (
	"math"

	"repro/internal/numerics"
	"repro/internal/rng"
)

// MACArray is a structural, cycle-by-cycle simulator of the accelerator's
// compute core: a 16-unit MAC array fed by a sequencer with valid signals
// and address registers. It exists to validate the software fault models
// the way the paper validates them against RTL fault injection
// (Sec 3.2.3): a control-FF bit flip is injected into the *structural*
// state (valid bits, address registers, unit enables), the tile is executed
// cycle by cycle, and its output is compared element by element with the
// software fault model's (fault.Injection.Apply) on the clean tile.
//
// The array computes out[K, W] = weights[K, CK] × inputs[CK, W], one width
// column per cycle per channel group, mirroring the dataflow of Table 1.
type MACArray struct {
	Weights *Matrix // [K, CK]
	Inputs  *Matrix // [CK, W]
}

// Matrix is a minimal row-major float32 matrix for the structural model
// (kept separate from package tensor so accel has no dependency cycle
// concerns and the structural model stays self-contained).
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set stores v at (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// ControlFault describes a bit flip injected into the array's control state.
// Kind selects which control register is flipped; StartCycle and N give the
// affected cycle window (N > 1 models a feedback-loop FF); Unit, AddrDelta
// and SourceCol parameterize the specific registers.
type ControlFault struct {
	Kind       FFKind
	StartCycle int
	N          int
	// Unit is the affected MAC unit for GlobalG3 and LocalControl.
	Unit int
	// AddrDelta is the address-register corruption for G4/G5/G6 (a wrong
	// but in-range offset in width positions).
	AddrDelta int
	// SourceCol is the stale column reused by G9/G10.
	SourceCol int
	// Rand drives the "random dynamic-range values" of G1/G3.
	Rand *rng.Rand
}

// RandomDynamicRangeValue draws a faulty value "that can span the entire
// data precision dynamic range" (Table 1, groups 1 and 3): uniform in
// log-magnitude across the FP32 range with random sign. This sampling is
// what produces the enormous magnitudes (1e9–1e38) behind the paper's
// Table 4 necessary-condition ranges.
func RandomDynamicRangeValue(r *rng.Rand) float32 {
	// log10 magnitude uniform in [-38, 38.5]; values above MaxFloat32
	// round to +/-Inf exactly as an overflowing datapath would.
	exp := -38 + 76.5*r.Float64()
	mag := math.Pow(10, exp)
	v := float32(mag)
	if r.Float64() < 0.5 {
		v = -v
	}
	return v
}

// Run executes the tile cycle by cycle and returns the output matrix
// [K, W]. fault may be nil for a clean run.
func (a *MACArray) Run(fault *ControlFault) *Matrix {
	k, ck := a.Weights.Rows, a.Weights.Cols
	w := a.Inputs.Cols
	out := NewMatrix(k, w)
	groups := (k + MACUnits - 1) / MACUnits
	cycle := 0
	for g := 0; g < groups; g++ {
		for pos := 0; pos < w; pos++ {
			// --- sequencer state for this cycle -------------------------
			outValid := true
			writePos := pos
			readPos := pos
			zeroInput := false
			staleInput := -1
			unitGarbage := -1
			allGarbage := false

			if fault != nil && cycle >= fault.StartCycle && cycle < fault.StartCycle+fault.N {
				switch fault.Kind {
				case GlobalG1:
					allGarbage = true
				case GlobalG2:
					outValid = false
				case GlobalG3, LocalControl:
					unitGarbage = fault.Unit
				case GlobalG4:
					writePos = (pos + fault.AddrDelta) % w
				case GlobalG5, GlobalG6:
					readPos = (pos + fault.AddrDelta) % w
				case GlobalG7, GlobalG8:
					zeroInput = true
				case GlobalG9, GlobalG10:
					staleInput = fault.SourceCol
				}
			}

			// --- datapath ------------------------------------------------
			for u := 0; u < MACUnits; u++ {
				ch := g*MACUnits + u
				if ch >= k {
					break
				}
				var acc float32
				switch {
				case !outValid:
					acc = 0
				case allGarbage || u == unitGarbage:
					acc = RandomDynamicRangeValue(fault.Rand)
				case zeroInput:
					acc = 0
				default:
					src := readPos
					if staleInput >= 0 {
						src = staleInput
					}
					for c := 0; c < ck; c++ {
						acc += a.Weights.At(ch, c) * a.Inputs.At(c, src)
					}
				}
				out.Set(ch, writePos, acc)
			}
			cycle++
		}
	}
	return out
}

// DiffPositions returns the flat indices (row-major over [K, W]) where a
// and b differ bit for bit; two NaNs are equal.
func DiffPositions(a, b *Matrix) []int {
	var diff []int
	for i := range a.Data {
		av, bv := a.Data[i], b.Data[i]
		if math.Float32bits(av) != math.Float32bits(bv) && !(numerics.IsNaN32(av) && numerics.IsNaN32(bv)) {
			diff = append(diff, i)
		}
	}
	return diff
}
