// Package numerics implements the mixed-precision arithmetic of the modeled
// accelerator and the bit-level utilities the fault models need.
//
// The paper's accelerator (NVDLA adapted for training, Sec 3.1) performs
// MAC operations in bfloat16 and element-wise operations in FP32, "a common
// precision setting for training". This package provides:
//
//   - bfloat16 encode/decode with round-to-nearest-even, used by the MAC
//     datapath model;
//   - float32 bit manipulation (the field layout, single-bit flips) used by
//     the datapath fault models — Sec 4.3.1 shows that flips in the upper
//     two exponent bits dominate unexpected outcomes;
//   - NaN/Inf detection over tensors, which is how the training framework
//     surfaces "immediate INFs/NaNs" errors (Table 3).
package numerics

import "math"

// BF16 is a bfloat16 value stored in its 16-bit encoding: 1 sign bit,
// 8 exponent bits, 7 mantissa bits — the top half of an IEEE float32.
type BF16 uint16

// ToBF16 rounds a float32 to bfloat16 using round-to-nearest-even, the
// rounding mode hardware MAC units implement.
func ToBF16(f float32) BF16 {
	bits := math.Float32bits(f)
	if IsNaN32(f) {
		// Preserve NaN; set a mantissa bit so the truncation cannot
		// accidentally produce an infinity encoding.
		return BF16(bits>>16 | 0x0040)
	}
	// Round to nearest even on the 16 discarded bits.
	round := uint32(0x7fff) + (bits>>16)&1
	bits += round
	return BF16(bits >> 16)
}

// Float32 expands a bfloat16 back to float32 exactly (bfloat16 values are a
// subset of float32).
func (b BF16) Float32() float32 {
	return math.Float32frombits(uint32(b) << 16)
}

// RoundBF16 performs a float32 → bfloat16 → float32 round trip. The MAC
// datapath model applies this to every product so the accelerator's reduced
// precision (and its smaller overflow-free range) is faithfully simulated.
func RoundBF16(f float32) float32 {
	return ToBF16(f).Float32()
}

// IsNaN32 reports whether f is an IEEE NaN without converting to float64.
func IsNaN32(f float32) bool { return f != f }

// IsInf32 reports whether f is +Inf or -Inf.
func IsInf32(f float32) bool {
	return f > math.MaxFloat32 || f < -math.MaxFloat32
}

// IsFinite32 reports whether f is neither NaN nor infinite.
func IsFinite32(f float32) bool { return !IsNaN32(f) && !IsInf32(f) }

// HasNonFinite scans xs and returns the index of the first NaN/Inf value,
// or -1 if all values are finite. This is the primitive behind the
// framework's INF/NaN error messages. On amd64 it is one 128-bit kernel call
// (firstNonFinite, numerics_amd64.s); hasNonFiniteGo is the loop of other
// builds and the tests' oracle.
func HasNonFinite(xs []float32) int {
	if len(xs) == 0 {
		return -1
	}
	return firstNonFinite(xs)
}

func hasNonFiniteGo(xs []float32) int {
	for i, x := range xs {
		if !IsFinite32(x) {
			return i
		}
	}
	return -1
}

// FlipBit32 returns f with the bit at position pos (0 = LSB of the mantissa,
// 31 = sign) inverted. This is the datapath-FF fault primitive: a
// single-cycle bit flip in a register holding a float32 value.
func FlipBit32(f float32, pos uint) float32 {
	if pos > 31 {
		panic("numerics: FlipBit32 position out of range")
	}
	return math.Float32frombits(math.Float32bits(f) ^ (1 << pos))
}

// SetBit32 returns f with the bit at position pos forced to 1 — the
// stuck-at-1 fault primitive: unlike a transient flip, re-applying it every
// cycle models a permanently faulty datapath lane.
func SetBit32(f float32, pos uint) float32 {
	if pos > 31 {
		panic("numerics: SetBit32 position out of range")
	}
	return math.Float32frombits(math.Float32bits(f) | (1 << pos))
}

// IsUpperExponentBit reports whether a float32 bit position is one of the
// upper two exponent bits (bits 30 and 29). The paper (Sec 4.3.1) finds
// these bits account for 31.9%–44.3% of all unexpected outcomes because
// flipping them multiplies the magnitude by up to 2^64.
func IsUpperExponentBit(pos uint) bool {
	return pos == 30 || pos == 29
}
