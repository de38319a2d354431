// Vectorized reduction kernels.
//
// The mitigation techniques (bounds detection, ABFT, range restriction)
// read whole-tensor reductions — abs-max, sums — over state the training
// hot path just wrote. The sweeps here are 4-way unrolled.
//
// Determinism contract:
//
//   - AbsMax is computed as an unsigned maximum over sign-cleared IEEE-754
//     bit patterns. For non-NaN floats the ordering of |x| equals the
//     unsigned ordering of the abs-bits, and every NaN pattern compares
//     above +Inf, so NaN corruption always wins the maximum and is never
//     hidden. A maximum is order-independent, which is what makes 4-way
//     unrolling bitwise-identical to the plain scan — and what lets a
//     producer that folds AbsBits of every element it writes (the optimizer
//     step, BatchNorm's moving variance) hand out a maximum bitwise-equal to
//     this sweep.
//
//   - Sum follows the lane rule: four float64 accumulators, element i
//     feeding lane i mod 4 of the tensor's flat index, combined as
//     (s0+s1)+(s2+s3).
package tensor

import (
	"math"
)

// absBitsMask clears the IEEE-754 sign bit, mapping v to |v|'s bit pattern.
const absBitsMask = 0x7fffffff

// nonFiniteBits is the smallest abs-bit pattern that is not finite (+Inf).
const nonFiniteBits = 0x7f800000

// absMaxBits returns the unsigned maximum of sign-cleared bit patterns over
// data. 4-way unrolled; order-independent.
func absMaxBits(data []float32) uint32 {
	var m0, m1, m2, m3 uint32
	i := 0
	for ; i+4 <= len(data); i += 4 {
		b0 := math.Float32bits(data[i]) & absBitsMask
		b1 := math.Float32bits(data[i+1]) & absBitsMask
		b2 := math.Float32bits(data[i+2]) & absBitsMask
		b3 := math.Float32bits(data[i+3]) & absBitsMask
		if b0 > m0 {
			m0 = b0
		}
		if b1 > m1 {
			m1 = b1
		}
		if b2 > m2 {
			m2 = b2
		}
		if b3 > m3 {
			m3 = b3
		}
	}
	for ; i < len(data); i++ {
		if b := math.Float32bits(data[i]) & absBitsMask; b > m0 {
			m0 = b
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	return m0
}

// AbsMax returns the maximum absolute value of any element; any NaN element
// forces a NaN result so non-finite corruption is never hidden (NaN bit
// patterns compare above +Inf under the abs-bits ordering).
func (t *Tensor) AbsMax() float32 {
	return math.Float32frombits(absMaxBits(t.Data))
}

// sumLanes accumulates data into the four lane accumulators, assigning each
// element to lane (phase+i) mod 4 — the lane rule. phase is the global flat
// index of data[0].
func sumLanes(l *[4]float64, data []float32, phase int) {
	p := phase & 3
	i := 0
	for ; i+4 <= len(data); i += 4 {
		l[p] += float64(data[i])
		l[(p+1)&3] += float64(data[i+1])
		l[(p+2)&3] += float64(data[i+2])
		l[(p+3)&3] += float64(data[i+3])
	}
	for ; i < len(data); i++ {
		l[(p+i)&3] += float64(data[i])
	}
}

// laneTotal combines the four lane accumulators in the fixed tree order the
// lane rule prescribes.
func laneTotal(l *[4]float64) float64 { return (l[0] + l[1]) + (l[2] + l[3]) }

// Sum returns the sum of all elements, accumulated in float64 across four
// unrolled lanes (lane = flat index mod 4, combined (s0+s1)+(s2+s3)).
func (t *Tensor) Sum() float64 {
	var l [4]float64
	sumLanes(&l, t.Data, 0)
	return laneTotal(&l)
}

// AddInPlaceAbsMax computes t += u element-wise — the exact loop of
// AddInPlace — and returns the abs-max of u's elements, folded into the same
// pass under the abs-bits ordering (NaN wins). The collective layer uses it
// to collect per-device contribution signatures for the cross-replica
// consistency check during gradient accumulation, so the check costs no
// extra tensor sweep. On amd64 the pass is addAbsMaxAVX (elem_amd64.s), four
// lanes wide with PMAXUD; addInPlaceAbsMaxGo is the loop elsewhere.
func (t *Tensor) AddInPlaceAbsMax(u *Tensor) float32 {
	if len(t.Data) != len(u.Data) {
		panic("tensor: AddInPlaceAbsMax size mismatch")
	}
	if len(t.Data) == 0 {
		return 0
	}
	if useAVX {
		return math.Float32frombits(addAbsMaxAVX(&t.Data[0], &u.Data[0], len(t.Data)))
	}
	return math.Float32frombits(addInPlaceAbsMaxGo(t.Data, u.Data))
}

// addInPlaceAbsMaxGo is AddInPlaceAbsMax's loop, returning the abs-bits
// maximum.
func addInPlaceAbsMaxGo(td, ud []float32) uint32 {
	var m0, m1, m2, m3 uint32
	i := 0
	for ; i+4 <= len(td); i += 4 {
		v0, v1, v2, v3 := ud[i], ud[i+1], ud[i+2], ud[i+3]
		td[i] += v0
		td[i+1] += v1
		td[i+2] += v2
		td[i+3] += v3
		if b := math.Float32bits(v0) & absBitsMask; b > m0 {
			m0 = b
		}
		if b := math.Float32bits(v1) & absBitsMask; b > m1 {
			m1 = b
		}
		if b := math.Float32bits(v2) & absBitsMask; b > m2 {
			m2 = b
		}
		if b := math.Float32bits(v3) & absBitsMask; b > m3 {
			m3 = b
		}
	}
	for ; i < len(td); i++ {
		v := ud[i]
		td[i] += v
		if b := math.Float32bits(v) & absBitsMask; b > m0 {
			m0 = b
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	return m0
}

// AbsMaxOfBits converts an abs-bits maximum back to a float. Exposed for
// producers (the optimizer step, BatchNorm's moving-variance update) that
// track the raw bit maximum inline.
func AbsMaxOfBits(bits uint32) float32 { return math.Float32frombits(bits) }

// AbsBits returns v's sign-cleared bit pattern: the element AbsMax folds into
// its maximum, for producers that fold their own.
func AbsBits(v float32) uint32 { return math.Float32bits(v) & absBitsMask }
