// Vectorized reduction kernels and the fused-epilogue layer.
//
// The mitigation techniques (bounds detection, ABFT, range restriction)
// need whole-tensor reductions — abs-max, sums, checksums — over state the
// training hot path just wrote. The kernels here make those reductions
// cheap twice over: (1) standalone sweeps are 4-way unrolled (and, for
// AbsMax, optionally parallel), and (2) the Epilogue / *Ep entry points let
// the hot path accumulate the same reductions during its existing write
// loop, so mitigation never re-reads the tensor at all.
//
// Determinism contract (the fused-vs-sweep equivalence tests depend on it):
//
//   - AbsMax is computed as an unsigned maximum over sign-cleared IEEE-754
//     bit patterns. For non-NaN floats the ordering of |x| equals the
//     unsigned ordering of the abs-bits, and every NaN pattern compares
//     above +Inf, so NaN corruption always wins the maximum and is never
//     hidden. A maximum is order-independent, which is what makes 4-way
//     unrolling AND parallel chunking bitwise-identical to the serial scan
//     for any worker count.
//
//   - Sum follows the lane rule: four float64 accumulators, element i
//     feeding lane i mod 4 of the tensor's flat index, combined as
//     (s0+s1)+(s2+s3). Every sum producer in this package — Tensor.Sum,
//     AddBiasNCHWEp, AddInPlaceSum, Epilogue column/total sums — implements
//     the same rule keyed on the global flat index, so a sum accumulated
//     row-by-row inside a kernel epilogue is bitwise-equal to a full sweep
//     afterwards.
package tensor

import (
	"math"
)

// absBitsMask clears the IEEE-754 sign bit, mapping v to |v|'s bit pattern.
const absBitsMask = 0x7fffffff

// nonFiniteBits is the smallest abs-bit pattern that is not finite (+Inf).
const nonFiniteBits = 0x7f800000

// absMaxParallelMin is the element count above which the order-independent
// elementwise kernels (AbsMax, MinMax, AddBiasNCHW) fan out to the
// persistent kernel worker pool (see SetWorkers, pool.go). Results are
// bitwise-identical for any worker count. Sum is deliberately NOT in this
// list: its lane rule pins the accumulation tree, and chunked partial sums
// would change it.
const absMaxParallelMin = 1 << 16

// absMaxBits returns the unsigned maximum of sign-cleared bit patterns over
// data, seeded with m. 4-way unrolled; order-independent.
func absMaxBits(data []float32, m uint32) uint32 {
	var m0, m1, m2, m3 uint32 = m, 0, 0, 0
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
// patterns compare above +Inf under the abs-bits ordering). Large tensors
// reduce on the kernel worker pool; the result is bitwise-identical for any
// worker count because a maximum is order-independent.
func (t *Tensor) AbsMax() float32 {
	n := len(t.Data)
	w := matmulWorkers
	if n < absMaxParallelMin || w <= 1 {
		return math.Float32frombits(absMaxBits(t.Data, 0))
	}
	if w > n/absMaxParallelMin+1 {
		w = n/absMaxParallelMin + 1
	}
	partial := make([]uint32, w)
	nc := parallelInto(w, n, func(c, lo, hi int) {
		partial[c] = absMaxBits(t.Data[lo:hi], 0)
	})
	var m uint32
	for _, p := range partial[:nc] {
		if p > m {
			m = p
		}
	}
	return math.Float32frombits(m)
}

// sumLanes accumulates data into the four lane accumulators, assigning each
// element to lane (phase+i) mod 4 — the lane rule shared by every sum
// producer in this package. phase is the global flat index of data[0].
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
// unrolled lanes (lane = flat index mod 4, combined (s0+s1)+(s2+s3)). The
// lane rule makes fused epilogue sums bitwise-equal to this sweep.
//
// Sum stays serial by design: the lane rule pins the exact accumulation
// tree, and parallel chunking would introduce per-chunk partials whose
// combination rounds differently. Do not route it through the worker pool.
func (t *Tensor) Sum() float64 {
	var l [4]float64
	sumLanes(&l, t.Data, 0)
	return laneTotal(&l)
}

// minMaxRange scans data (which must be non-empty), seeding both extrema
// from data[0]. Comparisons are order-independent, so chunked scans combine
// bitwise-exactly: min/max over IEEE-754 floats is associative and
// commutative for non-NaN values, and NaN presence is tracked separately.
func minMaxRange(data []float32) (lo, hi float32, nan bool) {
	lo, hi = data[0], data[0]
	nan = data[0] != data[0]
	i := 1
	for ; i+4 <= len(data); i += 4 {
		v0, v1, v2, v3 := data[i], data[i+1], data[i+2], data[i+3]
		if v0 < lo {
			lo = v0
		}
		if v0 > hi {
			hi = v0
		}
		if v1 < lo {
			lo = v1
		}
		if v1 > hi {
			hi = v1
		}
		if v2 < lo {
			lo = v2
		}
		if v2 > hi {
			hi = v2
		}
		if v3 < lo {
			lo = v3
		}
		if v3 > hi {
			hi = v3
		}
		if v0 != v0 || v1 != v1 || v2 != v2 || v3 != v3 {
			nan = true
		}
	}
	for ; i < len(data); i++ {
		v := data[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if v != v {
			nan = true
		}
	}
	return lo, hi, nan
}

// MinMax returns the minimum and maximum element. If any element is NaN,
// both results are NaN (corruption is never hidden). An empty tensor cannot
// occur (New rejects empty shapes). Large tensors scan on the kernel worker
// pool; the comparisons are order-independent, so the result is
// bitwise-identical for any worker count.
func (t *Tensor) MinMax() (lo, hi float32) {
	n := len(t.Data)
	w := matmulWorkers
	var nan bool
	if n < absMaxParallelMin || w <= 1 {
		lo, hi, nan = minMaxRange(t.Data)
	} else {
		if w > n/absMaxParallelMin+1 {
			w = n/absMaxParallelMin + 1
		}
		los := make([]float32, w)
		his := make([]float32, w)
		nans := make([]bool, w)
		nc := parallelInto(w, n, func(c, lo, hi int) {
			los[c], his[c], nans[c] = minMaxRange(t.Data[lo:hi])
		})
		lo, hi = los[0], his[0]
		for c := 0; c < nc; c++ {
			if los[c] < lo {
				lo = los[c]
			}
			if his[c] > hi {
				hi = his[c]
			}
			if nans[c] {
				nan = true
			}
		}
	}
	if nan {
		v := float32(math.NaN())
		return v, v
	}
	return lo, hi
}

// HasNonFinite reports whether any element is NaN or ±Inf, via the abs-bits
// test (abs-bits ≥ the +Inf pattern), 4-way unrolled.
func (t *Tensor) HasNonFinite() bool {
	i := 0
	for ; i+4 <= len(t.Data); i += 4 {
		b0 := math.Float32bits(t.Data[i]) & absBitsMask
		b1 := math.Float32bits(t.Data[i+1]) & absBitsMask
		b2 := math.Float32bits(t.Data[i+2]) & absBitsMask
		b3 := math.Float32bits(t.Data[i+3]) & absBitsMask
		if b0 >= nonFiniteBits || b1 >= nonFiniteBits || b2 >= nonFiniteBits || b3 >= nonFiniteBits {
			return true
		}
	}
	for ; i < len(t.Data); i++ {
		if math.Float32bits(t.Data[i])&absBitsMask >= nonFiniteBits {
			return true
		}
	}
	return false
}

// AddInPlaceSum computes t += u element-wise and returns the lane-rule sum
// of the updated t, accumulated during the same write loop — bitwise-equal
// to calling AddInPlace then Sum, for any prior contents of t. ABFT uses it
// to fold the gradient-checksum read into the gradient accumulation.
func (t *Tensor) AddInPlaceSum(u *Tensor) float64 {
	if len(t.Data) != len(u.Data) {
		panic("tensor: AddInPlaceSum size mismatch")
	}
	var l [4]float64
	td, ud := t.Data, u.Data
	i := 0
	for ; i+4 <= len(td); i += 4 {
		td[i] += ud[i]
		td[i+1] += ud[i+1]
		td[i+2] += ud[i+2]
		td[i+3] += ud[i+3]
		l[0] += float64(td[i])
		l[1] += float64(td[i+1])
		l[2] += float64(td[i+2])
		l[3] += float64(td[i+3])
	}
	for ; i < len(td); i++ {
		td[i] += ud[i]
		l[i&3] += float64(td[i])
	}
	return laneTotal(&l)
}

// AddInPlaceAbsMax computes t += u element-wise — the exact loop of
// AddInPlace — and returns the abs-max of u's elements, folded into the same
// pass under the abs-bits ordering (NaN wins). The collective layer uses it
// to collect per-device contribution signatures for the cross-replica
// consistency check during gradient accumulation, so the check costs no
// extra tensor sweep.
func (t *Tensor) AddInPlaceAbsMax(u *Tensor) float32 {
	if len(t.Data) != len(u.Data) {
		panic("tensor: AddInPlaceAbsMax size mismatch")
	}
	var m0, m1, m2, m3 uint32
	td, ud := t.Data, u.Data
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
		td[i] += ud[i]
		if b := math.Float32bits(ud[i]) & absBitsMask; b > m0 {
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
	return math.Float32frombits(m0)
}

// AbsMaxTracker accumulates a running abs-max during a write loop (the
// fused-epilogue building block the layers use). Observe order is
// irrelevant; Value is bitwise-equal to AbsMax over the observed elements.
type AbsMaxTracker struct{ bits uint32 }

// Observe folds one value into the running maximum.
func (a *AbsMaxTracker) Observe(v float32) {
	if b := math.Float32bits(v) & absBitsMask; b > a.bits {
		a.bits = b
	}
}

// ObserveSlice folds a slice into the running maximum.
func (a *AbsMaxTracker) ObserveSlice(data []float32) { a.bits = absMaxBits(data, a.bits) }

// Value returns the running abs-max (NaN if a NaN was observed).
func (a *AbsMaxTracker) Value() float32 { return math.Float32frombits(a.bits) }

// AbsMaxOfBits converts an abs-bits maximum back to a float. Exposed for
// consumers (optimizer step stats) that track the raw bit maximum inline.
func AbsMaxOfBits(bits uint32) float32 { return math.Float32frombits(bits) }

// AbsBits returns v's sign-cleared bit pattern, the inline-tracking
// counterpart of AbsMaxTracker.Observe.
func AbsBits(v float32) uint32 { return math.Float32bits(v) & absBitsMask }

// Epilogue requests reductions over a GEMM destination, accumulated while
// the freshly written rows are still cache-hot (serial kernels reduce per
// row block; parallel kernels reduce in one ordered pass after the join, so
// the deterministic lane rule holds for any worker count). All requested
// results are bitwise-equal to running the standalone sweeps on dst
// afterwards.
type Epilogue struct {
	// WantSum accumulates the lane-rule total of dst into Sum.
	WantSum bool
	// WantColSums accumulates per-column sums (the ABFT column checksum)
	// into ColSums, which must be nil or have length n; rows accumulate in
	// ascending order.
	WantColSums bool
	// WantAbsMax tracks the running abs-max of dst into AbsMax.
	WantAbsMax bool

	Sum     float64
	ColSums []float64
	AbsMax  float32

	lanes  [4]float64
	maxTrk AbsMaxTracker
}

// reset clears accumulation state and sizes ColSums.
func (ep *Epilogue) reset(n int) {
	ep.Sum, ep.AbsMax = 0, 0
	ep.lanes = [4]float64{}
	ep.maxTrk = AbsMaxTracker{}
	if ep.WantColSums {
		if cap(ep.ColSums) < n {
			ep.ColSums = make([]float64, n)
		}
		ep.ColSums = ep.ColSums[:n]
		for j := range ep.ColSums {
			ep.ColSums[j] = 0
		}
	}
}

// accumRows folds rows [lo,hi) of the m×n destination into the requested
// reductions. Must be called with ascending, non-overlapping row ranges.
func (ep *Epilogue) accumRows(cd []float32, lo, hi, n int) {
	block := cd[lo*n : hi*n]
	if ep.WantSum {
		sumLanes(&ep.lanes, block, lo*n)
	}
	if ep.WantAbsMax {
		ep.maxTrk.ObserveSlice(block)
	}
	if ep.WantColSums {
		for i := lo; i < hi; i++ {
			row := cd[i*n : i*n+n]
			for j, v := range row {
				ep.ColSums[j] += float64(v)
			}
		}
	}
}

// finish publishes the accumulated results.
func (ep *Epilogue) finish() {
	if ep.WantSum {
		ep.Sum = laneTotal(&ep.lanes)
	}
	if ep.WantAbsMax {
		ep.AbsMax = ep.maxTrk.Value()
	}
}

// epRowBlock is the row granularity at which the serial GEMM path
// interleaves epilogue reductions with the write loop (rows stay in L1/L2).
const epRowBlock = 32

// MatMulIntoEp computes dst = A × B like MatMulInto and additionally
// accumulates the reductions requested by ep over dst during the write
// phase. ep results are bitwise-equal to the standalone sweeps (Sum,
// AbsMax, per-column sums) on dst, for any worker setting.
func MatMulIntoEp(dst, a, b *Tensor, mixed bool, ep *Epilogue) *Tensor {
	m, k, n := checkMatMul(a, b)
	checkDst("MatMulIntoEp", dst, m, n)
	ep.reset(n)
	zero(dst.Data)
	ad, bd, cd := a.Data, b.Data, dst.Data
	var rb []float32
	var rp *[]float32
	if mixed {
		rp = getPackBuf(len(bd))
		rb = *rp
		roundPanelBF16(rb, bd)
	}
	if !runParallel(m, m*k*n) {
		for lo := 0; lo < m; lo += epRowBlock {
			hi := lo + epRowBlock
			if hi > m {
				hi = m
			}
			if mixed {
				gemmNNPacked(cd, ad, rb, k, n, lo, hi)
			} else {
				gemmRows(cd, ad, bd, k, n, k, 1, lo, hi)
			}
			ep.accumRows(cd, lo, hi, n)
		}
	} else {
		if mixed {
			parallelRows(m, m*k*n, func(lo, hi int) {
				gemmNNPacked(cd, ad, rb, k, n, lo, hi)
			})
		} else {
			parallelRows(m, m*k*n, func(lo, hi int) {
				gemmRows(cd, ad, bd, k, n, k, 1, lo, hi)
			})
		}
		// One ordered pass after the join: the lane rule and ascending-row
		// column accumulation must not depend on the worker count.
		ep.accumRows(cd, 0, m, n)
	}
	if mixed {
		putPackBuf(rp)
	}
	ep.finish()
	dst.ClearDirty()
	return dst
}
