// Panel-packed bfloat16 GEMM: the mixed-precision kernels.
//
// The mixed-precision GEMMs model the accelerator's MAC unit: every product
// is RoundBF16(RoundBF16(a) · RoundBF16(b)), accumulated in FP32. Rounding
// the b-operand inside the inner loop would round each B element once per
// output row — O(M) calls on the same value — and would hold the 4-row
// register block to four separate passes over each B row.
//
// So roundPanelBF16 converts the whole B panel to its bfloat16-rounded
// image once, into a pooled scratch buffer, and the kernels here stream the
// pre-rounded panel with full register blocking: one pass over a B row feeds
// four C rows (gemmNNPacked, gemmTAPacked) or four accumulator columns
// (gemmTBPacked), and the A values are rounded once per (row, k) register
// and reused across the whole row/column block.
//
// RoundBF16 is a pure function, so pre-rounding only memoizes it: every
// output element receives exactly the addends
// RoundBF16(RoundBF16(a)·RoundBF16(b)) in ascending-k order, and the skip
// rule tests the RAW a-element against zero before any rounding (the
// kernels read raw A). pack_test.go pins this against the per-element
// reference across odd remainders, all three transpose variants, and worker
// counts.
package tensor

import (
	"sync"

	"repro/internal/numerics"
)

// packBufs pools panel scratch buffers across calls and engines, keeping
// the steady state allocation-free without threading a Workspace through
// every GEMM entry point.
var packBufs sync.Pool

// getPackBuf returns a pooled scratch buffer of exactly n elements.
func getPackBuf(n int) *[]float32 {
	if p, ok := packBufs.Get().(*[]float32); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]float32, n)
	return &b
}

// putPackBuf returns a buffer to the pool.
func putPackBuf(p *[]float32) { packBufs.Put(p) }

// roundPanelBF16 writes the bfloat16-rounded image of src into dst: the
// memoization pass. dst[i] == RoundBF16(src[i]) for every i (NaN patterns
// are preserved by RoundBF16, so corrupted operands stay poisonous).
func roundPanelBF16(dst, src []float32) {
	for i, v := range src {
		dst[i] = numerics.RoundBF16(v)
	}
}

// axpyRowPacked accumulates ci += RoundBF16(RoundBF16(av)·bk[j]) over a
// pre-rounded B row. av is the RAW a-element: the zero skip happens before
// rounding, exactly like axpyRow.
func axpyRowPacked(ci, bk []float32, av float32) {
	if av == 0 {
		return
	}
	av = numerics.RoundBF16(av)
	for j, bv := range bk {
		ci[j] += numerics.RoundBF16(av * bv)
	}
}

// gemmNNPacked computes rows [lo,hi) of C += A×B in mixed precision for a
// row-major A [m,k] over the pre-rounded panel rb (B [k,n] after
// roundPanelBF16). C must start at +0. Same loop structure as gemmRows — ikj,
// 4-row register blocking, one pass over a B row feeding four C rows — with
// the skip rule testing the raw a-element before it is rounded and every
// element accumulating in ascending k.
func gemmNNPacked(c, a, rb []float32, k, n int, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		c0 := c[(i+0)*n : (i+0)*n+n]
		c1 := c[(i+1)*n : (i+1)*n+n]
		c2 := c[(i+2)*n : (i+2)*n+n]
		c3 := c[(i+3)*n : (i+3)*n+n]
		for kk := 0; kk < k; kk++ {
			av0 := a[(i+0)*k+kk]
			av1 := a[(i+1)*k+kk]
			av2 := a[(i+2)*k+kk]
			av3 := a[(i+3)*k+kk]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			bk := rb[kk*n : kk*n+n]
			if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
				r0 := numerics.RoundBF16(av0)
				r1 := numerics.RoundBF16(av1)
				r2 := numerics.RoundBF16(av2)
				r3 := numerics.RoundBF16(av3)
				for j, bv := range bk {
					c0[j] += numerics.RoundBF16(r0 * bv)
					c1[j] += numerics.RoundBF16(r1 * bv)
					c2[j] += numerics.RoundBF16(r2 * bv)
					c3[j] += numerics.RoundBF16(r3 * bv)
				}
				continue
			}
			axpyRowPacked(c0, bk, av0)
			axpyRowPacked(c1, bk, av1)
			axpyRowPacked(c2, bk, av2)
			axpyRowPacked(c3, bk, av3)
		}
	}
	for ; i < hi; i++ {
		ci := c[i*n : i*n+n]
		for kk := 0; kk < k; kk++ {
			av := a[i*k+kk]
			if av == 0 {
				continue
			}
			axpyRowPacked(ci, rb[kk*n:kk*n+n], av)
		}
	}
}

// gemmTAPacked computes rows [lo,hi) of C += Aᵀ×B in mixed precision for A
// [k,m] over the pre-rounded panel rb (B [k,n]); gemmNNPacked on a transposed
// A, which it indexes in place.
func gemmTAPacked(c, a, rb []float32, k, m, n int, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		c0 := c[(i+0)*n : (i+0)*n+n]
		c1 := c[(i+1)*n : (i+1)*n+n]
		c2 := c[(i+2)*n : (i+2)*n+n]
		c3 := c[(i+3)*n : (i+3)*n+n]
		for kk := 0; kk < k; kk++ {
			arow := a[kk*m+i : kk*m+i+4]
			av0, av1, av2, av3 := arow[0], arow[1], arow[2], arow[3]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			bk := rb[kk*n : kk*n+n]
			if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
				r0 := numerics.RoundBF16(av0)
				r1 := numerics.RoundBF16(av1)
				r2 := numerics.RoundBF16(av2)
				r3 := numerics.RoundBF16(av3)
				for j, bv := range bk {
					c0[j] += numerics.RoundBF16(r0 * bv)
					c1[j] += numerics.RoundBF16(r1 * bv)
					c2[j] += numerics.RoundBF16(r2 * bv)
					c3[j] += numerics.RoundBF16(r3 * bv)
				}
				continue
			}
			axpyRowPacked(c0, bk, av0)
			axpyRowPacked(c1, bk, av1)
			axpyRowPacked(c2, bk, av2)
			axpyRowPacked(c3, bk, av3)
		}
	}
	for ; i < hi; i++ {
		ci := c[i*n : i*n+n]
		for kk := 0; kk < k; kk++ {
			av := a[kk*m+i]
			if av == 0 {
				continue
			}
			axpyRowPacked(ci, rb[kk*n:kk*n+n], av)
		}
	}
}

// gemmTBPacked computes rows [lo,hi) of C = A×Bᵀ in mixed precision for A
// [m,k] over the pre-rounded panel rb (B [n,k]): dot products over two
// sequential streams, four output columns at a time, like gemmTB. The
// a-element is rounded once per (i,kk), after the raw-zero skip test.
func gemmTBPacked(c, a, rb []float32, k, n int, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : i*k+k]
		ci := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := rb[j*k : j*k+k]
			b1 := rb[(j+1)*k : (j+1)*k+k]
			b2 := rb[(j+2)*k : (j+2)*k+k]
			b3 := rb[(j+3)*k : (j+3)*k+k]
			var acc0, acc1, acc2, acc3 float32
			for kk, av := range ai {
				if av == 0 {
					continue
				}
				avr := numerics.RoundBF16(av)
				acc0 += numerics.RoundBF16(avr * b0[kk])
				acc1 += numerics.RoundBF16(avr * b1[kk])
				acc2 += numerics.RoundBF16(avr * b2[kk])
				acc3 += numerics.RoundBF16(avr * b3[kk])
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = acc0, acc1, acc2, acc3
		}
		for ; j < n; j++ {
			bj := rb[j*k : j*k+k]
			var acc float32
			for kk, av := range ai {
				if av == 0 {
					continue
				}
				acc += numerics.RoundBF16(numerics.RoundBF16(av) * bj[kk])
			}
			ci[j] = acc
		}
	}
}
