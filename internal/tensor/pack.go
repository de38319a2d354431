// Panel-packed bfloat16 GEMM.
//
// The mixed-precision kernels in matmul.go model the accelerator's MAC
// unit: every product is RoundBF16(RoundBF16(a) · RoundBF16(b)), accumulated
// in FP32. Implemented naively, the b-operand rounding is the expensive
// part: each B element is re-rounded once per output row — O(M) redundant
// calls on the same value — and the 4-row register-blocked path degrades to
// four separate passes over each B row because every pass re-rounds it.
//
// Packing fixes both. roundPanelBF16 converts the whole B panel to its
// bfloat16-rounded image once, into a pooled scratch buffer; the packed
// kernels then stream the pre-rounded panel with full register blocking:
// one pass over a B row feeds four C rows (gemmRows) or four
// accumulator columns (gemmTB), and the A micro-row values are rounded once
// per (row, k) register and reused across the whole row/column block.
//
// Bitwise equivalence is by construction: RoundBF16 is a pure function, so
// pre-rounding only memoizes it — every output element still receives
// exactly the addends RoundBF16(RoundBF16(a)·RoundBF16(b)) in ascending-k
// order, and the skip rule still tests the RAW a-element against zero
// before any rounding (the packed kernels read raw A). The equivalence
// tests in pack_test.go pin this across odd remainders, all three
// transpose variants, and worker counts.
package tensor

import (
	"sync"

	"repro/internal/numerics"
)

// packMixed enables panel packing for mixed-precision GEMMs. Process-global
// like matmulWorkers; must not be flipped while kernels run. Results are
// bitwise-identical either way (the knob exists for benchmarking and as a
// fallback).
var packMixed = true

// SetPackBF16 toggles bf16 panel packing and returns the previous setting.
func SetPackBF16(on bool) bool {
	old := packMixed
	packMixed = on
	return old
}

// PackBF16 reports whether mixed-precision GEMMs use panel packing.
func PackBF16() bool { return packMixed }

// packMinRows is the output row count from which packing pays: the packing
// pass costs one extra sweep over B, amortized over M rows of reuse, so a
// single-row GEMM (M=1) would only break even.
const packMinRows = 2

// usePacked reports whether a mixed GEMM over m output rows should take the
// packed path.
func usePacked(mixed bool, m int) bool { return mixed && packMixed && m >= packMinRows }

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

// packPanelTile rounds the [k0:k0+kt) × [j0:j0+nt) tile of the B panel
// ([k,n] row-major, row stride n) into dst with row stride nt. Tiles are
// disjoint, so across a full tiling sweep each B element is rounded exactly
// once — the same memoization as roundPanelBF16, restricted to a tile.
func packPanelTile(dst, b []float32, n, k0, kt, j0, nt int) {
	for kk := 0; kk < kt; kk++ {
		src := b[(k0+kk)*n+j0 : (k0+kk)*n+j0+nt]
		drow := dst[kk*nt : kk*nt+nt]
		for j, v := range src {
			drow[j] = numerics.RoundBF16(v)
		}
	}
}

// packPanelTileTB rounds the [j0:j0+nt) × [k0:k0+kt) tile of a Bᵀ-layout
// panel ([n,k] row-major, row stride k) into dst with row stride kt.
func packPanelTileTB(dst, b []float32, k, k0, kt, j0, nt int) {
	for j := 0; j < nt; j++ {
		src := b[(j0+j)*k+k0 : (j0+j)*k+k0+kt]
		drow := dst[j*kt : j*kt+kt]
		for kk, v := range src {
			drow[kk] = numerics.RoundBF16(v)
		}
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

// gemmNNPacked computes the [j0:j0+nt) columns of rows [lo,hi) of C = A×B
// in mixed precision over the pre-rounded tile rb (the [k0:k0+kt) ×
// [j0:j0+nt) block of B, row stride nt; ka is A's row stride). Same loop
// structure, skip rule and ascending-k accumulation as gemmRows' mixed path;
// unlike it, the 4-row block makes a single pass over each B row because no
// re-rounding is needed per C row. The full-panel call is simply k0=j0=0,
// kt=ka, nt=n; tiled calls accumulate into C across ascending k-tiles, so
// per-element addend order is unchanged.
func gemmNNPacked(c, a, rb []float32, ka, k0, kt, n, j0, nt int, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		c0 := c[(i+0)*n+j0 : (i+0)*n+j0+nt]
		c1 := c[(i+1)*n+j0 : (i+1)*n+j0+nt]
		c2 := c[(i+2)*n+j0 : (i+2)*n+j0+nt]
		c3 := c[(i+3)*n+j0 : (i+3)*n+j0+nt]
		for kk := 0; kk < kt; kk++ {
			av0 := a[(i+0)*ka+k0+kk]
			av1 := a[(i+1)*ka+k0+kk]
			av2 := a[(i+2)*ka+k0+kk]
			av3 := a[(i+3)*ka+k0+kk]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			bk := rb[kk*nt : kk*nt+nt]
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
		ci := c[i*n+j0 : i*n+j0+nt]
		for kk := 0; kk < kt; kk++ {
			av := a[i*ka+k0+kk]
			if av == 0 {
				continue
			}
			axpyRowPacked(ci, rb[kk*nt:kk*nt+nt], av)
		}
	}
}

// gemmTAPacked computes the [j0:j0+nt) columns of rows [lo,hi) of C = Aᵀ×B
// for A [k,m] over the pre-rounded tile rb (B's [k0:k0+kt) × [j0:j0+nt)
// block, row stride nt); the packed counterpart of gemmRows' mixed path on a
// transposed A.
// Full-panel call: k0=j0=0, kt=k, nt=n.
func gemmTAPacked(c, a, rb []float32, k0, kt, m, n, j0, nt int, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		c0 := c[(i+0)*n+j0 : (i+0)*n+j0+nt]
		c1 := c[(i+1)*n+j0 : (i+1)*n+j0+nt]
		c2 := c[(i+2)*n+j0 : (i+2)*n+j0+nt]
		c3 := c[(i+3)*n+j0 : (i+3)*n+j0+nt]
		for kk := 0; kk < kt; kk++ {
			arow := a[(k0+kk)*m+i : (k0+kk)*m+i+4]
			av0, av1, av2, av3 := arow[0], arow[1], arow[2], arow[3]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			bk := rb[kk*nt : kk*nt+nt]
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
		ci := c[i*n+j0 : i*n+j0+nt]
		for kk := 0; kk < kt; kk++ {
			av := a[(k0+kk)*m+i]
			if av == 0 {
				continue
			}
			axpyRowPacked(ci, rb[kk*nt:kk*nt+nt], av)
		}
	}
}

// gemmTBPacked computes the [j0:j0+nt) columns of rows [lo,hi) of C = A×Bᵀ
// for B [n,k] over the pre-rounded tile rb (B's [j0:j0+nt) rows ×
// [k0:k0+kt) cols, row stride kt; ka is A's row stride). The b-row
// re-rounding that gemmTB's mixed path performed per output row i — O(M)
// redundant — is gone; the a-element is still rounded once per (i,kk) after
// the raw-zero skip test.
//
// The destination must be zeroed by the caller: accumulators are seeded
// from C so ascending k-tiles extend one per-element accumulation chain.
// Seeding from a zeroed C is the same float32 op sequence as the old local
// zero-initialized accumulator, so the full-panel result is bit-unchanged.
func gemmTBPacked(c, a, rb []float32, ka, k0, kt, n, j0, nt int, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a[i*ka+k0 : i*ka+k0+kt]
		ci := c[i*n+j0 : i*n+j0+nt]
		j := 0
		for ; j+4 <= nt; j += 4 {
			b0 := rb[j*kt : j*kt+kt]
			b1 := rb[(j+1)*kt : (j+1)*kt+kt]
			b2 := rb[(j+2)*kt : (j+2)*kt+kt]
			b3 := rb[(j+3)*kt : (j+3)*kt+kt]
			acc0, acc1, acc2, acc3 := ci[j], ci[j+1], ci[j+2], ci[j+3]
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
		for ; j < nt; j++ {
			bj := rb[j*kt : j*kt+kt]
			acc := ci[j]
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
