// Matrix-multiplication kernels: plain, fused-transpose (Aᵀ×B, A×Bᵀ) and
// destination-reuse variants, in FP32 and mixed bfloat16/FP32 precision,
// with cache blocking and optional goroutine parallelism.
//
// Determinism contract (internal/recovery depends on it): every kernel in
// this file produces bitwise-identical results regardless of the worker
// count, and identical to the original serial ikj kernel. The guarantees
// follow from two invariants:
//
//  1. Each output element C[i][j] is written by exactly one goroutine
//     (workers own disjoint, contiguous row ranges of C).
//  2. For a fixed element, partial products are accumulated in ascending-k
//     order, with the same skip rule (a-operand exactly zero before any
//     bfloat16 rounding) as the serial kernel. Register blocking over rows
//     of C reorders only *independent* accumulators, never the addends of
//     one element.
//
// The fused-transpose kernels index the transposed operand directly instead
// of materializing the transpose, but visit the addends of each element in
// the same ascending-k order, so they are bitwise-equal to
// MatMul(Transpose2D(a), b) and MatMul(a, Transpose2D(b)) respectively.
//
// Where useAVX is set (amd64 with AVX, decided once at init) the fp32
// inner loops below hand their rows to the assembly micro-kernels of
// gemm_amd64.s, which reproduce the Go loops bit for bit; everywhere else
// the Go loops are the only path, and they stay the reference either way.
package tensor

import (
	"fmt"
	"runtime"
)

var (
	// matmulWorkers is the maximum number of goroutines a single matmul may
	// fan out to. 1 disables kernel parallelism.
	matmulWorkers = runtime.GOMAXPROCS(0)
	// parallelFlops is the minimum m·k·n product at which a kernel spawns
	// goroutines; below it the fixed cost of the fan-out outweighs the win.
	parallelFlops = 1 << 17
)

// SetWorkers bounds the goroutine fan-out of the matmul kernels and returns
// the previous bound. n < 1 is clamped to 1 (serial execution). The setting
// is process-global and must not be changed while kernels are running; the
// result of every kernel is bitwise-independent of it.
func SetWorkers(n int) int {
	old := matmulWorkers
	if n < 1 {
		n = 1
	}
	matmulWorkers = n
	return old
}

// Workers returns the current kernel worker bound.
func Workers() int { return matmulWorkers }

// SetParallelThreshold sets the minimum m·k·n flop count at which matmul
// kernels parallelize, returning the previous threshold. 0 forces the
// parallel path even for tiny operands (used by the determinism regression
// tests); a very large value forces the serial path.
func SetParallelThreshold(flops int) int {
	old := parallelFlops
	parallelFlops = flops
	return old
}

// ParallelThreshold returns the current parallelization threshold.
func ParallelThreshold() int { return parallelFlops }

// runParallel reports whether a kernel over m rows and flops total work
// should fan out to goroutines. Callers use it to take a closure-free serial
// path (a heap-allocated closure per call would defeat the zero-alloc
// steady state) and only build the parallelRows closure when it pays off.
func runParallel(m, flops int) bool {
	w := matmulWorkers
	if w > m {
		w = m
	}
	return w > 1 && flops >= parallelFlops
}

// MatMul computes C = A × B for 2-D tensors A [m,k] and B [k,n] in FP32.
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := checkMatMul(a, b)
	return MatMulInto(New(m, n), a, b, false)
}

// MatMulMixed computes C = A × B with each scalar product rounded through
// bfloat16 before being accumulated in FP32 — the modeled accelerator's MAC
// precision (Sec 3.1: "bfloat16 and FP32 are used for MAC and element-wise
// operations, respectively").
func MatMulMixed(a, b *Tensor) *Tensor {
	m, _, n := checkMatMul(a, b)
	return MatMulInto(New(m, n), a, b, true)
}

// MatMulInto computes dst = A × B, overwriting dst (shape [m,n], any
// previous contents are discarded), and returns dst. It is the
// destination-reuse entry point the layers use with a Workspace so
// steady-state training steps allocate nothing.
func MatMulInto(dst, a, b *Tensor, mixed bool) *Tensor {
	m, k, n := checkMatMul(a, b)
	checkDst("MatMulInto", dst, m, n)
	zero(dst.Data)
	dst.ClearDirty()
	ad, bd, cd := a.Data, b.Data, dst.Data
	if mixed {
		rp := getPackBuf(len(bd))
		rb := *rp
		roundPanelBF16(rb, bd)
		if !runParallel(m, m*k*n) {
			gemmNNPacked(cd, ad, rb, k, n, 0, m)
		} else {
			parallelRows(m, m*k*n, func(lo, hi int) {
				gemmNNPacked(cd, ad, rb, k, n, lo, hi)
			})
		}
		putPackBuf(rp)
		return dst
	}
	if !runParallel(m, m*k*n) {
		gemmRows(cd, ad, bd, k, n, k, 1, 0, m)
		return dst
	}
	parallelRows(m, m*k*n, func(lo, hi int) {
		gemmRows(cd, ad, bd, k, n, k, 1, lo, hi)
	})
	return dst
}

// MatMulTA computes C = Aᵀ × B for A [k,m] and B [k,n] without
// materializing the transpose. Bitwise-equal to MatMul(Transpose2D(a), b).
func MatMulTA(a, b *Tensor, mixed bool) *Tensor {
	k, m, n := checkMatMulTA(a, b)
	c := New(m, n)
	_ = k
	return MatMulTAInto(c, a, b, mixed)
}

// MatMulTAInto computes dst = Aᵀ × B into dst [m,n], overwriting it.
func MatMulTAInto(dst, a, b *Tensor, mixed bool) *Tensor {
	k, m, n := checkMatMulTA(a, b)
	checkDst("MatMulTAInto", dst, m, n)
	zero(dst.Data)
	dst.ClearDirty()
	ad, bd, cd := a.Data, b.Data, dst.Data
	if mixed {
		rp := getPackBuf(len(bd))
		rb := *rp
		roundPanelBF16(rb, bd)
		if !runParallel(m, m*k*n) {
			gemmTAPacked(cd, ad, rb, k, m, n, 0, m)
		} else {
			parallelRows(m, m*k*n, func(lo, hi int) {
				gemmTAPacked(cd, ad, rb, k, m, n, lo, hi)
			})
		}
		putPackBuf(rp)
		return dst
	}
	if !runParallel(m, m*k*n) {
		gemmRows(cd, ad, bd, k, n, 1, m, 0, m)
		return dst
	}
	parallelRows(m, m*k*n, func(lo, hi int) {
		gemmRows(cd, ad, bd, k, n, 1, m, lo, hi)
	})
	return dst
}

// MatMulTB computes C = A × Bᵀ for A [m,k] and B [n,k] without
// materializing the transpose. Bitwise-equal to MatMul(a, Transpose2D(b)).
func MatMulTB(a, b *Tensor, mixed bool) *Tensor {
	m, _, n := checkMatMulTB(a, b)
	return MatMulTBInto(New(m, n), a, b, mixed)
}

// MatMulTBInto computes dst = A × Bᵀ into dst [m,n], overwriting it.
func MatMulTBInto(dst, a, b *Tensor, mixed bool) *Tensor {
	m, k, n := checkMatMulTB(a, b)
	checkDst("MatMulTBInto", dst, m, n)
	dst.ClearDirty()
	ad, bd, cd := a.Data, b.Data, dst.Data
	if mixed {
		rp := getPackBuf(len(bd))
		rb := *rp
		roundPanelBF16(rb, bd)
		if !runParallel(m, m*k*n) {
			gemmTBPacked(cd, ad, rb, k, n, 0, m)
		} else {
			parallelRows(m, m*k*n, func(lo, hi int) {
				gemmTBPacked(cd, ad, rb, k, n, lo, hi)
			})
		}
		putPackBuf(rp)
		return dst
	}
	if useAVX {
		gemmTBviaNN(cd, ad, bd, m, k, n)
		return dst
	}
	if !runParallel(m, m*k*n) {
		gemmTB(cd, ad, bd, k, n, 0, m)
		return dst
	}
	parallelRows(m, m*k*n, func(lo, hi int) {
		gemmTB(cd, ad, bd, k, n, lo, hi)
	})
	return dst
}

func checkMatMul(a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v × %v", a.Shape, b.Shape))
	}
	if a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v × %v", a.Shape, b.Shape))
	}
	checkOperands("MatMul", a, b)
	return a.Shape[0], a.Shape[1], b.Shape[1]
}

func checkMatMulTA(a, b *Tensor) (k, m, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulTA requires 2-D operands, got %v × %v", a.Shape, b.Shape))
	}
	if a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTA inner dimensions differ: %vᵀ × %v", a.Shape, b.Shape))
	}
	checkOperands("MatMulTA", a, b)
	return a.Shape[0], a.Shape[1], b.Shape[1]
}

func checkMatMulTB(a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulTB requires 2-D operands, got %v × %v", a.Shape, b.Shape))
	}
	if a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTB inner dimensions differ: %v × %vᵀ", a.Shape, b.Shape))
	}
	checkOperands("MatMulTB", a, b)
	return a.Shape[0], a.Shape[1], b.Shape[0]
}

// checkOperands rejects a 2-D operand whose Data does not hold exactly the
// elements its Shape names. The kernels index (and the assembly addresses)
// by shape alone.
func checkOperands(op string, a, b *Tensor) {
	if len(a.Data) != a.Shape[0]*a.Shape[1] {
		panic(fmt.Sprintf("tensor: %s left operand holds %d elements for shape %v", op, len(a.Data), a.Shape))
	}
	if len(b.Data) != b.Shape[0]*b.Shape[1] {
		panic(fmt.Sprintf("tensor: %s right operand holds %d elements for shape %v", op, len(b.Data), b.Shape))
	}
}

func checkDst(op string, dst *Tensor, m, n int) {
	if len(dst.Data) != m*n {
		panic(fmt.Sprintf("tensor: %s destination holds %d elements, result needs %d×%d", op, len(dst.Data), m, n))
	}
}

func zero(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// gemmRows computes rows [lo,hi) of C += A×B for B [k,n], where element
// in FP32, where element (i,kk) of A is a[i*aRow+kk*aK]: (k, 1) for a
// row-major A [m,k] — the NN kernel — and (1, m) for the transposed view of a
// row-major [k,m] — the TA kernel, which therefore never materializes a
// transpose. C must start at +0. (The mixed-precision kernels are in pack.go.)
//
// The loop order is ikj (B rows stream sequentially) with 4-row register
// blocking: one pass over a B row feeds four C rows, quartering B traffic.
// A k-step of a 4-row block is one of three kinds. All four a zero: skipped.
// All four non-zero: the dense step, four rows updated in one pass. Mixed:
// one axpyRow per row, which skips its zeros. The skip rule (a-element
// exactly zero) and ascending-k accumulation match the original serial kernel
// exactly.
//
// With the AVX kernels a dense step is not taken alone: denseRun4
// measures the run of dense steps it starts, and gemmTile4 takes the whole
// run in one call, with the k-loop and the tile of C in registers. The tile
// is loaded from C before the run and stored after it, and the steps between
// runs are handled where they fall, so every element still receives the same
// addends in the same ascending-k order from the same +0 start.
func gemmRows(c, a, b []float32, k, n, aRow, aK int, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		c4 := c[i*n : (i+4)*n]
		c0, c1, c2, c3 := c4[:n], c4[n:2*n], c4[2*n:3*n], c4[3*n:]
		a4 := a[i*aRow:]
		for kk := 0; kk < k; kk++ {
			ak := a4[kk*aK:]
			av0, av1, av2, av3 := ak[0], ak[aRow], ak[2*aRow], ak[3*aRow]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			bk := b[kk*n : kk*n+n]
			if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
				if useAVX {
					run := denseRun4(ak, k-kk, aRow, aK)
					gemmTile4(c4, b[kk*n:], ak, n, run, aRow, aK)
					kk += run - 1
					continue
				}
				for j, bv := range bk {
					c0[j] += av0 * bv
					c1[j] += av1 * bv
					c2[j] += av2 * bv
					c3[j] += av3 * bv
				}
				continue
			}
			axpyRow(c0, bk, av0)
			axpyRow(c1, bk, av1)
			axpyRow(c2, bk, av2)
			axpyRow(c3, bk, av3)
		}
	}
	for ; i < hi; i++ {
		ci := c[i*n : i*n+n]
		for kk := 0; kk < k; kk++ {
			av := a[i*aRow+kk*aK]
			if av == 0 {
				continue
			}
			axpyRow(ci, b[kk*n:kk*n+n], av)
		}
	}
}

// gemmTile4 accumulates kLen consecutive dense k-steps into the four rows of
// c (row length n): c[r*n+j] += a[r*aRow+kk*aK] * b[kk*n+j], kk ascending.
// The kernel behind it works on addresses, so the three extents are checked
// here, before it sees one.
func gemmTile4(c, b, a []float32, n, kLen, aRow, aK int) {
	if n == 0 {
		return
	}
	if n < 0 || kLen <= 0 || aRow < 0 || aK < 0 {
		panic(fmt.Sprintf("tensor: gemmTile4 with %d columns, %d k-steps, A row step %d, A k step %d", n, kLen, aRow, aK))
	}
	if 4*n > len(c) {
		panic(fmt.Sprintf("tensor: gemmTile4 needs 4×%d elements of C, slice holds %d", n, len(c)))
	}
	if kLen*n > len(b) {
		panic(fmt.Sprintf("tensor: gemmTile4 needs %d×%d elements of B, slice holds %d", kLen, n, len(b)))
	}
	if last := 3*aRow + (kLen-1)*aK; last >= len(a) {
		panic(fmt.Sprintf("tensor: gemmTile4 reaches element %d of A, slice holds %d", last, len(a)))
	}
	gemmTile4AVX(&c[0], &b[0], &a[0], n, kLen, aRow, aK)
}

// denseRun4 returns how many of the kLen k-steps starting at a are dense
// before the first that is not, a step being dense when none of
// a[r*aRow+kk*aK], r < 4, is ±0 (a NaN is not zero). One of the two strides
// must be 1 — the two layouts gemmRows has and the kernel vectorizes. Checked
// like gemmTile4.
func denseRun4(a []float32, kLen, aRow, aK int) int {
	if kLen <= 0 || aRow < 0 || aK < 0 || (aRow != 1 && aK != 1) {
		panic(fmt.Sprintf("tensor: denseRun4 with %d k-steps, A row step %d, A k step %d", kLen, aRow, aK))
	}
	if last := 3*aRow + (kLen-1)*aK; last >= len(a) {
		panic(fmt.Sprintf("tensor: denseRun4 reaches element %d of A, slice holds %d", last, len(a)))
	}
	return denseRun4AVX(&a[0], kLen, aRow, aK)
}

// axpyRow accumulates ci += av·bk. A zero av is skipped entirely, matching
// the serial kernel's skip rule.
func axpyRow(ci, bk []float32, av float32) {
	if av == 0 {
		return
	}
	if useAVX {
		axpy1AVX(ci[:len(bk)], bk, av)
		return
	}
	for j, bv := range bk {
		ci[j] += av * bv
	}
}

// gemmTB computes rows [lo,hi) of C = A×Bᵀ in FP32 for B [n,k] — the path
// of builds without the AVX kernels — as dot products over
// two sequential streams, blocked four output columns at a time so the four
// independent accumulator chains hide FP-add latency. Each accumulator
// receives its addends in the same ascending-k order, with the same a==0
// skip rule, as the serial kernel running on a materialized Bᵀ, so results
// are bitwise identical (blocking interleaves only *different* elements'
// accumulations, never the addends of one element).
func gemmTB(c, a, b []float32, k, n int, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : i*k+k]
		ci := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : j*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var acc0, acc1, acc2, acc3 float32
			for kk, av := range ai {
				if av == 0 {
					continue
				}
				acc0 += av * b0[kk]
				acc1 += av * b1[kk]
				acc2 += av * b2[kk]
				acc3 += av * b3[kk]
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = acc0, acc1, acc2, acc3
		}
		for ; j < n; j++ {
			bj := b[j*k : j*k+k]
			var acc float32
			for kk, av := range ai {
				if av == 0 {
					continue
				}
				acc += av * bj[kk]
			}
			ci[j] = acc
		}
	}
}

// gemmTBviaNN computes C = A×Bᵀ for B [n,k] as "transpose B into pooled
// scratch, then the NN row kernel". gemmTB's dot products cannot use vector
// lanes without a horizontal sum, which would reorder one element's addends;
// the NN form keeps every element's chain — +0 start, ascending k, a == 0
// skipped — and vectorizes across elements, so it is bitwise-equal to
// MatMul(a, Transpose2D(b)), the contract MatMulTB documents.
func gemmTBviaNN(c, a, b []float32, m, k, n int) {
	rp := getPackBuf(k * n)
	bt := *rp
	transposeInto(bt, b, n, k)
	zero(c)
	if !runParallel(m, m*k*n) {
		gemmRows(c, a, bt, k, n, k, 1, 0, m)
	} else {
		parallelRows(m, m*k*n, func(lo, hi int) {
			gemmRows(c, a, bt, k, n, k, 1, lo, hi)
		})
	}
	putPackBuf(rp)
}

// transposeInto writes the transpose of src [rows,cols] into dst
// [cols,rows]: whole 8x8 blocks through the AVX kernel where it is built,
// the rest element by element.
func transposeInto(dst, src []float32, rows, cols int) {
	r8, c8 := 0, 0
	if useAVX {
		r8, c8 = rows&^7, cols&^7
		for i := 0; i < r8; i += 8 {
			transposeStrip8AVX(dst[i:], src[i*cols:], rows, cols)
		}
	}
	for i := 0; i < rows; i++ {
		j0 := 0
		if i < r8 {
			j0 = c8
		}
		for j := j0; j < cols; j++ {
			dst[j*rows+i] = src[i*cols+j]
		}
	}
}
