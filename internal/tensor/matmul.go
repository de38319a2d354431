// Matrix-multiplication kernels: plain, fused-transpose (Aᵀ×B, A×Bᵀ) and
// destination-reuse variants, in FP32 and mixed bfloat16/FP32 precision,
// with register blocking. Every kernel runs on the calling goroutine:
// campaigns fill the cores with whole experiments, one engine each.
//
// Determinism contract (internal/recovery depends on it): every kernel in
// this file produces results bitwise-identical to the original serial ikj
// kernel. For a fixed element, partial products are accumulated in
// ascending-k order, with the same skip rule (a-operand exactly zero before
// any bfloat16 rounding) as the serial kernel. Register blocking over rows
// of C reorders only *independent* accumulators, never the addends of one
// element — so an element's bits depend on its row of A and its column of B
// alone, not on how many other rows or columns the product has.
//
// The fused-transpose kernels index the transposed operand directly instead
// of materializing the transpose, but visit the addends of each element in
// the same ascending-k order, so they are bitwise-equal to
// MatMul(aᵀ, b) and MatMul(a, bᵀ) respectively.
//
// Where useAVX is set (amd64 with AVX, decided once at init) the fp32
// inner loops below hand their rows to the assembly micro-kernels of
// gemm_amd64.s, which reproduce the Go loops bit for bit; everywhere else
// the Go loops are the only path, and they stay the reference either way.
package tensor

import "fmt"

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
	dst.ClearDirty()
	matMulNN(dst.Data, a.Data, b.Data, m, k, n, mixed)
	return dst
}

// MatMulCountedInto is MatMulInto for an fp32 A whose ±0 count the caller
// took with CountZeros (negative: not counted), so the product does not
// count it again. The bits are MatMulInto's.
func MatMulCountedInto(dst, a, b *Tensor, zeros int, mixed bool) *Tensor {
	if mixed {
		return MatMulInto(dst, a, b, true)
	}
	m, k, n := checkMatMul(a, b)
	checkDst("MatMulCountedInto", dst, m, n)
	dst.ClearDirty()
	gemmBatchOf(dst.Data, a.Data, b.Data, 1, m, k, n, k, 1, tileFromZero, 0, zeros)
	return dst
}

// matMulNN is MatMulInto on the data: c [m,n] = a × b for a [m,k], b [k,n].
func matMulNN(c, a, b []float32, m, k, n int, mixed bool) {
	if mixed {
		zero(c)
		rp := getPackBuf(len(b))
		roundPanelBF16(*rp, b)
		gemmNNPacked(c, a, *rp, m, k, n)
		putPackBuf(rp)
		return
	}
	gemmBatch(c, a, b, 1, m, k, n, k, 1, tileFromZero, 0)
}

// MatMulTAInto computes dst = Aᵀ × B into dst [m,n], overwriting it.
func MatMulTAInto(dst, a, b *Tensor, mixed bool) *Tensor {
	k, m, n := checkMatMulTA(a, b)
	checkDst("MatMulTAInto", dst, m, n)
	dst.ClearDirty()
	matMulTA(dst.Data, a.Data, b.Data, k, m, n, mixed)
	return dst
}

// matMulTA is MatMulTAInto on the data: c [m,n] = aᵀ × b for a [k,m], b [k,n].
func matMulTA(c, a, b []float32, k, m, n int, mixed bool) {
	if mixed {
		zero(c)
		rp := getPackBuf(len(b))
		roundPanelBF16(*rp, b)
		gemmTAPacked(c, a, *rp, k, m, n)
		putPackBuf(rp)
		return
	}
	gemmBatch(c, a, b, 1, m, k, n, 1, m, tileFromZero, 0)
}

// MatMulTB computes C = A × Bᵀ for A [m,k] and B [n,k] without
// materializing the transpose. Bitwise-equal to MatMul(a, bᵀ).
func MatMulTB(a, b *Tensor, mixed bool) *Tensor {
	m, _, n := checkMatMulTB(a, b)
	return MatMulTBInto(New(m, n), a, b, mixed)
}

// MatMulTBInto computes dst = A × Bᵀ into dst [m,n], overwriting it.
func MatMulTBInto(dst, a, b *Tensor, mixed bool) *Tensor {
	m, k, n := checkMatMulTB(a, b)
	checkDst("MatMulTBInto", dst, m, n)
	dst.ClearDirty()
	matMulTB(dst.Data, a.Data, b.Data, m, k, n, mixed)
	return dst
}

// AddMatMulTB adds A × Bᵀ to dst [m,n] for A [m,k] and B [n,k]: bitwise
// dst.AddInPlace(MatMulTB(a, b, mixed)), the attention's later terms of its
// input gradient. In fp32 the product lands as AddMatMulTABlocks' does: with no
// ±0 in A each chain, from +0, is added to dst as the tile is stored
// (tileAddToC), Bᵀ on tbTileAVX's frame where it fits; otherwise Bᵀ goes to
// a pooled scratch and the product through gemmBatch.
func AddMatMulTB(dst, a, b *Tensor, mixed bool) {
	m, k, n := checkMatMulTB(a, b)
	checkDst("AddMatMulTB", dst, m, n)
	if mixed {
		rp := getPackBuf(m * n)
		matMulTB(*rp, a.Data, b.Data, m, k, n, true)
		addBlocks(dst.Data, *rp, &blockShape{n: 1, rows: 1, cols: m * n})
		putPackBuf(rp)
		return
	}
	if allNonZero(a.Data) && tbTile(dst.Data, a.Data, b.Data, 1, m, k, n, tileAddToC, 0) {
		return
	}
	bt := getPackBuf(k * n)
	transposeBlocks(*bt, b.Data, n, k, 1)
	gemmBatch(dst.Data, a.Data, *bt, 1, m, k, n, k, 1, tileAddToC, 0)
	putPackBuf(bt)
}

// matMulTB is MatMulTBInto on the data: c [m,n] = a × bᵀ for a [m,k], b [n,k].
func matMulTB(c, a, b []float32, m, k, n int, mixed bool) {
	if mixed {
		rp := getPackBuf(len(b))
		roundPanelBF16(*rp, b)
		gemmTBPacked(c, a, *rp, m, k, n)
		putPackBuf(rp)
		return
	}
	if useAVX {
		gemmTBAVX(c, a, b, m, k, n)
		return
	}
	gemmTB(c, a, b, m, k, n)
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

// gemmKind is one of the three FP32 paths (gemmPath).
type gemmKind uint8

const (
	pathRows gemmKind = iota
	pathDense
	pathSparse
)

// gemmPath decides, from the data, which kernel computes a product. Without
// the AVX kernels, or with no k-steps, it is gemmRows. Otherwise it counts
// A's ±0: none sends the whole matrix to gemmTile in one call; three in four
// or more (a one-hot A: the embedding's input, as NN and as the TA weight
// gradient) send it to gemmSparse; anything between to gemmRows. Both of
// the last two accumulate into C, which gemmBatch clears first.
//
// The three give the same bits. With no zero in A the skip rule skips
// nothing: gemmRows finds every k-step of a 4-row block dense and hands the
// block to the tile kernel as one run of k steps from a +0 C, and runs each
// remainder row as k unskipped axpyRows. gemmTile forms the same products,
// adds them to the same +0 chains in the same ascending-k order, with the
// operands of each operation in the same order. gemmSparse is gemmRows'
// mixed step for every k-step of every row: each non-zero a's axpyRow, k
// ascending, onto the same +0 start; a dense step of gemmRows adds the same
// products in the same order, four rows at a time.
//
// gemmSparse loads and stores a row of C for every product row, where
// gemmRows keeps four rows in registers over a run of dense steps; at half
// zeros (a convolution behind a ReLU) the two are about even, and gemmRows
// is kept there. EXPERIMENTS.md has the measurements.
func gemmPath(a []float32, k int) gemmKind {
	if k == 0 {
		return pathRows
	}
	return gemmPathOf(a, -1)
}

// gemmPathOf is gemmPath for a product with k-steps, from a's ±0 count when
// the caller took it once for several products over the same A (zeros ≥ 0,
// CountZeros), or counted here (zeros < 0).
func gemmPathOf(a []float32, zeros int) gemmKind {
	if !useAVX {
		return pathRows
	}
	if zeros < 0 {
		zeros = countZeros(a)
	}
	if zeros == 0 {
		return pathDense
	}
	if 4*zeros >= 3*len(a) {
		return pathSparse
	}
	return pathRows
}

// CountZeros returns how many elements of t are ±0: the figure an FP32
// product picks its kernel path from, taken once by a caller that hands it
// to several products over the same A operand (MatMulCountedInto,
// AddMatMulTABlocks). Where no path depends on it — builds without the AVX
// kernels — it counts nothing and returns −1, which those products read as
// "not counted".
func CountZeros(t *Tensor) int {
	if !useAVX {
		return -1
	}
	return countZeros(t.Data)
}

// countZeros returns how many elements of a are ±0 (a NaN is not zero).
func countZeros(a []float32) int {
	if useAVX {
		if len(a) == 0 {
			return 0
		}
		return zerosAVX(&a[0], len(a))
	}
	z := 0
	for _, v := range a {
		if v == 0 {
			z++
		}
	}
	return z
}

// allNonZero reports whether no element of a is ±0 (a NaN is not zero).
func allNonZero(a []float32) bool { return countZeros(a) == 0 }

// gemmRows computes C += A×B in FP32 for B [k,n], where
// element (i,kk) of A is a[i*aRow+kk*aK]: (k, 1) for a
// row-major A [m,k] — the NN kernel — and (1, m) for the transposed view of a
// row-major [k,m] — the TA kernel, which therefore never materializes a
// transpose. C must start at +0. (The mixed-precision kernels are in pack.go.)
//
// The loop order is ikj (B rows stream sequentially) with 4-row register
// blocking: one pass over a B row feeds four C rows, quartering B traffic.
// A k-step of a 4-row block is one of three kinds. All four a zero: skipped.
// All four non-zero: the dense step, four rows updated in one pass. Mixed:
// one axpyRow per non-zero row. The skip rule (a-element
// exactly zero) and ascending-k accumulation match the original serial kernel
// exactly.
//
// With the AVX kernels a dense step is not taken alone: denseRun4
// measures the run of dense steps it starts, and gemmTile takes the whole
// run in one call, with the k-loop and the tile of C in registers. The tile
// is loaded from C before the run and stored after it, and the steps between
// runs are handled where they fall, so every element still receives the same
// addends in the same ascending-k order from the same +0 start.
func gemmRows(c, a, b []float32, m, k, n, aRow, aK int) {
	i := 0
	for ; i+4 <= m; i += 4 {
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
					gemmTile(c4, b[kk*n:], ak, 4, n, run, aRow, aK, tileFromC, false)
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
			// Mixed: the zero rows are skipped here, not in axpyRow, so a
			// one-hot A (the embedding's input) costs one call a k-step.
			if av0 != 0 {
				axpyRow(c0, bk, av0)
			}
			if av1 != 0 {
				axpyRow(c1, bk, av1)
			}
			if av2 != 0 {
				axpyRow(c2, bk, av2)
			}
			if av3 != 0 {
				axpyRow(c3, bk, av3)
			}
		}
	}
	for ; i < m; i++ {
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

// gemmTile computes the m×n matrix c (row length n) as c[i*n+j] =
// Σ a[i*aRow+kk*aK] * b[kk*n+j] over kk < k ascending, every chain starting
// where start says; every a must be non-zero, as the kernel applies no skip
// rule. Each product is b*a, or with aFirst a*b (see gemmTBviaTN).
func gemmTile(c, b, a []float32, m, n, k, aRow, aK int, start tileStart, aFirst bool) {
	if checkTile("gemmTile", c, b, a, m, n, k, aRow, aK) {
		gemmTileAVX(&c[0], &b[0], &a[0], m, n, k, aRow, aK, start, aFirst, 0)
	}
}

// tileStart is where gemmTile's chains start and how the tile lands in C.
type tileStart uint8

const (
	// tileFromZero: every chain from +0, the tile stored over C.
	tileFromZero tileStart = iota
	// tileFromC: every chain from the element C holds (gemmRows' runs).
	tileFromC
	// tileAddToC: every chain from +0, then C + chain stored, C the first
	// operand of the addition as in AddInPlace (AddMatMulTABlocks).
	tileAddToC
	// tileScaled: every chain from +0, then chain·s stored, the chain the
	// first operand as in Scale (the attention's scores).
	tileScaled
)

// gemmSparse accumulates C += A×B for the m×n c under the skip rule, row by
// row, each row's non-zero a in ascending k (gemmSparseAVX). C must start at
// +0 for the product.
func gemmSparse(c, b, a []float32, m, n, k, aRow, aK int) {
	if checkTile("gemmSparse", c, b, a, m, n, k, aRow, aK) {
		gemmSparseAVX(&c[0], &b[0], &a[0], m, n, k, aRow, aK)
	}
}

// checkTile checks the extents of a kernel that walks an m×n C, a [k,n] B
// and A by its two steps on addresses, before it sees one, and reports
// whether there is anything to compute.
func checkTile(op string, c, b, a []float32, m, n, k, aRow, aK int) bool {
	if m < 0 || n < 0 || k <= 0 || aRow < 0 || aK < 0 {
		panic(fmt.Sprintf("tensor: %s with %d rows, %d columns, %d k-steps, A row step %d, A k step %d", op, m, n, k, aRow, aK))
	}
	if m == 0 || n == 0 {
		return false
	}
	if m*n > len(c) {
		panic(fmt.Sprintf("tensor: %s needs %d×%d elements of C, slice holds %d", op, m, n, len(c)))
	}
	if k*n > len(b) {
		panic(fmt.Sprintf("tensor: %s needs %d×%d elements of B, slice holds %d", op, k, n, len(b)))
	}
	if last := (m-1)*aRow + (k-1)*aK; last >= len(a) {
		panic(fmt.Sprintf("tensor: %s reaches element %d of A, slice holds %d", op, last, len(a)))
	}
	return true
}

// denseRun4 returns how many of the kLen k-steps starting at a are dense
// before the first that is not, a step being dense when none of
// a[r*aRow+kk*aK], r < 4, is ±0 (a NaN is not zero). One of the two strides
// must be 1 — the two layouts gemmRows has and the kernel vectorizes. Checked
// like gemmTile.
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

// gemmTB computes C = A×Bᵀ in FP32 for B [n,k] — the path
// of builds without the AVX kernels — as dot products over
// two sequential streams, blocked four output columns at a time so the four
// independent accumulator chains hide FP-add latency. Each accumulator
// receives its addends in the same ascending-k order, with the same a==0
// skip rule, as the serial kernel running on a materialized Bᵀ, so results
// are bitwise identical (blocking interleaves only *different* elements'
// accumulations, never the addends of one element).
func gemmTB(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
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

// gemmTBAVX computes C = A×Bᵀ for B [n,k] on the tile kernel, one of three
// ways, chosen from the operands only. Where A has no ±0 and tbTransposesA
// holds, the transposed product (gemmTBviaTN). Otherwise "transpose B, then
// the NN product": gemmTB's dot products cannot use vector lanes without a
// horizontal sum, which would reorder one element's addends; the NN form
// keeps every element's chain — +0 start, ascending k, a == 0 skipped — and
// vectorizes across elements, so it is bitwise-equal to MatMul(a, bᵀ), the
// contract MatMulTB documents. For a dense A whose Bᵀ fits tbPanel that is
// one tbTileAVX call, Bᵀ on the kernel's own stack frame; anything else
// transposes B into a pooled scratch in one transposeAVX call and takes
// gemmPath's path (gemmBatch). Neither scratch is cleared first: the transpose overwrites
// it whole.
func gemmTBAVX(c, a, b []float32, m, k, n int) {
	dense := allNonZero(a)
	if dense && tbTransposesA(m, k, n) {
		gemmTBviaTN(c, a, b, m, k, n)
		return
	}
	if dense && tbTile(c, a, b, 1, m, k, n, tileFromZero, 0) {
		return
	}
	rp := getPackBuf(k * n)
	transposeBlocks(*rp, b, n, k, 1)
	gemmBatch(c, a, *rp, 1, m, k, n, k, 1, tileFromZero, 0)
	putPackBuf(rp)
}

// tbPanel is the most floats of a transposed B block tbTileAVX keeps on its
// own stack frame: every A×Bᵀ of the transformer's attention and dense
// layers (12×12 at most) fits.
const tbPanel = 256

// tbTile computes batch products C_e = A_e×B_eᵀ, landed as start says, in
// one tbTileAVX call and reports true, where it can: A_e the e-th [m,k] of
// a, which the caller has found to hold no ±0, B_e the e-th [n,k] of b, each
// Bᵀ within tbPanel floats, every extent positive. C_e is the e-th [m,n] of
// c (tileAddToC: batch 1).
func tbTile(c, a, b []float32, batch, m, k, n int, start tileStart, s float32) bool {
	if !useAVX || m <= 0 || n <= 0 || k <= 0 || batch <= 0 || k*n > tbPanel {
		return false
	}
	if (start == tileAddToC && batch != 1) || len(c) < batch*m*n || len(a) < batch*m*k || len(b) < batch*n*k {
		panic(fmt.Sprintf("tensor: tbTile of %d %d×%d×%d products over %d, %d and %d floats", batch, m, k, n, len(a), len(b), len(c)))
	}
	tbTileAVX(&c[0], &b[0], &a[0], m, n, k, batch, start, s)
	return true
}

// tbTransposesA reports whether gemmTBAVX computes an m×k×n A×Bᵀ with a
// dense A through gemmTBviaTN rather than by transposing B: transposing A
// and C moves fewer floats than transposing B, m·(k+n) < n·k — the conv's
// weight gradient 8×72×72 does (1,152 floats against 5,184) — and C has at
// least four rows. Cᵀ is m floats wide, and below one vector every tile of
// it is a single column, one lane in four doing the work: 2×72×72 takes 1.5×
// as long that way. Like gemmPath, it looks at the operands only.
func tbTransposesA(m, k, n int) bool {
	return m >= 4 && m*(k+n) < n*k
}

// gemmTBviaTN computes C = A×Bᵀ for B [n,k] and an A [m,k] holding no ±0 as
// the transposed product Cᵀ = B×Aᵀ: A goes into a panel Aᵀ [k,m], the tile
// kernel runs B's rows against it into a panel Cᵀ [n,m], and Cᵀ is
// transposed into C. The kernel forms every product with B's element first
// (aFirst), as the NN product on a transposed B does, and every element's
// chain is the one that product builds: +0 start, ascending k, nothing
// skipped (A has no zero to skip). Both panels are one pooled scratch, and
// each transpose is one transposeAVX call.
func gemmTBviaTN(c, a, b []float32, m, k, n int) {
	rp := getPackBuf(m * (k + n))
	at, ct := (*rp)[:m*k], (*rp)[m*k:]
	transposeBlocks(at, a, m, k, 1)
	tnTile(c, ct, at, b, m, k, n, k)
	putPackBuf(rp)
}

// tnTile is gemmTBviaTN from Aᵀ already transposed into at [k,m], B's n
// rows bRow floats apart (bRow = k for a whole [n,k] B; more for a block of
// columns of a wider one, the convolution's im2col columns of one device),
// and Cᵀ formed in the scratch ct [n,m]. A must hold no ±0.
func tnTile(c, ct, at, b []float32, m, k, n, bRow int) {
	gemmTile(ct, at, b, n, m, k, bRow, 1, tileFromZero, true)
	transposeBlocks(c, ct, n, m, 1)
}

// transposeBlocks writes the transposes of blocks consecutive [rows,cols]
// matrices of src, each [cols,rows], consecutively into dst: one
// transposeAVX call where the AVX kernels are built, transposeGo elsewhere.
func transposeBlocks(dst, src []float32, rows, cols, blocks int) {
	size := rows * cols
	if rows < 0 || cols < 0 || blocks < 0 || len(dst) < blocks*size || len(src) < blocks*size {
		panic(fmt.Sprintf("tensor: transposeBlocks of %d [%d,%d] matrices, %d floats from %d into %d", blocks, rows, cols, blocks*size, len(src), len(dst)))
	}
	if size == 0 || blocks == 0 {
		return
	}
	if useAVX {
		transposeAVX(&dst[0], &src[0], rows, cols, blocks)
		return
	}
	transposeGo(dst, src, rows, cols, blocks)
}

// transposeGo is transposeBlocks' loop: each element moved on its own.
func transposeGo(dst, src []float32, rows, cols, blocks int) {
	size := rows * cols
	for blk := 0; blk < blocks; blk++ {
		d, s := dst[blk*size:(blk+1)*size], src[blk*size:(blk+1)*size]
		for i := 0; i < rows; i++ {
			for j, v := range s[i*cols : (i+1)*cols] {
				d[j*rows+i] = v
			}
		}
	}
}
