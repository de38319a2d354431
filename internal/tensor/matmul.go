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
	ad, bd, cd := a.Data, b.Data, dst.Data
	if mixed {
		zero(cd)
		rp := getPackBuf(len(bd))
		rb := *rp
		roundPanelBF16(rb, bd)
		gemmNNPacked(cd, ad, rb, m, k, n)
		putPackBuf(rp)
		return dst
	}
	gemmF32(cd, ad, bd, m, k, n, k, 1)
	return dst
}

// MatMulTA computes C = Aᵀ × B for A [k,m] and B [k,n] without
// materializing the transpose. Bitwise-equal to MatMul(aᵀ, b).
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
	dst.ClearDirty()
	ad, bd, cd := a.Data, b.Data, dst.Data
	if mixed {
		zero(cd)
		rp := getPackBuf(len(bd))
		rb := *rp
		roundPanelBF16(rb, bd)
		gemmTAPacked(cd, ad, rb, k, m, n)
		putPackBuf(rp)
		return dst
	}
	gemmF32(cd, ad, bd, m, k, n, 1, m)
	return dst
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
	ad, bd, cd := a.Data, b.Data, dst.Data
	if mixed {
		rp := getPackBuf(len(bd))
		rb := *rp
		roundPanelBF16(rb, bd)
		gemmTBPacked(cd, ad, rb, m, k, n)
		putPackBuf(rp)
		return dst
	}
	if useAVX {
		gemmTBAVX(cd, ad, bd, m, k, n)
		return dst
	}
	gemmTB(cd, ad, bd, m, k, n)
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

// gemmF32 computes C = A×B in FP32 for B [k,n] and the two A layouts of
// gemmRows, m rows: with an A holding no ±0 (see gemmDense) in one gemmTile
// call from +0, otherwise through gemmRows onto the cleared C.
func gemmF32(c, a, b []float32, m, k, n, aRow, aK int) {
	if gemmDense(c, a, k) {
		gemmTile(c[:m*n], b, a, m, n, k, aRow, aK, false, false)
		return
	}
	gemmRows(c, a, b, m, k, n, aRow, aK)
}

// gemmDense decides, from the data, which kernel computes a product: true
// when the AVX kernels are built and A holds no ±0, the whole matrix then
// going to gemmTile in one call. Otherwise it clears c, which gemmRows
// accumulates into, and returns false.
//
// The two give the same bits on a dense A. With no zero in A the skip rule
// skips nothing: gemmRows finds every k-step of a 4-row block dense and
// hands the block to the tile kernel as one run of k steps from a +0 C, and
// runs each remainder row as k unskipped axpyRows. gemmTile forms the same
// products, adds them to the same +0 chains in the same ascending-k order,
// with the operands of each operation in the same order.
func gemmDense(c, a []float32, k int) bool {
	if useAVX && k > 0 && allNonZero(a) {
		return true
	}
	zero(c)
	return false
}

// allNonZero reports whether no element of a is ±0 (a NaN is not zero).
func allNonZero(a []float32) bool {
	if useAVX {
		return len(a) == 0 || nonZeroAVX(&a[0], len(a))
	}
	for _, v := range a {
		if v == 0 {
			return false
		}
	}
	return true
}

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
					gemmTile(c4, b[kk*n:], ak, 4, n, run, aRow, aK, true, false)
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
// from +0 or, with acc, from what c holds; every a must be non-zero, as the
// kernel applies no skip rule. Each product is b*a, or with aFirst a*b (see
// gemmTBviaTN). The kernel behind it works on addresses, so the three extents
// are checked here, before it sees one.
func gemmTile(c, b, a []float32, m, n, k, aRow, aK int, acc, aFirst bool) {
	if m < 0 || n < 0 || k <= 0 || aRow < 0 || aK < 0 {
		panic(fmt.Sprintf("tensor: gemmTile with %d rows, %d columns, %d k-steps, A row step %d, A k step %d", m, n, k, aRow, aK))
	}
	if m == 0 || n == 0 {
		return
	}
	if m*n > len(c) {
		panic(fmt.Sprintf("tensor: gemmTile needs %d×%d elements of C, slice holds %d", m, n, len(c)))
	}
	if k*n > len(b) {
		panic(fmt.Sprintf("tensor: gemmTile needs %d×%d elements of B, slice holds %d", k, n, len(b)))
	}
	if last := (m-1)*aRow + (k-1)*aK; last >= len(a) {
		panic(fmt.Sprintf("tensor: gemmTile reaches element %d of A, slice holds %d", last, len(a)))
	}
	gemmTileAVX(&c[0], &b[0], &a[0], m, n, k, aRow, aK, acc, aFirst)
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

// tbStackPanel is the largest scratch, in floats, the TB paths keep on
// their own stack: every A×Bᵀ of the transformer campaign's attention and
// dense layers (12×12 at most) fits.
const tbStackPanel = 256

// gemmTBAVX computes C = A×Bᵀ for B [n,k] on the tile kernel, one of two
// ways, chosen from the operands only. Where A has no ±0 and tbTransposesA
// holds, the transposed product (gemmTBviaTN). Otherwise "transpose B into
// a panel, then the NN product": gemmTB's dot products cannot use vector
// lanes without a horizontal sum, which would reorder one element's addends;
// the NN form keeps every element's chain — +0 start, ascending k, a == 0
// skipped — and vectorizes across elements, so it is bitwise-equal to
// MatMul(a, bᵀ), the contract MatMulTB documents. A panel of up
// to tbStackPanel floats is on the stack; any other panel is a pack buffer.
func gemmTBAVX(c, a, b []float32, m, k, n int) {
	if tbTransposesA(m, k, n) && allNonZero(a) {
		gemmTBviaTN(c, a, b, m, k, n)
		return
	}
	if k*n <= tbStackPanel {
		var panel [tbStackPanel]float32
		bt := panel[:k*n]
		transposeInto(bt, b, n, k)
		gemmF32(c, a, bt, m, k, n, k, 1)
		return
	}
	rp := getPackBuf(k * n)
	transposeInto(*rp, b, n, k)
	gemmF32(c, a, *rp, m, k, n, k, 1)
	putPackBuf(rp)
}

// tbTransposesA reports whether gemmTBAVX computes an m×k×n A×Bᵀ with a
// dense A through gemmTBviaTN rather than by transposing B: transposing A
// and C moves fewer floats than transposing B, m·(k+n) < n·k — the conv's
// weight gradient 8×72×72 does (1,152 floats against 5,184) — and C has at
// least four rows. Cᵀ is m floats wide, and below one vector every tile of
// it is a single column, one lane in four doing the work: 2×72×72 takes 1.5×
// as long that way. Like gemmDense, it looks at the operands only.
func tbTransposesA(m, k, n int) bool {
	return m >= 4 && m*(k+n) < n*k
}

// gemmTBviaTN computes C = A×Bᵀ for B [n,k] and an A [m,k] holding no ±0 as
// the transposed product Cᵀ = B×Aᵀ: A goes into a panel Aᵀ [k,m], the tile
// kernel runs B's rows against it into a panel Cᵀ [n,m], and Cᵀ is
// transposed into C. The kernel forms every product with B's element first
// (aFirst), as the NN product on a transposed B does, and every element's
// chain is the one that product builds: +0 start, ascending k, nothing
// skipped (A has no zero to skip). Both panels are on the stack when they fit tbStackPanel,
// a pack buffer otherwise.
func gemmTBviaTN(c, a, b []float32, m, k, n int) {
	if m*(k+n) <= tbStackPanel {
		var panel [tbStackPanel]float32
		gemmTBPanels(c, a, b, panel[:m*k], panel[m*k:m*(k+n)], m, k, n)
		return
	}
	rp := getPackBuf(m * (k + n))
	gemmTBPanels(c, a, b, (*rp)[:m*k], (*rp)[m*k:], m, k, n)
	putPackBuf(rp)
}

// gemmTBPanels is gemmTBviaTN on the panels at [k,m] and ct [n,m].
func gemmTBPanels(c, a, b, at, ct []float32, m, k, n int) {
	transposeInto(at, a, m, k)
	gemmTile(ct, at, b, n, m, k, k, 1, false, true)
	transposeInto(c, ct, n, m)
}

// transposeInto writes the transpose of src [rows,cols] into dst
// [cols,rows]. Where the AVX kernels are built, whole 8x8 blocks go through
// the eight-row strips, the 4x4 blocks those leave through the four-row
// strips; the last cols mod 4 columns of those rows and the last rows mod 4
// rows go element by element.
func transposeInto(dst, src []float32, rows, cols int) {
	r4, c4 := 0, 0
	if useAVX {
		r8, c8 := rows&^7, cols&^7
		r4, c4 = rows&^3, cols&^3
		for i := 0; i < r4; i += 4 {
			j0 := 0
			if i < r8 {
				j0 = c8
				if i%8 == 0 && c8 > 0 {
					transposeStrip8AVX(dst[i:], src[i*cols:], rows, cols)
				}
			}
			if blocks := (c4 - j0) / 4; blocks > 0 {
				transposeStrip4AVX(dst[j0*rows+i:], src[i*cols+j0:], rows, cols, blocks)
			}
		}
	}
	for i := 0; i < rows; i++ {
		j0 := 0
		if i < r4 {
			j0 = c4
		}
		for j, v := range src[i*cols+j0 : (i+1)*cols] {
			dst[(j0+j)*rows+i] = v
		}
	}
}
