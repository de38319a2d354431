package tensor

import "fmt"

// Batched products: the attention's per-batch-element products, every
// element's row block in one call. An operand holds batch row blocks one
// after another — [batch·rows, cols], element e's block its rows [e·rows,
// (e+1)·rows) — and element e's product reads the e-th block of each
// operand. The shapes are checked once and, in FP32, the path is chosen once
// from the zeros of the whole A (gemmBatch): each element's result is
// bitwise the single product on its blocks, since every path gives the same
// bits. In bfloat16 each element takes the single product's own path.

// MatMulBatchInto computes dst_e = a_e × b_e for a [batch·m, k], b [batch·k,
// n] and dst [batch·m, n], overwriting dst, and returns dst.
func MatMulBatchInto(dst, a, b *Tensor, batch int, mixed bool) *Tensor {
	m, k, kb, n := checkBatch("MatMulBatchInto", a, b, batch)
	if kb != k {
		panic(fmt.Sprintf("tensor: MatMulBatchInto inner dimensions differ: %d blocks of %v × %v", batch, a.Shape, b.Shape))
	}
	checkDst("MatMulBatchInto", dst, batch*m, n)
	dst.ClearDirty()
	if mixed {
		for e := 0; e < batch; e++ {
			matMulNN(dst.Data[e*m*n:(e+1)*m*n], a.Data[e*m*k:(e+1)*m*k], b.Data[e*k*n:(e+1)*k*n], m, k, n, true)
		}
		return dst
	}
	gemmBatch(dst.Data, a.Data, b.Data, batch, m, k, n, k, 1, tileFromZero, 0)
	return dst
}

// MatMulTABatchInto computes dst_e = a_eᵀ × b_e for a [batch·k, m], b
// [batch·k, n] and dst [batch·m, n], overwriting dst, and returns dst.
func MatMulTABatchInto(dst, a, b *Tensor, batch int, mixed bool) *Tensor {
	k, m, kb, n := checkBatch("MatMulTABatchInto", a, b, batch)
	if kb != k {
		panic(fmt.Sprintf("tensor: MatMulTABatchInto inner dimensions differ: %d blocks of %vᵀ × %v", batch, a.Shape, b.Shape))
	}
	checkDst("MatMulTABatchInto", dst, batch*m, n)
	dst.ClearDirty()
	if mixed {
		for e := 0; e < batch; e++ {
			matMulTA(dst.Data[e*m*n:(e+1)*m*n], a.Data[e*k*m:(e+1)*k*m], b.Data[e*k*n:(e+1)*k*n], k, m, n, true)
		}
		return dst
	}
	gemmBatch(dst.Data, a.Data, b.Data, batch, m, k, n, 1, m, tileFromZero, 0)
	return dst
}

// MatMulTBBatchInto computes dst_e = (a_e × b_eᵀ)·s for a [batch·m, k], b
// [batch·n, k] and dst [batch·m, n], overwriting dst, and returns dst. Each
// element is the product rounded, then multiplied by s and rounded again,
// bitwise MatMulTBInto followed by Scale(s); s = 1 leaves the products as
// they are, with no multiply. In FP32 the tile kernel applies s as it
// stores; with no ±0 in a, every element is one tbTileAVX call, each b_eᵀ on
// the kernel's own frame, and otherwise one transposeAVX call writes every
// b_eᵀ into a pooled scratch for gemmBatch.
func MatMulTBBatchInto(dst, a, b *Tensor, batch int, s float32, mixed bool) *Tensor {
	m, k, n, kb := checkBatch("MatMulTBBatchInto", a, b, batch)
	if kb != k {
		panic(fmt.Sprintf("tensor: MatMulTBBatchInto inner dimensions differ: %d blocks of %v × %vᵀ", batch, a.Shape, b.Shape))
	}
	checkDst("MatMulTBBatchInto", dst, batch*m, n)
	dst.ClearDirty()
	if mixed {
		for e := 0; e < batch; e++ {
			matMulTB(dst.Data[e*m*n:(e+1)*m*n], a.Data[e*m*k:(e+1)*m*k], b.Data[e*n*k:(e+1)*n*k], m, k, n, true)
		}
		if s != 1 {
			dst.Scale(s)
		}
		return dst
	}
	start := tileScaled
	if s == 1 {
		start = tileFromZero
	}
	if allNonZero(a.Data) && tbTile(dst.Data, a.Data, b.Data, batch, m, k, n, start, s) {
		return dst
	}
	bt := getPackBuf(batch * k * n)
	transposeBlocks(*bt, b.Data, n, k, batch)
	gemmBatch(dst.Data, a.Data, *bt, batch, m, k, n, k, 1, start, s)
	putPackBuf(bt)
	return dst
}

// checkBatch checks two 2-D operands of batch row blocks each and returns
// the extents of one block of a and of b.
func checkBatch(op string, a, b *Tensor, batch int) (aRows, aCols, bRows, bCols int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D operands, got %v and %v", op, a.Shape, b.Shape))
	}
	checkOperands(op, a, b)
	if batch <= 0 || a.Shape[0]%batch != 0 || b.Shape[0]%batch != 0 {
		panic(fmt.Sprintf("tensor: %s cannot split %v and %v into %d row blocks", op, a.Shape, b.Shape, batch))
	}
	return a.Shape[0] / batch, a.Shape[1], b.Shape[0] / batch, b.Shape[1]
}

// gemmBatch computes batch FP32 products A_e×B_e, e ascending, with one
// check of the extents and one choice of path. A_e is the e-th m·k floats
// of a, its element (i, kk) at i*aRow+kk*aK — (k, 1) for row-major [m,k]
// blocks, (1, m) for [k,m] blocks read transposed; B_e is the e-th [k,n] of
// b. With tileFromZero each product is stored over the e-th m·n floats of c,
// with tileScaled stored times s as Scale would leave it; with tileAddToC
// every product is added to the one m×n c in turn, as AddMatMulTABlocks adds one.
//
// The path is gemmPath's, on the zeros of all of a: none sends every
// element to the tile kernel, each in one gemmTileAVX call; otherwise every
// element runs gemmSparse or gemmRows onto a cleared C — its own block, or
// for tileAddToC a pooled scratch then added to c — and tileScaled scales
// all of c once after. Without the AVX kernels it is gemmRows throughout.
func gemmBatch(c, a, b []float32, batch, m, k, n, aRow, aK int, start tileStart, s float32) {
	gemmBatchOf(c, a, b, batch, m, k, n, aRow, aK, start, s, -1)
}

// gemmBatchOf is gemmBatch with a's ±0 count taken by the caller (zeros ≥ 0)
// or counted here (zeros < 0).
func gemmBatchOf(c, a, b []float32, batch, m, k, n, aRow, aK int, start tileStart, s float32, zeros int) {
	mk, kn, mn := m*k, k*n, m*n
	cStep := mn
	if start == tileAddToC {
		cStep = 0
	}
	if batch < 0 || m < 0 || n < 0 || k < 0 || len(a) < batch*mk || len(b) < batch*kn || len(c) < (batch-1)*cStep+mn {
		panic(fmt.Sprintf("tensor: gemmBatch of %d %d×%d×%d products over %d, %d and %d floats", batch, m, k, n, len(a), len(b), len(c)))
	}
	if batch == 0 || mn == 0 {
		return
	}
	path := pathRows
	if k > 0 {
		path = gemmPathOf(a[:batch*mk], zeros)
	}
	if path == pathDense {
		for e := 0; e < batch; e++ {
			gemmTileAVX(&c[e*cStep], &b[e*kn], &a[e*mk], m, n, k, aRow, aK, start, false, s)
		}
		return
	}
	out, rp := c, (*[]float32)(nil)
	if start == tileAddToC {
		rp = getPackBuf(mn)
		out = *rp
	}
	for e := 0; e < batch; e++ {
		ce, ae, be := out[e*cStep:e*cStep+mn], a[e*mk:(e+1)*mk], b[e*kn:(e+1)*kn]
		zero(ce)
		if path == pathSparse {
			gemmSparse(ce, be, ae, m, n, k, aRow, aK)
		} else {
			gemmRows(ce, ae, be, m, k, n, aRow, aK)
		}
		if rp != nil {
			addBlocks(c, ce, &blockShape{n: 1, rows: 1, cols: mn})
		}
	}
	if rp != nil {
		putPackBuf(rp)
	}
	if start == tileScaled {
		scaleSlice(c[:batch*mn], s)
	}
}
