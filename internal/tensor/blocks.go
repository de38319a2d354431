package tensor

import "fmt"

// Device row blocks: a stacked training step runs a layer once over the row
// blocks of several devices' shards, laid one after another, and what sums
// over one device's examples lands in that device's own destination. Block i
// is the next rows[i] rows of every operand and dsts[i] its destination; each
// block's result is bitwise the single call on its rows alone, and the blocks
// go in ascending order. Blocks may differ in size (the elastic partition's
// unequal shards).

// checkBlocks checks that rows splits lead rows into len(dsts) blocks.
func checkBlocks(op string, dsts []*Tensor, rows []int, lead int) {
	total := 0
	for _, r := range rows {
		if r < 0 {
			panic(fmt.Sprintf("tensor: %s with a block of %d rows", op, r))
		}
		total += r
	}
	if len(dsts) != len(rows) || total != lead {
		panic(fmt.Sprintf("tensor: %s splits %d rows into blocks %v for %d destinations", op, lead, rows, len(dsts)))
	}
}

// AddMatMulTABlocks adds a_iᵀ × b_i to dsts[i] [m,n] for each block i, a
// [Σrows, m] and b [Σrows, n]: bitwise dsts[i].AddInPlace(MatMulTAInto(…,
// a_i, b_i)) in turn, so a block's chains start from +0 and are added to its
// destination as a whole, the destination the first operand of the addition
// (for an fp32 block with no ±0 in A the tile kernel stores dst + chain,
// tileAddToC). These are the weight gradients of Dense, the LSTM and the
// attention. Several blocks may share a destination (the attention's batch
// elements of one device), each added in turn. zeros is a's ±0 count when the
// caller holds it (CountZeros), or negative to count here; in FP32 it picks
// one path for every block, all paths giving the same bits.
func AddMatMulTABlocks(dsts []*Tensor, a, b *Tensor, rows []int, zeros int, mixed bool) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: AddMatMulTABlocks of %vᵀ × %v", a.Shape, b.Shape))
	}
	checkOperands("AddMatMulTABlocks", a, b)
	checkBlocks("AddMatMulTABlocks", dsts, rows, a.Shape[0])
	m, n := a.Shape[1], b.Shape[1]
	for _, d := range dsts {
		checkDst("AddMatMulTABlocks", d, m, n)
	}
	path := pathRows
	if !mixed {
		path = gemmPathOf(a.Data, zeros)
	}
	var rp *[]float32
	if mixed || path != pathDense {
		rp = getPackBuf(m * n)
	}
	off := 0
	for i, k := range rows {
		ai, bi, c := a.Data[off*m:(off+k)*m], b.Data[off*n:(off+k)*n], dsts[i].Data
		off += k
		switch {
		case k == 0 || m*n == 0:
			continue
		case mixed:
			matMulTA(*rp, ai, bi, k, m, n, true)
		case path == pathDense:
			gemmTileAVX(&c[0], &bi[0], &ai[0], m, n, k, 1, m, tileAddToC, false, 0)
			continue
		default:
			zero(*rp)
			if path == pathSparse {
				gemmSparse(*rp, bi, ai, m, n, k, 1, m)
			} else {
				gemmRows(*rp, ai, bi, m, k, n, 1, m)
			}
		}
		addBlocks(c, *rp, &blockShape{n: 1, rows: 1, cols: m * n})
	}
	if rp != nil {
		putPackBuf(rp)
	}
}

// SumPerChannelBlocks accumulates the sum of each channel of each block of t
// [N, C, ...] into dsts[i][c] (+=, gradient accumulation), blocks counting
// rows along N: the bias-gradient reduction of Conv2D, Dense and the LSTM.
// Accumulation order is batch-major then spatial. A row's sum is one chain of
// dependent additions, so the rows of four channels are summed side by side,
// each from its own +0 in its own order, and the channels left over one at a
// time. A rank-2 tensor ([rows, features], spatial 1) has one-element rows:
// each element's sum is +0 + x, added to its channel in one walk along the
// row.
func SumPerChannelBlocks(dsts []*Tensor, t *Tensor, rows []int) {
	n, c, spatial := channelDims("SumPerChannelBlocks", t)
	checkBlocks("SumPerChannelBlocks", dsts, rows, n)
	if len(t.Data) != n*c*spatial {
		panic(fmt.Sprintf("tensor: SumPerChannelBlocks shape %v does not describe %d elements", t.Shape, len(t.Data)))
	}
	off := 0
	for i, r := range rows {
		if dsts[i].Len() != c {
			panic(fmt.Sprintf("tensor: SumPerChannelBlocks destination has %d elements for %d channels", dsts[i].Len(), c))
		}
		data := t.Data[off*c*spatial : (off+r)*c*spatial]
		off += r
		if spatial == 1 {
			sumRows(data, dsts[i].Data[:c], r)
		} else {
			sumPlanes(data, dsts[i].Data[:c], r, spatial)
		}
	}
}

// Conv2DWeightGradBlocksWS adds each block's kernel gradient to dsts[i]: the
// examples of in [N,C,H,W] and gradOut [N,K,OH,OW] split by rows, cols the
// forward's im2col matrix of all of in. Block i's gradient is bitwise
// Conv2DWeightGradWS on its examples alone, added as AddInPlace adds it.
// With a dense output gradient in fp32 each block is gemmTBviaTN on the
// block's rows of the transposed whole output gradient and its columns of
// cols read in place (tnTile); otherwise the block's output gradient and
// columns are laid out as the single call lays them out and the same product
// forms it. Every path gives the same bits.
func Conv2DWeightGradBlocksWS(ws *Workspace, dsts []*Tensor, in, kernel, gradOut, cols *Tensor, rows []int, p ConvParams, mixed bool) {
	checkBlocks("Conv2DWeightGradBlocksWS", dsts, rows, in.Shape[0])
	if len(rows) == 1 {
		dsts[0].AddInPlace(Conv2DWeightGradWS(ws, in, kernel, gradOut, cols, p, mixed))
		return
	}
	conv2DWeightGradBlocks(ws, dsts, in, kernel, conv2DGrad2D(ws, in, kernel, gradOut, cols, p), cols, rows, p, mixed)
}

// conv2DGrad2D checks a block backward's operands and returns the output
// gradient of all of in rearranged to [K, N*OH*OW], as conv2DWeightGrad
// rearranges it.
func conv2DGrad2D(ws *Workspace, in, kernel, gradOut, cols *Tensor, p ConvParams) *Tensor {
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	k := kernel.Shape[0]
	oh, ow := p.OutSize(h, w)
	spatial := oh * ow
	if len(gradOut.Data) != n*k*spatial {
		panic(fmt.Sprintf("tensor: Conv2DBackwardBlocksWS output gradient holds %d elements, need %d×%d×%d×%d", len(gradOut.Data), n, k, oh, ow))
	}
	if cols == nil || len(cols.Shape) != 2 || cols.Shape[0] != c*p.KH*p.KW || cols.Shape[1] != n*spatial {
		panic(fmt.Sprintf("tensor: Conv2DBackwardBlocksWS needs the forward's im2col matrix [%d %d]", c*p.KH*p.KW, n*spatial))
	}
	g2d := ws.Get("conv.g2d", k, n*spatial)
	moveBlocks(g2d.Data, gradOut.Data, &blockShape{
		n: k, rows: n, cols: spatial,
		dstBlock: n * spatial, srcBlock: spatial, dstStride: spatial, srcStride: k * spatial,
	})
	return g2d
}

// conv2DWeightGradBlocks is Conv2DWeightGradBlocksWS from the rearranged
// output gradient g2d [K, N*OH*OW].
func conv2DWeightGradBlocks(ws *Workspace, dsts []*Tensor, in, kernel, g2d, cols *Tensor, rows []int, p ConvParams, mixed bool) {
	n, c := in.Shape[0], in.Shape[1]
	k := kernel.Shape[0]
	spatial, ckk := g2d.Shape[1]/n, c*p.KH*p.KW
	gk := ws.Get("conv.gk", k, c, p.KH, p.KW)
	if !mixed && useAVX && allNonZero(g2d.Data) {
		g2dT := ws.Get("conv.g2dt", n*spatial, k)
		transposeBlocks(g2dT.Data, g2d.Data, k, n*spatial, 1)
		ct := getPackBuf(ckk * k)
		off := 0
		for i, r := range rows {
			if r > 0 {
				tnTile(gk.Data, *ct, g2dT.Data[off*spatial*k:], cols.Data[off*spatial:], k, r*spatial, ckk, n*spatial)
				dsts[i].AddInPlace(gk)
			}
			off += r
		}
		putPackBuf(ct)
		return
	}
	off := 0
	for i, r := range rows {
		bg := ws.Get("conv.bg2d", k, r*spatial)
		bc := ws.Get("conv.bcols", ckk, r*spatial)
		moveBlocks(bg.Data, g2d.Data[off*spatial:], &blockShape{
			n: 1, rows: k, cols: r * spatial, dstStride: r * spatial, srcStride: n * spatial,
		})
		moveBlocks(bc.Data, cols.Data[off*spatial:], &blockShape{
			n: 1, rows: ckk, cols: r * spatial, dstStride: r * spatial, srcStride: n * spatial,
		})
		off += r
		dsts[i].AddInPlace(MatMulTBInto(gk, bg, bc, mixed))
	}
}

// Conv2DBackwardBlocksWS is Conv2DBackwardWS over device row blocks: it adds
// each block's kernel gradient to dsts[i] (Conv2DWeightGradBlocksWS) and
// returns the input gradient of all of in, which is per example and so the
// same bits at any row count. cols must be the forward's im2col matrix. Over
// more than one block, nothing reads cols after the kernel gradients, and the
// input gradient's columns are formed in its buffer: a stacked pass holds D
// devices' columns, and a second buffer that size would double the largest
// scratch of the layer.
func Conv2DBackwardBlocksWS(ws *Workspace, dsts []*Tensor, in, kernel, gradOut, cols *Tensor, rows []int, p ConvParams, mixed bool) *Tensor {
	checkBlocks("Conv2DBackwardBlocksWS", dsts, rows, in.Shape[0])
	if len(rows) == 1 {
		gradIn, gradKernel := Conv2DBackwardWS(ws, in, kernel, gradOut, cols, p, mixed)
		dsts[0].AddInPlace(gradKernel)
		return gradIn
	}
	g2d := conv2DGrad2D(ws, in, kernel, gradOut, cols, p)
	conv2DWeightGradBlocks(ws, dsts, in, kernel, g2d, cols, rows, p, mixed)
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	k := kernel.Shape[0]
	w2d := ws.reshaped(kernel, k, c*p.KH*p.KW)
	gcols := MatMulTAInto(cols, w2d, g2d, mixed)
	return col2im(ws, ws.Get("conv.gin", n, c, h, w), gcols, p)
}
