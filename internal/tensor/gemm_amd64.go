//go:build amd64 && !purego

package tensor

// useAVX routes the fp32 GEMM inner loops, the convolution lowering's block
// moves and adds and the element-wise layer loops through the assembly
// kernels in gemm_amd64.s, block_amd64.s, elem_amd64.s and math_amd64.s (the
// last also behind probeMath's choice). It is decided once, at package init,
// from what the CPU and the OS report; nothing sets it afterwards. Builds
// without the kernels (other architectures, -tags purego) compile it as a
// false constant, so the Go loops in matmul.go, tensor.go, elem.go, norm.go,
// math.go and reduce.go are the only path there.
var useAVX = detectAVX()

// detectAVX reports whether AVX instructions may be executed: the CPU has
// them (CPUID.1:ECX bit 28) and the OS saves the YMM state across context
// switches (OSXSAVE set, XCR0 bits 1 and 2 set). Nothing in gemm_amd64.s
// or the other two files needs AVX2.
func detectAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// gemmTileAVX computes the m×n C = A×B, c[i*n+j] = Σ a[i*aRow+kk*aK] *
// b[kk*n+j] over kk < k ascending, each element from where start says and
// landed as it says (s is tileScaled's factor), with no skip rule, each
// product b*a or, with aFirst, a*b. It takes addresses, not slices: its
// callers (gemmTile, gemmBatch) check the three extents first.
//
//go:noescape
func gemmTileAVX(c, b, a *float32, m, n, k, aRow, aK int, start tileStart, aFirst bool, s float32)

// gemmSparseAVX accumulates C += A×B row by row, each row's non-zero a in
// ascending k, as gemmRows' mixed steps do. Its extents are gemmTile's,
// checked by gemmSparse.
//
//go:noescape
func gemmSparseAVX(c, b, a *float32, m, n, k, aRow, aK int)

// zerosAVX counts the ±0 among the n floats at a. n must be positive;
// countZeros checks that.
//
//go:noescape
func zerosAVX(a *float32, n int) int

// denseRun4AVX counts the leading k-steps kk < kLen at which none of
// a[r*aRow+kk*aK], r < 4, is ±0. aRow or aK must be 1 and kLen positive;
// denseRun4 checks that and the extent.
//
//go:noescape
func denseRun4AVX(a *float32, kLen, aRow, aK int) int

// axpy1AVX accumulates c[j] += a * b[j] for j < len(b). len(c) must be at
// least len(b); it is not checked.
//
//go:noescape
func axpy1AVX(c, b []float32, a float32)

// transposeAVX writes the transposes of blocks consecutive [rows,cols]
// matrices at src, each [cols,rows], consecutively at dst. Every count is
// positive; transposeBlocks checks that and both extents.
//
//go:noescape
func transposeAVX(dst, src *float32, rows, cols, blocks int)

// blockTapsAVX copies (add false) or accumulates dst = dst + src (add true)
// over c·kh·kw taps of n blocks of rows×cols floats, taps in ascending
// (ch, y, x) order: element (i, r, j) of tap (ch, y, x) is
// dst[ch*dstC+y*dstH+x*dstW + i*dstBlock+r*dstStride+j] and likewise in src.
// Every count must be positive, every step non-negative and every tap inside
// both slices (blockShape.check and tapSet.check see to that, this does not),
// and a move's two sides apart.
//
//go:noescape
func blockTapsAVX(dst, src []float32, n, rows, cols, dstBlock, srcBlock, dstStride, srcStride, c, kh, kw, dstC, dstH, dstW, srcC, srcH, srcW int, add bool)

// The element-wise kernels (elem_amd64.s) take addresses and extents their
// callers in elem.go have checked. x, dy and the like are whole [n, c,
// spatial] tensors, planes contiguous; per-channel operands hold c floats.

// normalizeAVX writes xhat = (x − mean[ch])·invStd[ch] and out =
// gamma[ch]·xhat + beta[ch] over every plane.
//
//go:noescape
func normalizeAVX(out, xhat, x, mean, invStd, gamma, beta *float32, n, c, spatial int)

// normalizeBackwardAVX writes dx = scale[ch]·((dy − meanDy[ch]) −
// xhat·meanDyXhat[ch]) over every plane.
//
//go:noescape
func normalizeBackwardAVX(dx, dy, xhat, scale, meanDy, meanDyXhat *float32, n, c, spatial int)

// reluForwardAVX writes mask = (x > 0) as all ones or zero and out = x AND
// mask over n elements.
//
//go:noescape
func reluForwardAVX(out *float32, mask *uint32, x *float32, n int)

// reluBackwardAVX writes dx = dy AND mask over n elements.
//
//go:noescape
func reluBackwardAVX(dx, dy *float32, mask *uint32, n int)

// addBiasAVX adds bias[r mod c] to each of the rows consecutive rows r of
// spatial floats starting at t.
//
//go:noescape
func addBiasAVX(t, bias *float32, rows, c, spatial int)

// columnsAVX runs one chain per column over each of blocks blocks of
// rows×cols floats at src: from +0 adding src·k row by row into dst's row of
// the block, or with sum from dst adding src + k (k = +0).
//
//go:noescape
func columnsAVX(dst, src *float32, blocks, rows, cols int, k float32, sum bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The float64 kernels (math_amd64.s) write their results a pair at a time and
// stop at the first pair outside their range, returning how many elements
// they wrote; math.go's wrappers finish that pair with package math and call
// again past it. fma selects math.archExp's fused branch (see probeMath).

// expRowAVX writes e[i] = exp(float64(x[i] − shift)) for i < n.
//
//go:noescape
func expRowAVX(e *float64, x *float32, shift float32, n int, fma bool) int

// geluForwardAVX writes th[i] = tanh(c·(u + 0.044715·u·u·u)) and out[i] =
// float32(0.5·u·(1 + th[i])), u = float64(x[i]), for i < n, each tanh on
// its own branch, the lanes sorted by branch first.
//
//go:noescape
func geluForwardAVX(out *float32, th *float64, x *float32, n int, fma bool) int

// hasFMA reports whether the CPU has the fused multiply-add instructions
// (CPUID.1:ECX bit 12); only then may the kernels' fused branch run.
func hasFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return useAVX && ecx&fma != 0
}

// layerNormAVX is LayerNorm's forward over rows of d floats, rows a positive
// multiple of 4: per row, its float32 mean and invStd = 1/sqrt(variance +
// eps) from float64 sums, then xhat = (x − mean)·invStd and out =
// xhat·gamma + beta.
//
//go:noescape
func layerNormAVX(out, xhat, invStd, x, gamma, beta *float32, rows, d int, eps float64)

// layerNormBackwardAVX is LayerNorm's backward over rows of d floats, rows a
// positive multiple of 4: dBeta and dGamma accumulate row after row, and
// dx = ((dy·gamma − mean(dxh)) − xhat·mean(dxh·xhat))·invStd per row.
//
//go:noescape
func layerNormBackwardAVX(dx, dGamma, dBeta, dy, xhat, invStd, gamma *float32, rows, d int)

// geluBackwardAVX writes dx = dy·float32(0.5·(1+t) + 0.5·u·(1−t²)·c·(1 +
// 3·0.044715·u²)), u = float64(x[i]) and t = th[i], for i < n.
//
//go:noescape
func geluBackwardAVX(dx, dy, x *float32, th *float64, n int)

// adamAVX is the Adam update of n elements with k = {β1, 1−β1, β2, 1−β2,
// c1, c2, lr, eps}; it returns the abs-bits maxima of the new m and v.
//
//go:noescape
func adamAVX(p, m, v, grad *float32, n int, k *[8]float32) (mMax, vMax uint32)

// addAbsMaxAVX adds u to t over n elements and returns the maximum of u's
// abs-bits.
//
//go:noescape
func addAbsMaxAVX(t, u *float32, n int) uint32

// scaleAVX multiplies each of the n floats at t by s.
//
//go:noescape
func scaleAVX(t *float32, s float32, n int)

// softmaxRowsAVX runs SoftmaxRows over rows rows of cols floats at s into
// out, e scratch of cols float64s, and stops before the first row with an
// exponential argument outside the exp kernel's range; it returns the rows
// written.
//
//go:noescape
func softmaxRowsAVX(out *float32, e *float64, s *float32, rows, cols int, fma bool) int

// softmaxBackwardAVX runs SoftmaxRowsBackward over rows rows of cols floats.
//
//go:noescape
func softmaxBackwardAVX(out, a, dy *float32, rows, cols int, s float32)

// tbTileAVX computes batch A×Bᵀ products of a dense A on the tile kernel,
// each element's Bᵀ transposed into the kernel's own stack frame (at most
// tbPanel floats). Its callers check the extents; see gemm_amd64.s.
//
//go:noescape
func tbTileAVX(c, b, a *float32, m, n, k, batch int, start tileStart, s float32)
