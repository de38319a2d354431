//go:build amd64 && !purego

package tensor

// useAVX routes the fp32 GEMM inner loops, the convolution lowering's block
// moves and adds and the element-wise layer loops through the assembly
// kernels in gemm_amd64.s, block_amd64.s and elem_amd64.s. It is decided
// once, at package init, from what the CPU and the OS report; nothing sets it
// afterwards. Builds without the kernels (other architectures, -tags purego)
// compile it as a false constant, so the Go loops in matmul.go, tensor.go and
// elem.go are the only path there.
var useAVX = detectAVX()

// detectAVX reports whether AVX instructions may be executed: the CPU has
// them (CPUID.1:ECX bit 28) and the OS saves the YMM state across context
// switches (OSXSAVE set, XCR0 bits 1 and 2 set). Nothing in gemm_amd64.s
// or the other two files needs AVX2: the integer instructions of elem_amd64.s
// (VPAND, VPMAXUD, VPSHUFD on X registers) are VEX.128 encodings, which are
// AVX.
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

// gemmTile4AVX accumulates c[r*n+j] += a[r*aRow+kk*aK] * b[kk*n+j] for the
// four consecutive rows r of c, kk < kLen ascending, j < n, every a
// non-zero. It takes addresses, not slices: gemmTile4 is the only caller and
// checks the three extents first.
//
//go:noescape
func gemmTile4AVX(c, b, a *float32, n, kLen, aRow, aK int)

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

// transposeStrip8AVX transposes eight source rows: src starts at row i of a
// [rows,cols] matrix and dst at column i of its [cols,rows] transpose. Only
// the first cols&^7 columns are written. Neither slice is bounds-checked.
//
//go:noescape
func transposeStrip8AVX(dst, src []float32, rows, cols int)

// moveBlocksAVX copies n blocks of rows×cols floats, bit for bit: element
// (i, r, j) moves from src[i*srcBlock+r*srcStride+j] to
// dst[i*dstBlock+r*dstStride+j]. n, rows and cols must be positive, the
// steps non-negative and both sides inside their slices; moveBlocks checks
// that, this does not.
//
//go:noescape
func moveBlocksAVX(dst, src []float32, n, rows, cols, dstBlock, srcBlock, dstStride, srcStride int)

// addBlocksAVX accumulates dst = dst + src over the same layout, under the
// same contract (addBlocks checks it).
//
//go:noescape
func addBlocksAVX(dst, src []float32, n, rows, cols, dstBlock, srcBlock, dstStride, srcStride int)

// The element-wise kernels (elem_amd64.s) take addresses and extents their
// callers in elem.go have checked. x, dy and the like are whole [n, c,
// spatial] tensors, planes contiguous; per-channel operands hold c floats.

// normalizeAVX writes xhat = (x − mean[ch])·invStd[ch] and out =
// gamma[ch]·xhat + beta[ch] over every plane and returns the largest
// sign-cleared bit pattern of out.
//
//go:noescape
func normalizeAVX(out, xhat, x, mean, invStd, gamma, beta *float32, n, c, spatial int) uint32

// normalizeBackwardAVX writes dx = scale[ch]·((dy − meanDy[ch]) −
// xhat·meanDyXhat[ch]) over every plane.
//
//go:noescape
func normalizeBackwardAVX(dx, dy, xhat, scale, meanDy, meanDyXhat *float32, n, c, spatial int)

// reluForwardAVX writes mask = (x > 0) as all ones or zero and out = x AND
// mask over n elements, and returns the largest bit pattern of out.
//
//go:noescape
func reluForwardAVX(out *float32, mask *uint32, x *float32, n int) uint32

// reluBackwardAVX writes dx = dy AND mask over n elements.
//
//go:noescape
func reluBackwardAVX(dx, dy *float32, mask *uint32, n int)

// addBiasAVX adds bias[(ch0+r) mod c] to each of the rows consecutive rows
// r of spatial floats starting at t. ch0 < c.
//
//go:noescape
func addBiasAVX(t, bias *float32, rows, c, ch0, spatial int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
