//go:build !amd64 || purego

package tensor

// useAVX is false wherever the assembly kernels are not built; the
// branches that test it compile away and the Go loops in matmul.go,
// tensor.go, elem.go, norm.go, math.go and reduce.go run.
const useAVX = false

func gemmTileAVX(c, b, a *float32, m, n, k, aRow, aK int, start tileStart, aFirst bool, s float32) {
	panic("tensor: no AVX kernels in this build")
}

func gemmSparseAVX(c, b, a *float32, m, n, k, aRow, aK int) {
	panic("tensor: no AVX kernels in this build")
}

func zerosAVX(a *float32, n int) int { panic("tensor: no AVX kernels in this build") }

func denseRun4AVX(a *float32, kLen, aRow, aK int) int {
	panic("tensor: no AVX kernels in this build")
}

func axpy1AVX(c, b []float32, a float32) { panic("tensor: no AVX kernels in this build") }

func transposeAVX(dst, src *float32, rows, cols, blocks int) {
	panic("tensor: no AVX kernels in this build")
}

func blockTapsAVX(dst, src []float32, n, rows, cols, dstBlock, srcBlock, dstStride, srcStride, c, kh, kw, dstC, dstH, dstW, srcC, srcH, srcW int, add bool) {
	panic("tensor: no AVX kernels in this build")
}

func normalizeAVX(out, xhat, x, mean, invStd, gamma, beta *float32, n, c, spatial int) {
	panic("tensor: no AVX kernels in this build")
}

func normalizeBackwardAVX(dx, dy, xhat, scale, meanDy, meanDyXhat *float32, n, c, spatial int) {
	panic("tensor: no AVX kernels in this build")
}

func reluForwardAVX(out *float32, mask *uint32, x *float32, n int) {
	panic("tensor: no AVX kernels in this build")
}

func reluBackwardAVX(dx, dy *float32, mask *uint32, n int) {
	panic("tensor: no AVX kernels in this build")
}

func addBiasAVX(t, bias *float32, rows, c, spatial int) {
	panic("tensor: no AVX kernels in this build")
}

func columnsAVX(dst, src *float32, blocks, rows, cols int, k float32, sum bool) {
	panic("tensor: no AVX kernels in this build")
}

func expRowAVX(e *float64, x *float32, shift float32, n int, fma bool) int {
	panic("tensor: no AVX kernels in this build")
}

func geluForwardAVX(out *float32, th *float64, x *float32, n int, fma bool) int {
	panic("tensor: no AVX kernels in this build")
}

func hasFMA() bool { return false }

func layerNormAVX(out, xhat, invStd, x, gamma, beta *float32, rows, d int, eps float64) {
	panic("tensor: no AVX kernels in this build")
}

func layerNormBackwardAVX(dx, dGamma, dBeta, dy, xhat, invStd, gamma *float32, rows, d int) {
	panic("tensor: no AVX kernels in this build")
}

func geluBackwardAVX(dx, dy, x *float32, th *float64, n int) {
	panic("tensor: no AVX kernels in this build")
}

func adamAVX(p, m, v, grad *float32, n int, k *[8]float32) (mMax, vMax uint32) {
	panic("tensor: no AVX kernels in this build")
}

func addAbsMaxAVX(t, u *float32, n int) uint32 { panic("tensor: no AVX kernels in this build") }

func scaleAVX(t *float32, s float32, n int) { panic("tensor: no AVX kernels in this build") }

func softmaxRowsAVX(out *float32, e *float64, s *float32, rows, cols int, fma bool) int {
	panic("tensor: no AVX kernels in this build")
}

func softmaxBackwardAVX(out, a, dy *float32, rows, cols int, s float32) {
	panic("tensor: no AVX kernels in this build")
}

func tbTileAVX(c, b, a *float32, m, n, k, batch int, start tileStart, s float32) {
	panic("tensor: no AVX kernels in this build")
}
