//go:build !amd64 || purego

package tensor

// useAVX is false wherever the assembly kernels are not built; the
// branches that test it compile away and the Go loops in matmul.go,
// tensor.go and elem.go run.
const useAVX = false

func gemmTile4AVX(c, b, a *float32, n, kLen, aRow, aK int) {
	panic("tensor: no AVX kernels in this build")
}

func denseRun4AVX(a *float32, kLen, aRow, aK int) int {
	panic("tensor: no AVX kernels in this build")
}

func axpy1AVX(c, b []float32, a float32) { panic("tensor: no AVX kernels in this build") }

func transposeStrip8AVX(dst, src []float32, rows, cols int) {
	panic("tensor: no AVX kernels in this build")
}

func moveBlocksAVX(dst, src []float32, n, rows, cols, dstBlock, srcBlock, dstStride, srcStride int) {
	panic("tensor: no AVX kernels in this build")
}

func addBlocksAVX(dst, src []float32, n, rows, cols, dstBlock, srcBlock, dstStride, srcStride int) {
	panic("tensor: no AVX kernels in this build")
}

func normalizeAVX(out, xhat, x, mean, invStd, gamma, beta *float32, n, c, spatial int) uint32 {
	panic("tensor: no AVX kernels in this build")
}

func normalizeBackwardAVX(dx, dy, xhat, scale, meanDy, meanDyXhat *float32, n, c, spatial int) {
	panic("tensor: no AVX kernels in this build")
}

func reluForwardAVX(out *float32, mask *uint32, x *float32, n int) uint32 {
	panic("tensor: no AVX kernels in this build")
}

func reluBackwardAVX(dx, dy *float32, mask *uint32, n int) {
	panic("tensor: no AVX kernels in this build")
}

func addBiasAVX(t, bias *float32, rows, c, ch0, spatial int) {
	panic("tensor: no AVX kernels in this build")
}
