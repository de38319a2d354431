//go:build !amd64 || purego

package tensor

// useAVX is false wherever the assembly kernels are not built; the
// branches that test it compile away and the Go loops in matmul.go and
// tensor.go run.
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
