//go:build !amd64 || purego

package tensor

// useAVX is false wherever the assembly kernels are not built; the
// branches that test it compile away and the Go loops in matmul.go and
// tensor.go run.
const useAVX = false

func axpy4AVX(c, b []float32, a0, a1, a2, a3 float32) {
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
