package tensor

import (
	"fmt"
	"math"
)

// LayerNorm's two passes over rows of d = len(gamma) features. On amd64 the
// rows run four at a time through the kernels in elem_amd64.s, one row a
// lane, each row's sums still in index order; the rows past the last group
// of four take the Go loops, which are also the path of builds without the
// kernels and the reference TestLayerNormKernelsBitwise holds them to.

// layerNormDims checks the operands of a LayerNorm pass: rows of d floats,
// rows = len(invStd), every per-feature slice d long.
func layerNormDims(op string, invStd, gamma []float32, rowLens, featureLens []int) (rows, d int) {
	rows, d = len(invStd), len(gamma)
	if d == 0 {
		panic(fmt.Sprintf("tensor: %s over rows of no features", op))
	}
	for _, l := range rowLens {
		if l != rows*d {
			panic(fmt.Sprintf("tensor: %s operand holds %d elements, need %d rows of %d", op, l, rows, d))
		}
	}
	for _, l := range featureLens {
		if l != d {
			panic(fmt.Sprintf("tensor: %s per-feature operand holds %d elements for %d features", op, l, d))
		}
	}
	return rows, d
}

// LayerNormRows is LayerNorm's forward over the len(invStd) rows of x: per
// row, the mean and variance from float64 sums in index order, invStd[r] =
// float32(1/sqrt(variance + eps)), and per element
//
//	xhat = (x − float32(mean))·invStd[r]
//	out  = gamma·xhat + beta
func LayerNormRows(out, xhat, invStd, x, gamma, beta []float32, eps float32) {
	rows, d := layerNormDims("LayerNormRows", invStd, gamma, []int{len(out), len(xhat), len(x)}, []int{len(beta)})
	done := 0
	if useAVX && rows >= 4 {
		done = rows &^ 3
		layerNormAVX(&out[0], &xhat[0], &invStd[0], &x[0], &gamma[0], &beta[0], done, d, float64(eps))
	}
	layerNormGo(out[done*d:], xhat[done*d:], invStd[done:], x[done*d:], gamma, beta, eps)
}

func layerNormGo(out, xhat, invStd, x, gamma, beta []float32, eps float32) {
	d := len(gamma)
	beta = beta[:d]
	for r := range invStd {
		// Rows cut to len(gamma): no bounds checks below.
		xr, xh, o := x[r*d:][:d], xhat[r*d:][:d], out[r*d:][:d]
		var sum, sumsq float64
		for _, xv := range xr {
			v := float64(xv)
			sum += v
			sumsq += v * v
		}
		mean := sum / float64(d)
		variance := sumsq/float64(d) - mean*mean
		is := float32(1 / math.Sqrt(variance+float64(eps)))
		invStd[r] = is
		for i, g := range gamma {
			h := (xr[i] - float32(mean)) * is
			xh[i] = h
			o[i] = g*h + beta[i]
		}
	}
}

// LayerNormRowsBackward is LayerNorm's backward over the len(invStd) rows
// of dy: dBeta += dy and dGamma += dy·xhat, row after row, and per row, with
// dxh = dy·gamma and the float32 means of dxh and dxh·xhat summed in index
// order,
//
//	dx = invStd[r]·(dxh − mean(dxh) − xhat·mean(dxh·xhat))
func LayerNormRowsBackward(dx, dGamma, dBeta, dy, xhat, invStd, gamma []float32) {
	rows, d := layerNormDims("LayerNormRowsBackward", invStd, gamma, []int{len(dx), len(dy), len(xhat)}, []int{len(dGamma), len(dBeta)})
	done := 0
	if useAVX && rows >= 4 {
		done = rows &^ 3
		layerNormBackwardAVX(&dx[0], &dGamma[0], &dBeta[0], &dy[0], &xhat[0], &invStd[0], &gamma[0], done, d)
	}
	layerNormBackwardGo(dx[done*d:], dGamma, dBeta, dy[done*d:], xhat[done*d:], invStd[done:], gamma)
}

func layerNormBackwardGo(gradIn, dGammaAll, dBetaAll, gradOut, xhat, invStds, gammaAll []float32) {
	d := len(gammaAll)
	gamma, dGamma, dBeta := gammaAll[:d], dGammaAll[:d], dBetaAll[:d]
	for r, invStd := range invStds {
		// Rows cut to len(gamma): no bounds checks below.
		dyr, xh, dx := gradOut[r*d:][:len(gamma)], xhat[r*d:][:len(gamma)], gradIn[r*d:][:len(gamma)]
		var sumDxh, sumDxhXhat float32
		for i, g := range gamma {
			dy, h := dyr[i], xh[i]
			dBeta[i] += dy
			dGamma[i] += dy * h
			dxh := dy * g
			sumDxh += dxh
			sumDxhXhat += dxh * h
		}
		meanDxh := sumDxh / float32(d)
		meanDxhXhat := sumDxhXhat / float32(d)
		for i, g := range gamma {
			dxh := dyr[i] * g
			dx[i] = invStd * (dxh - meanDxh - xh[i]*meanDxhXhat)
		}
	}
}
