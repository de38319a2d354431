package tensor

import "fmt"

// channelDims views a tensor as [N, C, spatial]: axis 0 is the batch, axis
// 1 the channel (the accelerator's per-MAC-unit axis), and any remaining
// axes collapse into the spatial extent. Rank-2 tensors (Dense outputs
// [B, Out]) are the spatial=1 case, which is what lets Dense and Conv2D
// share the bias helpers below.
func channelDims(op string, t *Tensor) (n, c, spatial int) {
	if len(t.Shape) < 2 {
		panic(fmt.Sprintf("tensor: %s requires rank ≥ 2, got %v", op, t.Shape))
	}
	n, c, spatial = t.Shape[0], t.Shape[1], 1
	for _, d := range t.Shape[2:] {
		spatial *= d
	}
	return
}

// AddBiasNCHW adds bias[c] to every element of channel c: the shared
// per-channel bias addition of Conv2D ([N,K,OH,OW] + [K]) and Dense
// ([B, Out] + [Out]).
func AddBiasNCHW(t, bias *Tensor) {
	n, c, spatial := channelDims("AddBiasNCHW", t)
	if bias.Len() != c {
		panic(fmt.Sprintf("tensor: AddBiasNCHW bias has %d elements for %d channels", bias.Len(), c))
	}
	addBias(t.Data, bias.Data, n, c, spatial)
}

// sumPlanes is SumPerChannelBlocks over one block of n batches of len(acc) planes of spatial
// elements each.
func sumPlanes(data, acc []float32, n, spatial int) {
	c := len(acc)
	for b := 0; b < n; b++ {
		rows := data[b*c*spatial : (b+1)*c*spatial]
		ch := 0
		for ; ch+4 <= c; ch += 4 {
			r := rows[ch*spatial : (ch+4)*spatial]
			r0, r1, r2, r3 := r[:spatial], r[spatial:2*spatial], r[2*spatial:3*spatial], r[3*spatial:]
			r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)] // no bounds checks below
			var sum0, sum1, sum2, sum3 float32
			for i := range r0 {
				sum0 += r0[i]
				sum1 += r1[i]
				sum2 += r2[i]
				sum3 += r3[i]
			}
			acc[ch] += sum0
			acc[ch+1] += sum1
			acc[ch+2] += sum2
			acc[ch+3] += sum3
		}
		for ; ch < c; ch++ {
			var sum float32
			for _, v := range rows[ch*spatial : (ch+1)*spatial] {
				sum += v
			}
			acc[ch] += sum
		}
	}
}

// sumRows is SumPerChannelBlocks at spatial 1, over one block: acc[c] += +0 + row[c] for each
// of data's n rows in order. The +0 is the plane loop's starting sum, kept so
// that a −0 element adds as +0 there and here alike. With the AVX kernels
// columnsAVX keeps each channel's acc in a register lane over the rows.
func sumRows(data, acc []float32, n int) {
	c := len(acc)
	if useAVX && n > 0 && c > 0 {
		data = data[:n*c]
		columnsAVX(&acc[0], &data[0], 1, n, c, 0, true)
		return
	}
	sumRowsGo(data, acc, n)
}

func sumRowsGo(data, acc []float32, n int) {
	c := len(acc)
	for b := 0; b < n; b++ {
		row := data[b*c : (b+1)*c]
		for ch, v := range row {
			var sum float32
			sum += v
			acc[ch] += sum
		}
	}
}

// MeanPositions writes out [B, D] as the mean over positions of x [B, L,
// D]: each element from +0, adding x·(1/L) position by position in
// ascending order (columnsAVX, or the Go loop), every element of out
// overwritten.
func MeanPositions(out, x *Tensor) {
	if len(x.Shape) != 3 || len(out.Shape) != 2 || out.Shape[0] != x.Shape[0] || out.Shape[1] != x.Shape[2] ||
		len(x.Data) != x.Shape[0]*x.Shape[1]*x.Shape[2] || len(out.Data) != out.Shape[0]*out.Shape[1] {
		panic(fmt.Sprintf("tensor: MeanPositions of %v (%d elements) into %v (%d elements)", x.Shape, len(x.Data), out.Shape, len(out.Data)))
	}
	b, l, d := x.Shape[0], x.Shape[1], x.Shape[2]
	inv := 1 / float32(l)
	if useAVX && b > 0 && l > 0 && d > 0 {
		columnsAVX(&out.Data[0], &x.Data[0], b, l, d, inv, false)
		return
	}
	meanPositionsGo(out.Data, x.Data, b, l, d, inv)
}

func meanPositionsGo(out, x []float32, b, l, d int, inv float32) {
	zero(out)
	for bi := 0; bi < b; bi++ {
		o := out[bi*d : bi*d+d]
		for pos := 0; pos < l; pos++ {
			base := (bi*l + pos) * d
			for j, v := range x[base : base+d] {
				o[j] += v * inv
			}
		}
	}
}
