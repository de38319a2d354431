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
// ([B, Out] + [Out]). Large tensors run the channel rows on the kernel
// worker pool; each element has exactly one writer, so the result is
// bitwise-identical for any worker count.
func AddBiasNCHW(t, bias *Tensor) {
	n, c, spatial := channelDims("AddBiasNCHW", t)
	if bias.Len() != c {
		panic(fmt.Sprintf("tensor: AddBiasNCHW bias has %d elements for %d channels", bias.Len(), c))
	}
	rows := n * c
	if w := matmulWorkers; w > 1 && rows > 1 && rows*spatial >= absMaxParallelMin {
		td, biasd := t.Data, bias.Data
		parallelInto(w, rows, func(_, lo, hi int) {
			addBiasRows(td, biasd, c, spatial, lo, hi)
		})
		return
	}
	addBias(t.Data, bias.Data, n, c, spatial)
}

// AddBiasNCHWEp performs AddBiasNCHW and additionally returns the lane-rule
// total sum and abs-max of the updated t — bitwise t.Sum() and t.AbsMax()
// immediately after the call, read while the add's output is still in cache.
// This is the fused read ABFT (output checksum) and Ranger (output range)
// ride on.
func AddBiasNCHWEp(t, bias *Tensor) (sum float64, absMax float32) {
	n, c, spatial := channelDims("AddBiasNCHWEp", t)
	if bias.Len() != c {
		panic(fmt.Sprintf("tensor: AddBiasNCHWEp bias has %d elements for %d channels", bias.Len(), c))
	}
	addBias(t.Data, bias.Data, n, c, spatial)
	return t.Sum(), t.AbsMax()
}

// SumPerChannelNCHW accumulates the sum of each channel of t into into[c]
// (+=, matching gradient-accumulation semantics): the shared bias-gradient
// reduction of Conv2D and Dense backward passes. Accumulation order is
// batch-major then spatial, identical for any worker setting — the
// reduction is intentionally serial to preserve bitwise determinism. Serial
// per channel, that is: a row's sum is one chain of dependent additions, so
// the rows of four channels are summed side by side, each from its own +0 in
// its own order, and the channels left over one at a time.
func SumPerChannelNCHW(t, into *Tensor) {
	n, c, spatial := channelDims("SumPerChannelNCHW", t)
	if into.Len() != c {
		panic(fmt.Sprintf("tensor: SumPerChannelNCHW destination has %d elements for %d channels", into.Len(), c))
	}
	for b := 0; b < n; b++ {
		rows := t.Data[b*c*spatial : (b+1)*c*spatial]
		acc := into.Data[:c]
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
