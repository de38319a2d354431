package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// TestConvBlocksMatchPerBlockCalls holds the convolution's block calls to the
// single-device calls on each block's examples alone, bit for bit: every
// block's kernel gradient added to its own destination (starting from −0, a
// NaN and normals) and, for Conv2DBackwardBlocksWS, the input gradient of
// all the examples — with equal and unequal blocks, one block, a dense output
// gradient (the transposed-product path over cols in place) and one with
// zeros (the block layout path), in fp32 and bf16; SumPerChannelBlocks beside
// them on the same output gradient.
func TestConvBlocksMatchPerBlockCalls(t *testing.T) {
	r := rng.NewFromInt(91)
	p := ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}
	fill := func(x *Tensor) *Tensor {
		for i := range x.Data {
			x.Data[i] = float32(r.NormFloat64())
		}
		return x
	}
	for _, rows := range [][]int{{2, 2, 2}, {3, 2, 2, 1}, {5}} {
		for _, zeros := range []bool{false, true} {
			for _, mixed := range []bool{false, true} {
				name := fmt.Sprintf("blocks %v zeros=%v mixed=%v", rows, zeros, mixed)
				n := 0
				for _, b := range rows {
					n += b
				}
				in, kernel, gradOut := fill(New(n, 3, 6, 6)), fill(New(4, 3, 3, 3)), fill(New(n, 4, 6, 6))
				if zeros {
					for i := 0; i < len(gradOut.Data); i += 3 {
						gradOut.Data[i] = 0
					}
				}
				ws := NewWorkspace()
				_, c := Conv2DForwardWS(ws, in, kernel, p, mixed)
				cols := c.Clone()
				start := make([]*Tensor, len(rows))
				for i := range start {
					start[i] = fill(New(4, 3, 3, 3))
					start[i].Data[0] = float32(math.Copysign(0, -1))
					start[i].Data[1] = math.Float32frombits(0x7fc0acc1)
				}
				clones := func() []*Tensor {
					out := make([]*Tensor, len(start))
					for i, d := range start {
						out[i] = d.Clone()
					}
					return out
				}
				want, wantIn, wantBias := clones(), New(n, 3, 6, 6), make([]*Tensor, len(rows))
				off := 0
				for i, b := range rows {
					block := func(x *Tensor) *Tensor {
						per := len(x.Data) / n
						return FromSlice(x.Data[off*per:(off+b)*per], append([]int{b}, x.Shape[1:]...)...)
					}
					gin, gk := Conv2DBackwardWS(NewWorkspace(), block(in), kernel, block(gradOut), nil, p, mixed)
					want[i].AddInPlace(gk)
					copy(block(wantIn).Data, gin.Data)
					wantBias[i] = New(4)
					SumPerChannelBlocks(wantBias[i:i+1], block(gradOut), []int{b})
					off += b
				}
				dsts, gotParams, gotBias := clones(), clones(), make([]*Tensor, len(rows))
				// Over several blocks the backward forms the input gradient's
				// columns in cols' buffer, so each call gets its own copy.
				Conv2DWeightGradBlocksWS(ws, gotParams, in, kernel, gradOut, cols.Clone(), rows, p, mixed)
				gotIn := Conv2DBackwardBlocksWS(ws, dsts, in, kernel, gradOut, cols, rows, p, mixed)
				for i := range gotBias {
					gotBias[i] = New(4)
				}
				SumPerChannelBlocks(gotBias, gradOut, rows)
				sameBits(t, "Conv2DBackwardBlocksWS input gradient "+name, gotIn.Data, wantIn.Data, true)
				for i := range rows {
					sameBits(t, fmt.Sprintf("Conv2DBackwardBlocksWS block %d %s", i, name), dsts[i].Data, want[i].Data, true)
					sameBits(t, fmt.Sprintf("Conv2DWeightGradBlocksWS block %d %s", i, name), gotParams[i].Data, want[i].Data, true)
					sameBits(t, fmt.Sprintf("SumPerChannelBlocks block %d %s", i, name), gotBias[i].Data, wantBias[i].Data, true)
				}
			}
		}
	}
}
