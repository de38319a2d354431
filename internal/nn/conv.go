package nn

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW input with a per-output-channel
// bias. The MAC products can be computed in bfloat16 (Mixed), mirroring the
// modeled accelerator.
type Conv2D struct {
	name  string
	K     *Param // kernel [OutC, InC, KH, KW]
	B     *Param // bias [OutC]
	Par   tensor.ConvParams
	Mixed bool
	lastX *tensor.Tensor
	// ws holds the layer's im2col/col2im scratch and gradient staging
	// buffers; lastCols is the forward im2col matrix, handed to the
	// backward pass so the lowering runs once per iteration instead of
	// twice.
	ws       *tensor.Workspace
	lastCols *tensor.Tensor
	// st is the forward's stack; rows and dsts are the backward's block
	// rows and gradient destinations, reused.
	st     *Stack
	rows   []int
	dsts   []*tensor.Tensor
	params []*Param
}

// NewConv2D creates a convolution layer with He-normal initialization.
func NewConv2D(name string, inC, outC, kh, kw, stride, padding int, r *rng.Rand, mixed bool) *Conv2D {
	c := &Conv2D{
		name:  name,
		K:     newParam(name+"/kernel", outC, inC, kh, kw),
		B:     newParam(name+"/bias", outC),
		Par:   tensor.ConvParams{KH: kh, KW: kw, Stride: stride, Padding: padding},
		Mixed: mixed,
		ws:    tensor.NewWorkspace(),
	}
	fanIn := float64(inC * kh * kw)
	c.K.Value.FillNormal(r, 0, math.Sqrt(2.0/fanIn))
	return c
}

// Params implements Layer. The slice is cached (Param pointers are stable
// after construction) and must be treated as read-only.
func (c *Conv2D) Params() []*Param {
	if c.params == nil {
		c.params = []*Param{c.K, c.B}
	}
	return c.params
}

// Workspace implements WorkspaceHolder.
func (c *Conv2D) Workspace() *tensor.Workspace { return c.ws }

// SetWorkspace implements WorkspaceHolder.
func (c *Conv2D) SetWorkspace(ws *tensor.Workspace) { c.ws = ws }

// FanIn returns the number of partial sums per output neuron (N_l in
// Algorithm 1): InC*KH*KW.
func (c *Conv2D) FanIn() int {
	return c.K.Value.Shape[1] * c.Par.KH * c.Par.KW
}

// Forward implements Layer.
func (c *Conv2D) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank(c.name, x, 4)
	c.lastX, c.st = x, stackOf(ctx)
	y, cols := tensor.Conv2DForwardWS(c.ws, x, c.K.Value, c.Par, c.Mixed)
	c.lastCols = cols
	tensor.AddBiasNCHW(y, c.B.Value)
	return y
}

// ForwardCols returns the im2col matrix of the most recent forward input —
// valid until the next forward (workspace-owned; the backward pass of a
// replica's own batch reads it without rewriting it, a stacked backward forms
// the input gradient's columns in it). ABFT, never stacked
// (nn.Sequential.Stackable), reuses it for its checksum GEMMs instead of
// re-lowering the input.
func (c *Conv2D) ForwardCols() *tensor.Tensor { return c.lastCols }

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	checkGradRank(c.name, gradOut, 4)
	// The forward im2col matrix is still valid (lastX is untouched between
	// the passes), so the backward skips the re-lowering.
	c.rows = c.st.rows(c.lastX.Shape[0], c.rows)
	c.dsts = c.K.grads(c.st, c.dsts)
	gradIn := tensor.Conv2DBackwardBlocksWS(c.ws, c.dsts, c.lastX, c.K.Value, gradOut, c.lastCols, c.rows, c.Par, c.Mixed)
	c.dsts = c.B.grads(c.st, c.dsts)
	tensor.SumPerChannelBlocks(c.dsts, gradOut, c.rows)
	return gradIn
}

// BackwardParams accumulates Backward's kernel and bias gradients, each
// block's into its replica's, and forms no input gradient (see
// Sequential.BackwardParams).
func (c *Conv2D) BackwardParams(gradOut *tensor.Tensor) {
	checkGradRank(c.name, gradOut, 4)
	c.rows = c.st.rows(c.lastX.Shape[0], c.rows)
	c.dsts = c.K.grads(c.st, c.dsts)
	tensor.Conv2DWeightGradBlocksWS(c.ws, c.dsts, c.lastX, c.K.Value, gradOut, c.lastCols, c.rows, c.Par, c.Mixed)
	c.dsts = c.B.grads(c.st, c.dsts)
	tensor.SumPerChannelBlocks(c.dsts, gradOut, c.rows)
}

// MaxPool2D is a max pooling layer over NCHW input.
type MaxPool2D struct {
	Size, Stride int
	lastX        *tensor.Tensor
	argmax       []int // flat input index chosen for each output element
	outShape     []int
}

// NewMaxPool2D creates a max-pool layer with square window size and stride.
func NewMaxPool2D(size, stride int) *MaxPool2D {
	return &MaxPool2D{Size: size, Stride: stride}
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxPool2D) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank("maxpool", x, 4)
	m.lastX = x
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-m.Size)/m.Stride + 1
	ow := (w-m.Size)/m.Stride + 1
	out := tensor.New(n, c, oh, ow)
	m.argmax = make([]int, out.Len())
	m.outShape = out.Shape
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := ((b*c + ch) * h) * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bestIdx := -1
					for ky := 0; ky < m.Size; ky++ {
						for kx := 0; kx < m.Size; kx++ {
							iy := oy*m.Stride + ky
							ix := ox*m.Stride + kx
							idx := plane + iy*w + ix
							if v := x.Data[idx]; v > best || bestIdx == -1 {
								best, bestIdx = v, idx
							}
						}
					}
					out.Data[oi] = best
					m.argmax[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(m.lastX.Shape...)
	for oi, idx := range m.argmax {
		gradIn.Data[idx] += gradOut.Data[oi]
	}
	return gradIn
}

// GlobalAvgPool averages each channel's spatial plane: [B,C,H,W] → [B,C].
type GlobalAvgPool struct {
	lastShape []int
	// ws backs the output and the input gradient; both are fully
	// overwritten on every call.
	ws *tensor.Workspace
}

// NewGlobalAvgPool creates the layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{ws: tensor.NewWorkspace()} }

// Workspace implements WorkspaceHolder.
func (g *GlobalAvgPool) Workspace() *tensor.Workspace { return g.ws }

// SetWorkspace implements WorkspaceHolder.
func (g *GlobalAvgPool) SetWorkspace(ws *tensor.Workspace) { g.ws = ws }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank("gap", x, 4)
	g.lastShape = append(g.lastShape[:0], x.Shape...)
	n, c := x.Shape[0], x.Shape[1]
	spatial := x.Shape[2] * x.Shape[3]
	out := g.ws.Get("out", n, c)
	inv := 1 / float32(spatial)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * spatial
			var sum float32
			for i := 0; i < spatial; i++ {
				sum += x.Data[base+i]
			}
			out.Data[b*c+ch] = sum * inv
		}
	}
	return out
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	n, c := g.lastShape[0], g.lastShape[1]
	spatial := g.lastShape[2] * g.lastShape[3]
	gradIn := g.ws.Get("gin", g.lastShape...)
	inv := 1 / float32(spatial)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			gv := gradOut.Data[b*c+ch] * inv
			base := (b*c + ch) * spatial
			for i := 0; i < spatial; i++ {
				gradIn.Data[base+i] = gv
			}
		}
	}
	return gradIn
}
