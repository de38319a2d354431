package nn

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// SeqDense applies a shared Dense projection to every position of a
// [B, L, D] sequence, producing [B, L, U] — the position-wise feed-forward
// used in Transformer blocks and as the token embedding.
type SeqDense struct {
	inner     *Dense
	lastShape []int
	// Reusable headers: the input and the output gradient as [B·L, ·]
	// matrices for the inner layer, its results as sequences.
	xv, yv, gv, dv tensor.Tensor
}

// NewSeqDense creates a position-wise dense layer.
func NewSeqDense(name string, in, out int, r *rng.Rand, mixed bool) *SeqDense {
	return &SeqDense{inner: NewDense(name, in, out, r, mixed)}
}

// Params implements Layer.
func (s *SeqDense) Params() []*Param { return s.inner.Params() }

// Workspace implements WorkspaceHolder: the inner layer's.
func (s *SeqDense) Workspace() *tensor.Workspace { return s.inner.ws }

// SetWorkspace implements WorkspaceHolder: the inner layer's.
func (s *SeqDense) SetWorkspace(ws *tensor.Workspace) { s.inner.ws = ws }

// viewAs points the reusable header v at data under shape and returns it.
// data must hold exactly the shape's elements.
func viewAs(v *tensor.Tensor, data []float32, shape ...int) *tensor.Tensor {
	v.Data = data
	v.Shape = append(v.Shape[:0], shape...)
	return v
}

// Forward implements Layer.
func (s *SeqDense) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank(s.inner.name, x, 3)
	s.lastShape = append(s.lastShape[:0], x.Shape...)
	b, l, d := x.Shape[0], x.Shape[1], x.Shape[2]
	y := s.inner.Forward(ctx, viewAs(&s.xv, x.Data, b*l, d))
	return viewAs(&s.yv, y.Data, b, l, y.Shape[1])
}

// Backward implements Layer.
func (s *SeqDense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	b, l := s.lastShape[0], s.lastShape[1]
	u := gradOut.Shape[2]
	g := s.inner.Backward(viewAs(&s.gv, gradOut.Data, b*l, u))
	return viewAs(&s.dv, g.Data, b, l, s.lastShape[2])
}

// BackwardParams accumulates Backward's weight and bias gradients and forms
// no input gradient (see Sequential.BackwardParams).
func (s *SeqDense) BackwardParams(gradOut *tensor.Tensor) {
	s.inner.BackwardParams(viewAs(&s.gv, gradOut.Data, s.lastShape[0]*s.lastShape[1], gradOut.Shape[2]))
}

// SeqMean averages a [B, L, D] sequence over positions, producing [B, D].
type SeqMean struct {
	lastShape []int
	// lastOut is the forward's output, kept for its element count.
	lastOut *tensor.Tensor
	// ws backs the output and the input gradient.
	ws *tensor.Workspace
}

// NewSeqMean creates the pooling layer.
func NewSeqMean() *SeqMean { return &SeqMean{ws: tensor.NewWorkspace()} }

// Params implements Layer.
func (s *SeqMean) Params() []*Param { return nil }

// Workspace implements WorkspaceHolder.
func (s *SeqMean) Workspace() *tensor.Workspace { return s.ws }

// SetWorkspace implements WorkspaceHolder.
func (s *SeqMean) SetWorkspace(ws *tensor.Workspace) { s.ws = ws }

// Forward implements Layer. A row of the output starts at zero and takes its
// positions' terms in ascending order (tensor.MeanPositions).
func (s *SeqMean) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank("seqmean", x, 3)
	s.lastShape = append(s.lastShape[:0], x.Shape...)
	out := s.ws.Get("out", x.Shape[0], x.Shape[2])
	tensor.MeanPositions(out, x)
	s.lastOut = out
	return out
}

// Backward implements Layer. Every position of a batch element receives the
// same gradient row, gradOut's row times 1/L, formed once and copied.
func (s *SeqMean) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	checkGradLen("seqmean", gradOut, s.lastOut)
	b, l, d := s.lastShape[0], s.lastShape[1], s.lastShape[2]
	gradIn := s.ws.Get("dx", b, l, d)
	inv := 1 / float32(l)
	for bi := 0; bi < b; bi++ {
		rows := gradIn.Data[bi*l*d : (bi+1)*l*d]
		for j, gv := range gradOut.Data[bi*d : bi*d+d] {
			rows[j] = gv * inv
		}
		for pos := 1; pos < l; pos++ {
			copy(rows[pos*d:(pos+1)*d], rows[:d])
		}
	}
	return gradIn
}

// Attention is single-head scaled dot-product self-attention over a
// [B, L, D] sequence: Q=XWq, K=XWk, V=XWv, A=softmax(QKᵀ/√Dk), Y=(AV)Wo.
// Its matrix multiplies honor the Mixed (bfloat16 MAC) setting.
//
// The four projections, dO = dY·Woᵀ and the three terms of the input gradient
// are one GEMM each over the whole batch as a [B·L, ·] matrix: rows of a GEMM are
// independent, so each batch element's rows come out as they would from a
// GEMM of its own. S, the softmax, O and their gradients couple only the rows
// of one batch element: each product kind is one batched call over the B row
// blocks of the whole-batch matrices (tensor.MatMulBatchInto and its TA and
// TB forms), each element's product its own, and the softmax and its
// backward one call over all B·L rows. The weight gradients sum over the
// batch, and are accumulated one batch element at a time in index order, each
// into its device's gradient in a stacked pass (tensor.AddMatMulTABlocks, one
// block an element): one GEMM over B·L rows would add the same terms in
// another order.
type Attention struct {
	name           string
	Wq, Wk, Wv, Wo *Param
	Dk             int
	Mixed          bool

	// lastX is the forward's input, which Backward reads back with the
	// bound Q, K, V, A and O, and zx its ±0 count (tensor.CountZeros), taken
	// once for the six products that read x as their A.
	lastX *tensor.Tensor
	zx    int
	// st is the forward's stack; exRows (L for each batch element) and dsts
	// (the gradient each element adds into) are the backward's, reused.
	st     *Stack
	exRows []int
	dsts   []*tensor.Tensor

	// ws backs every intermediate, the output and the input gradient, so a
	// steady-state iteration allocates nothing; buf holds them resolved.
	ws  *tensor.Workspace
	buf attnBufs
	// expRow is the softmax's float64 exponentials of one row of S.
	expRow []float64

	params []*Param
}

// attnBufs is the attention layer's workspace buffers, each looked up by key
// once per (B, L, D) and workspace (Attention.bind), with the headers that
// view whole-batch data as [B·L, D] matrices. "s" is S in Forward and dA in
// Backward, which are never alive together.
type attnBufs struct {
	ws      *tensor.Workspace
	gen     uint64
	b, l, d int

	q, k, v, a, o, out    *tensor.Tensor
	gO, gQ, gK, gV, s, gS *tensor.Tensor
	dx                    *tensor.Tensor
	xv, gv, outv, dxv     tensor.Tensor // x, dY, the output and dx as [B·L, D]
}

// NewAttention creates a self-attention layer with model dim d and head dim
// dk (output dim is d, via Wo: [dk, d]).
func NewAttention(name string, d, dk int, r *rng.Rand, mixed bool) *Attention {
	at := &Attention{
		name:  name,
		Wq:    newParam(name+"/wq", d, dk),
		Wk:    newParam(name+"/wk", d, dk),
		Wv:    newParam(name+"/wv", d, dk),
		Wo:    newParam(name+"/wo", dk, d),
		Dk:    dk,
		Mixed: mixed,
		ws:    tensor.NewWorkspace(),
	}
	std := math.Sqrt(1.0 / float64(d))
	at.Wq.Value.FillNormal(r, 0, std)
	at.Wk.Value.FillNormal(r, 0, std)
	at.Wv.Value.FillNormal(r, 0, std)
	at.Wo.Value.FillNormal(r, 0, math.Sqrt(1.0/float64(dk)))
	return at
}

// Params implements Layer. Cached; read-only for callers.
func (at *Attention) Params() []*Param {
	if at.params == nil {
		at.params = []*Param{at.Wq, at.Wk, at.Wv, at.Wo}
	}
	return at.params
}

// Workspace implements WorkspaceHolder.
func (at *Attention) Workspace() *tensor.Workspace { return at.ws }

// SetWorkspace implements WorkspaceHolder.
func (at *Attention) SetWorkspace(ws *tensor.Workspace) { at.ws = ws }

// bind returns the layer's buffers for a [b, l, d] input, resolving them
// only when the workspace, its generation (tensor.Workspace.Generation) or
// the shape differs from the last resolution: every Get a replica sharing
// the workspace makes at the same shape leaves the generation alone, so the
// replicas of an engine step on one resolution. With a nil workspace it
// resolves every call, each Get a fresh tensor, as Get itself does.
func (at *Attention) bind(b, l, d int) *attnBufs {
	bf, ws := &at.buf, at.ws
	if ws != nil && bf.ws == ws && bf.gen == ws.Generation() && bf.b == b && bf.l == l && bf.d == d {
		return bf
	}
	dk := at.Dk
	bf.q, bf.k, bf.v = ws.Get("q", b*l, dk), ws.Get("k", b*l, dk), ws.Get("v", b*l, dk)
	bf.a, bf.o, bf.s = ws.Get("a", b*l, l), ws.Get("o", b*l, dk), ws.Get("s", b*l, l)
	bf.out = ws.Get("out", b, l, d)
	bf.gO = ws.Get("go", b*l, dk)
	bf.gQ, bf.gK, bf.gV = ws.Get("gq", b*l, dk), ws.Get("gk", b*l, dk), ws.Get("gv", b*l, dk)
	bf.gS = ws.Get("gs", b*l, l)
	bf.dx = ws.Get("dx", b, l, d)
	viewAs(&bf.outv, bf.out.Data, b*l, d)
	viewAs(&bf.dxv, bf.dx.Data, b*l, d)
	bf.xv.Shape = append(bf.xv.Shape[:0], b*l, d)
	bf.gv.Shape = append(bf.gv.Shape[:0], b*l, d)
	at.expRow = float64Scratch(at.expRow, l)
	bf.ws, bf.gen, bf.b, bf.l, bf.d = ws, ws.Generation(), b, l, d
	return bf
}

// scale is the scores' factor 1/√Dk.
func (at *Attention) scale() float32 { return float32(1 / math.Sqrt(float64(at.Dk))) }

// Forward implements Layer.
func (at *Attention) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank(at.name, x, 3)
	bf, mixed := at.bind(x.Shape[0], x.Shape[1], x.Shape[2]), at.Mixed
	at.lastX, at.st, at.zx = x, stackOf(ctx), tensor.CountZeros(x)
	bf.xv.Data = x.Data
	tensor.MatMulCountedInto(bf.q, &bf.xv, at.Wq.Value, at.zx, mixed)
	tensor.MatMulCountedInto(bf.k, &bf.xv, at.Wk.Value, at.zx, mixed)
	tensor.MatMulCountedInto(bf.v, &bf.xv, at.Wv.Value, at.zx, mixed)
	tensor.MatMulTBBatchInto(bf.s, bf.q, bf.k, bf.b, at.scale(), mixed)
	softmaxRowsInto(bf.a, bf.s, at.expRow)
	tensor.MatMulBatchInto(bf.o, bf.a, bf.v, bf.b, mixed)
	tensor.MatMulInto(&bf.outv, bf.o, at.Wo.Value, mixed)
	return bf.out
}

// Backward implements Layer. The transposed products go through the
// fused-transpose kernels (Aᵀ×B and A×Bᵀ), so no transpose is materialized
// here.
func (at *Attention) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	checkGradLen(at.name, gradOut, at.lastX)
	bf, mixed, b := &at.buf, at.Mixed, at.buf.b
	bf.xv.Data, bf.gv.Data = at.lastX.Data, gradOut.Data
	at.exRows = at.exRows[:0]
	for range b {
		at.exRows = append(at.exRows, bf.l)
	}

	// Y = O·Wo
	tensor.MatMulTBInto(bf.gO, &bf.gv, at.Wo.Value, mixed)
	tensor.AddMatMulTABlocks(at.elementGrads(at.Wo), bf.o, &bf.gv, at.exRows, -1, mixed)

	// O = A·V
	gA := bf.s
	tensor.MatMulTBBatchInto(gA, bf.gO, bf.v, b, 1, mixed)
	tensor.MatMulTABatchInto(bf.gV, bf.a, bf.gO, b, mixed)

	// A = softmax(S) rows: dS = A ⊙ (dA − rowsum(dA⊙A)), then the 1/√Dk of S
	tensor.SoftmaxRowsBackward(bf.gS.Data, bf.a.Data, gA.Data, bf.l, at.scale())

	// S = Q·Kᵀ
	tensor.MatMulBatchInto(bf.gQ, bf.gS, bf.k, b, mixed)
	tensor.MatMulTABatchInto(bf.gK, bf.gS, bf.q, b, mixed)

	tensor.AddMatMulTABlocks(at.elementGrads(at.Wq), &bf.xv, bf.gQ, at.exRows, at.zx, mixed)
	tensor.AddMatMulTABlocks(at.elementGrads(at.Wk), &bf.xv, bf.gK, at.exRows, at.zx, mixed)
	tensor.AddMatMulTABlocks(at.elementGrads(at.Wv), &bf.xv, bf.gV, at.exRows, at.zx, mixed)

	// Q = X·Wq, K = X·Wk, V = X·Wv: dx is the three terms added in this
	// order, the later two as their tiles are stored.
	tensor.MatMulTBInto(&bf.dxv, bf.gQ, at.Wq.Value, mixed)
	tensor.AddMatMulTB(&bf.dxv, bf.gK, at.Wk.Value, mixed)
	tensor.AddMatMulTB(&bf.dxv, bf.gV, at.Wv.Value, mixed)
	return bf.dx
}

// elementGrads returns the gradient of p each batch element of the last
// forward adds into, in element order: its block's replica's, or p's own
// outside a stack.
func (at *Attention) elementGrads(p *Param) []*tensor.Tensor {
	at.dsts = at.dsts[:0]
	if at.st == nil {
		for range at.buf.b {
			at.dsts = append(at.dsts, p.Grad)
		}
		return at.dsts
	}
	for i, n := range at.st.Examples {
		g := p.peers[at.st.Devices[i]].Grad
		for range n {
			at.dsts = append(at.dsts, g)
		}
	}
	return at.dsts
}

// softmaxRowsInto writes the numerically stable softmax of each row of the
// 2-D tensor s into out (every element is overwritten) and returns out, all
// rows in one tensor.SoftmaxRows call; e is a row's worth of float64
// scratch for its exponentials.
func softmaxRowsInto(out, s *tensor.Tensor, e []float64) *tensor.Tensor {
	tensor.SoftmaxRows(out.Data, s.Data, s.Shape[1], e)
	return out
}

// LSTM is a single-layer LSTM over a [B, L, D] sequence that returns the
// final hidden state [B, H]. It is the recurrent substrate for the
// multigrid-neural-memory workload stand-in. Gates follow the standard
// formulation; backward is full backpropagation through time.
type LSTM struct {
	name string
	// Wx [D, 4H] and Wh [H, 4H] hold the input and recurrent weights for
	// the four gates in i,f,g,o order; Bias [4H].
	Wx, Wh, Bias *Param
	H            int
	Mixed        bool

	// caches per time step
	lastX *tensor.Tensor
	// st is the forward's stack; rows and dsts are the backward's block
	// rows and gradient destinations, reused.
	st    *Stack
	rows  []int
	dsts  []*tensor.Tensor
	xs    []*tensor.Tensor // input at step t [B, D]
	hs    []*tensor.Tensor // hidden after step t [B, H] (hs[0] is h_{-1}=0)
	cs    []*tensor.Tensor // cell after step t
	gates []*tensor.Tensor // activated gates at step t [B, 4H]

	params []*Param
}

// NewLSTM creates an LSTM layer with input dim d and hidden size h.
func NewLSTM(name string, d, h int, r *rng.Rand, mixed bool) *LSTM {
	l := &LSTM{
		name:  name,
		Wx:    newParam(name+"/wx", d, 4*h),
		Wh:    newParam(name+"/wh", h, 4*h),
		Bias:  newParam(name+"/bias", 4*h),
		H:     h,
		Mixed: mixed,
	}
	l.Wx.Value.FillNormal(r, 0, math.Sqrt(1.0/float64(d)))
	l.Wh.Value.FillNormal(r, 0, math.Sqrt(1.0/float64(h)))
	// Positive forget-gate bias, the standard trick for trainability.
	for j := h; j < 2*h; j++ {
		l.Bias.Value.Data[j] = 1
	}
	return l
}

// Params implements Layer. Cached; read-only for callers.
func (l *LSTM) Params() []*Param {
	if l.params == nil {
		l.params = []*Param{l.Wx, l.Wh, l.Bias}
	}
	return l.params
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

func (l *LSTM) matmul(a, b *tensor.Tensor) *tensor.Tensor {
	if l.Mixed {
		return tensor.MatMulMixed(a, b)
	}
	return tensor.MatMul(a, b)
}

func (l *LSTM) matmulTB(a, b *tensor.Tensor) *tensor.Tensor {
	return tensor.MatMulTB(a, b, l.Mixed)
}

// Forward implements Layer.
func (l *LSTM) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank(l.name, x, 3)
	b, seqLen, d := x.Shape[0], x.Shape[1], x.Shape[2]
	h := l.H
	l.lastX, l.st = x, stackOf(ctx)
	l.xs = l.xs[:0]
	l.hs = l.hs[:0]
	l.cs = l.cs[:0]
	l.gates = l.gates[:0]
	hPrev := tensor.New(b, h)
	cPrev := tensor.New(b, h)
	l.hs = append(l.hs, hPrev)
	l.cs = append(l.cs, cPrev)
	for t := 0; t < seqLen; t++ {
		xt := tensor.New(b, d)
		for bi := 0; bi < b; bi++ {
			copy(xt.Data[bi*d:(bi+1)*d], x.Data[(bi*seqLen+t)*d:(bi*seqLen+t+1)*d])
		}
		z := l.matmul(xt, l.Wx.Value)
		z.AddInPlace(l.matmul(hPrev, l.Wh.Value))
		tensor.AddBiasNCHW(z, l.Bias.Value)
		// Activate gates in place: i,f,o sigmoid; g tanh.
		for bi := 0; bi < b; bi++ {
			base := bi * 4 * h
			for j := 0; j < h; j++ {
				z.Data[base+j] = sigmoid(z.Data[base+j])                             // i
				z.Data[base+h+j] = sigmoid(z.Data[base+h+j])                         // f
				z.Data[base+2*h+j] = float32(math.Tanh(float64(z.Data[base+2*h+j]))) // g
				z.Data[base+3*h+j] = sigmoid(z.Data[base+3*h+j])                     // o
			}
		}
		hNew := tensor.New(b, h)
		cNew := tensor.New(b, h)
		for bi := 0; bi < b; bi++ {
			base := bi * 4 * h
			for j := 0; j < h; j++ {
				i := z.Data[base+j]
				f := z.Data[base+h+j]
				g := z.Data[base+2*h+j]
				o := z.Data[base+3*h+j]
				c := f*cPrev.Data[bi*h+j] + i*g
				cNew.Data[bi*h+j] = c
				hNew.Data[bi*h+j] = o * float32(math.Tanh(float64(c)))
			}
		}
		l.xs = append(l.xs, xt)
		l.gates = append(l.gates, z)
		l.hs = append(l.hs, hNew)
		l.cs = append(l.cs, cNew)
		hPrev, cPrev = hNew, cNew
	}
	return hPrev.Clone()
}

// Backward implements Layer.
func (l *LSTM) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	b := l.lastX.Shape[0]
	seqLen := l.lastX.Shape[1]
	d := l.lastX.Shape[2]
	h := l.H
	gradIn := tensor.New(b, seqLen, d)
	dh := gradOut.Clone() // dL/dh_T
	dc := tensor.New(b, h)
	l.rows = l.st.rows(b, l.rows)
	for t := seqLen - 1; t >= 0; t-- {
		z := l.gates[t]
		cPrev := l.cs[t]
		c := l.cs[t+1]
		dz := tensor.New(b, 4*h)
		for bi := 0; bi < b; bi++ {
			base := bi * 4 * h
			for j := 0; j < h; j++ {
				i := z.Data[base+j]
				f := z.Data[base+h+j]
				g := z.Data[base+2*h+j]
				o := z.Data[base+3*h+j]
				tc := float32(math.Tanh(float64(c.Data[bi*h+j])))
				dhv := dh.Data[bi*h+j]
				dcv := dc.Data[bi*h+j] + dhv*o*(1-tc*tc)
				do := dhv * tc
				di := dcv * g
				df := dcv * cPrev.Data[bi*h+j]
				dg := dcv * i
				dz.Data[base+j] = di * i * (1 - i)
				dz.Data[base+h+j] = df * f * (1 - f)
				dz.Data[base+2*h+j] = dg * (1 - g*g)
				dz.Data[base+3*h+j] = do * o * (1 - o)
				dc.Data[bi*h+j] = dcv * f
			}
		}
		xt := l.xs[t]
		hPrev := l.hs[t]
		l.dsts = l.Wx.grads(l.st, l.dsts)
		tensor.AddMatMulTABlocks(l.dsts, xt, dz, l.rows, -1, l.Mixed)
		l.dsts = l.Wh.grads(l.st, l.dsts)
		tensor.AddMatMulTABlocks(l.dsts, hPrev, dz, l.rows, -1, l.Mixed)
		l.dsts = l.Bias.grads(l.st, l.dsts)
		tensor.SumPerChannelBlocks(l.dsts, dz, l.rows)
		dxt := l.matmulTB(dz, l.Wx.Value)
		for bi := 0; bi < b; bi++ {
			copy(gradIn.Data[(bi*seqLen+t)*d:(bi*seqLen+t+1)*d], dxt.Data[bi*d:(bi+1)*d])
		}
		dh = l.matmulTB(dz, l.Wh.Value)
	}
	return gradIn
}
