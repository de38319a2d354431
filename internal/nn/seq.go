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
// positions' terms in ascending order.
func (s *SeqMean) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank("seqmean", x, 3)
	s.lastShape = append(s.lastShape[:0], x.Shape...)
	b, l, d := x.Shape[0], x.Shape[1], x.Shape[2]
	out := s.ws.GetZeroed("out", b, d)
	inv := 1 / float32(l)
	for bi := 0; bi < b; bi++ {
		o := out.Data[bi*d : bi*d+d]
		for pos := 0; pos < l; pos++ {
			base := (bi*l + pos) * d
			for j, v := range x.Data[base : base+d] {
				o[j] += v * inv
			}
		}
	}
	s.lastOut = out
	return out
}

// Backward implements Layer.
func (s *SeqMean) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	checkGradLen("seqmean", gradOut, s.lastOut)
	b, l, d := s.lastShape[0], s.lastShape[1], s.lastShape[2]
	gradIn := s.ws.Get("dx", b, l, d)
	inv := 1 / float32(l)
	for bi := 0; bi < b; bi++ {
		g := gradOut.Data[bi*d : bi*d+d]
		for pos := 0; pos < l; pos++ {
			base := (bi*l + pos) * d
			for j, gv := range g {
				gradIn.Data[base+j] = gv * inv
			}
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
// of one batch element and run per element on row blocks of the whole-batch
// matrices. The weight gradients sum over the batch, and are accumulated one
// batch element at a time in index order: one GEMM over B·L rows would add the
// same terms in another order.
type Attention struct {
	name           string
	Wq, Wk, Wv, Wo *Param
	Dk             int
	Mixed          bool

	// The forward's input, and its whole-batch Q, K, V [B·L, Dk], A [B·L, L]
	// and O [B·L, Dk], which Backward reads back.
	lastX         *tensor.Tensor
	q, k, v, a, o *tensor.Tensor

	// ws backs every intermediate, the output and the input gradient, so a
	// steady-state iteration allocates nothing. A key is shared by buffers
	// that are never alive together: "s" is S in Forward and dA in Backward,
	// "dw" each of the four weight gradients in turn (each is folded into its
	// Grad before the next overwrites it), "gxt" the two later terms of dx.
	ws *tensor.Workspace
	// xv, gv and yv are reusable headers for the input, the output gradient
	// and the layer's result as [B·L, D] matrices; blocks are the ones rows
	// hands out for one batch element's row blocks, nb how many are out.
	xv, gv, yv tensor.Tensor
	blocks     [11]tensor.Tensor
	nb         int
	// expRow is the softmax's float64 exponentials of one row of S.
	expRow []float64

	params []*Param
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

// rows returns rows [lo, lo+n) of t, taken as a matrix of t's last dimension
// in columns, through the next free header of at.blocks. Setting at.nb to
// zero frees them all.
func (at *Attention) rows(t *tensor.Tensor, lo, n int) *tensor.Tensor {
	cols := t.Shape[len(t.Shape)-1]
	v := &at.blocks[at.nb]
	at.nb++
	return viewAs(v, t.Data[lo*cols:(lo+n)*cols], n, cols)
}

// Forward implements Layer.
func (at *Attention) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank(at.name, x, 3)
	b, l, d := x.Shape[0], x.Shape[1], x.Shape[2]
	dk, ws, mixed := at.Dk, at.ws, at.Mixed
	at.lastX = x
	xf := viewAs(&at.xv, x.Data, b*l, d)
	at.q = tensor.MatMulInto(ws.Get("q", b*l, dk), xf, at.Wq.Value, mixed)
	at.k = tensor.MatMulInto(ws.Get("k", b*l, dk), xf, at.Wk.Value, mixed)
	at.v = tensor.MatMulInto(ws.Get("v", b*l, dk), xf, at.Wv.Value, mixed)
	at.a = ws.Get("a", b*l, l)
	at.o = ws.Get("o", b*l, dk)
	s := ws.Get("s", l, l)
	scale := float32(1 / math.Sqrt(float64(dk)))
	at.expRow = float64Scratch(at.expRow, l)
	for lo := 0; lo < b*l; lo += l {
		at.nb = 0
		qb, kb, vb := at.rows(at.q, lo, l), at.rows(at.k, lo, l), at.rows(at.v, lo, l)
		tensor.MatMulTBInto(s, qb, kb, mixed)
		s.Scale(scale)
		ab := softmaxRowsInto(at.rows(at.a, lo, l), s, at.expRow)
		tensor.MatMulInto(at.rows(at.o, lo, l), ab, vb, mixed)
	}
	out := ws.Get("out", b, l, d)
	tensor.MatMulInto(viewAs(&at.yv, out.Data, b*l, d), at.o, at.Wo.Value, mixed)
	return out
}

// Backward implements Layer. The transposed products go through the
// fused-transpose kernels (Aᵀ×B and A×Bᵀ), so no transpose is materialized.
func (at *Attention) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	checkGradLen(at.name, gradOut, at.lastX)
	x := at.lastX
	b, l, d := x.Shape[0], x.Shape[1], x.Shape[2]
	dk, ws, mixed := at.Dk, at.ws, at.Mixed
	scale := float32(1 / math.Sqrt(float64(dk)))

	// Y = O·Wo
	gO := tensor.MatMulTBInto(ws.Get("go", b*l, dk), viewAs(&at.gv, gradOut.Data, b*l, d), at.Wo.Value, mixed)
	gQ, gK, gV := ws.Get("gq", b*l, dk), ws.Get("gk", b*l, dk), ws.Get("gv", b*l, dk)
	gA, gS := ws.Get("s", l, l), ws.Get("gs", l, l)
	for lo := 0; lo < b*l; lo += l {
		at.nb = 0
		xb, gy := at.rows(x, lo, l), at.rows(gradOut, lo, l)
		qb, kb, vb := at.rows(at.q, lo, l), at.rows(at.k, lo, l), at.rows(at.v, lo, l)
		ab, ob, gOb := at.rows(at.a, lo, l), at.rows(at.o, lo, l), at.rows(gO, lo, l)
		gQb, gKb, gVb := at.rows(gQ, lo, l), at.rows(gK, lo, l), at.rows(gV, lo, l)

		at.Wo.Grad.AddInPlace(tensor.MatMulTAInto(ws.Get("dw", dk, d), ob, gy, mixed))

		// O = A·V
		tensor.MatMulTBInto(gA, gOb, vb, mixed)
		tensor.MatMulTAInto(gVb, ab, gOb, mixed)

		// A = softmax(S) rows: dS = A ⊙ (dA − rowsum(dA⊙A))
		softmaxRowsBackwardInto(gS, ab, gA)
		gS.Scale(scale)

		// S = Q·Kᵀ
		tensor.MatMulInto(gQb, gS, kb, mixed)
		tensor.MatMulTAInto(gKb, gS, qb, mixed)

		at.Wq.Grad.AddInPlace(tensor.MatMulTAInto(ws.Get("dw", d, dk), xb, gQb, mixed))
		at.Wk.Grad.AddInPlace(tensor.MatMulTAInto(ws.Get("dw", d, dk), xb, gKb, mixed))
		at.Wv.Grad.AddInPlace(tensor.MatMulTAInto(ws.Get("dw", d, dk), xb, gVb, mixed))
	}

	// Q = X·Wq, K = X·Wk, V = X·Wv: dx is the three terms added in this order.
	gradIn := ws.Get("dx", b, l, d)
	gx := tensor.MatMulTBInto(viewAs(&at.yv, gradIn.Data, b*l, d), gQ, at.Wq.Value, mixed)
	gx.AddInPlace(tensor.MatMulTBInto(ws.Get("gxt", b*l, d), gK, at.Wk.Value, mixed))
	gx.AddInPlace(tensor.MatMulTBInto(ws.Get("gxt", b*l, d), gV, at.Wv.Value, mixed))
	return gradIn
}

// softmaxRowsInto writes the numerically stable softmax of each row of the
// 2-D tensor s into out (every element is overwritten) and returns out. e is
// a row's worth of float64 scratch for its exponentials (tensor.ExpRow); the
// row's maximum, the ascending float64 sum and the float32 scale are this
// loop's.
func softmaxRowsInto(out, s *tensor.Tensor, e []float64) *tensor.Tensor {
	rows, cols := s.Shape[0], s.Shape[1]
	e = e[:cols]
	for i := 0; i < rows; i++ {
		row := s.Data[i*cols : (i+1)*cols]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		tensor.ExpRow(e, row, maxV)
		var sum float64
		orow := out.Data[i*cols : (i+1)*cols]
		for j, v := range e {
			orow[j] = float32(v)
			sum += v
		}
		inv := float32(1 / sum)
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}

// softmaxRowsBackwardInto computes dS given A=softmax(S) and dA, per row,
// into out (every element is overwritten) and returns out.
func softmaxRowsBackwardInto(out, a, gA *tensor.Tensor) *tensor.Tensor {
	rows, cols := a.Shape[0], a.Shape[1]
	for i := 0; i < rows; i++ {
		arow := a.Data[i*cols : (i+1)*cols]
		grow := gA.Data[i*cols : (i+1)*cols]
		var dot float32
		for j := range arow {
			dot += arow[j] * grow[j]
		}
		orow := out.Data[i*cols : (i+1)*cols]
		for j := range arow {
			orow[j] = arow[j] * (grow[j] - dot)
		}
	}
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

func (l *LSTM) matmulTA(a, b *tensor.Tensor) *tensor.Tensor {
	return tensor.MatMulTA(a, b, l.Mixed)
}

func (l *LSTM) matmulTB(a, b *tensor.Tensor) *tensor.Tensor {
	return tensor.MatMulTB(a, b, l.Mixed)
}

// Forward implements Layer.
func (l *LSTM) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank(l.name, x, 3)
	b, seqLen, d := x.Shape[0], x.Shape[1], x.Shape[2]
	h := l.H
	l.lastX = x
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
		l.Wx.Grad.AddInPlace(l.matmulTA(xt, dz))
		l.Wh.Grad.AddInPlace(l.matmulTA(hPrev, dz))
		tensor.SumPerChannelNCHW(dz, l.Bias.Grad)
		dxt := l.matmulTB(dz, l.Wx.Value)
		for bi := 0; bi < b; bi++ {
			copy(gradIn.Data[(bi*seqLen+t)*d:(bi*seqLen+t+1)*d], dxt.Data[bi*d:(bi+1)*d])
		}
		dh = l.matmulTB(dz, l.Wh.Value)
	}
	return gradIn
}
