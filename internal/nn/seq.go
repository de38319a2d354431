package nn

import (
	"math"
	"strconv"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// SeqDense applies a shared Dense projection to every position of a
// [B, L, D] sequence, producing [B, L, U] — the position-wise feed-forward
// used in Transformer blocks and as the token embedding.
type SeqDense struct {
	inner     *Dense
	lastShape []int
}

// NewSeqDense creates a position-wise dense layer.
func NewSeqDense(name string, in, out int, r *rng.Rand, mixed bool) *SeqDense {
	return &SeqDense{inner: NewDense(name, in, out, r, mixed)}
}

// Name implements Layer.
func (s *SeqDense) Name() string { return s.inner.Name() }

// Params implements Layer.
func (s *SeqDense) Params() []*Param { return s.inner.Params() }

// Forward implements Layer.
func (s *SeqDense) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank(s.Name(), x, 3)
	s.lastShape = append(s.lastShape[:0], x.Shape...)
	b, l, d := x.Shape[0], x.Shape[1], x.Shape[2]
	flat := x.Reshape(b*l, d)
	y := s.inner.Forward(ctx, flat)
	return y.Reshape(b, l, y.Shape[1])
}

// Backward implements Layer.
func (s *SeqDense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	b, l := s.lastShape[0], s.lastShape[1]
	u := gradOut.Shape[2]
	g := s.inner.Backward(gradOut.Reshape(b*l, u))
	return g.Reshape(b, l, s.lastShape[2])
}

// SeqMean averages a [B, L, D] sequence over positions, producing [B, D].
type SeqMean struct {
	lastShape []int
}

// NewSeqMean creates the pooling layer.
func NewSeqMean() *SeqMean { return &SeqMean{} }

// Name implements Layer.
func (s *SeqMean) Name() string { return "seqmean" }

// Params implements Layer.
func (s *SeqMean) Params() []*Param { return nil }

// Forward implements Layer.
func (s *SeqMean) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank("seqmean", x, 3)
	s.lastShape = append(s.lastShape[:0], x.Shape...)
	b, l, d := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(b, d)
	inv := 1 / float32(l)
	for bi := 0; bi < b; bi++ {
		for pos := 0; pos < l; pos++ {
			base := (bi*l + pos) * d
			for j := 0; j < d; j++ {
				out.Data[bi*d+j] += x.Data[base+j] * inv
			}
		}
	}
	return out
}

// Backward implements Layer.
func (s *SeqMean) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	b, l, d := s.lastShape[0], s.lastShape[1], s.lastShape[2]
	gradIn := tensor.New(b, l, d)
	inv := 1 / float32(l)
	for bi := 0; bi < b; bi++ {
		for pos := 0; pos < l; pos++ {
			base := (bi*l + pos) * d
			for j := 0; j < d; j++ {
				gradIn.Data[base+j] = gradOut.Data[bi*d+j] * inv
			}
		}
	}
	return gradIn
}

// Attention is single-head scaled dot-product self-attention over a
// [B, L, D] sequence: Q=XWq, K=XWk, V=XWv, A=softmax(QKᵀ/√Dk), Y=(AV)Wo.
// Its matrix multiplies honor the Mixed (bfloat16 MAC) setting.
type Attention struct {
	name           string
	Wq, Wk, Wv, Wo *Param
	Dk             int
	Mixed          bool

	// per-batch caches (slices indexed by batch element)
	lastX         *tensor.Tensor
	q, k, v, a, o []*tensor.Tensor

	// ws backs every intermediate, the output and the input gradient, so a
	// steady-state iteration allocates nothing. The q/k/v/a/o caches of all
	// batch elements are alive together from Forward to Backward, so each
	// gets its own key (keys[bi]); everything else is consumed within one
	// batch element's turn of the loop and shares a key across them.
	ws   *tensor.Workspace
	keys []attnKeys
	// xv and gv are reusable headers for the per-batch-element row blocks of
	// the input and of the output gradient.
	xv, gv tensor.Tensor

	params []*Param
}

// attnKeys are the workspace keys of one batch element's forward caches.
type attnKeys struct{ q, k, v, a, o string }

// NewAttention creates a self-attention layer with model dim d and head dim
// dk (output dim is d, via Wo: [dk, d]).
func NewAttention(name string, d, dk int, r *rng.Rand, mixed bool) *Attention {
	at := &Attention{
		name:  name,
		Wq:    newParam(paramName(name, "wq"), d, dk),
		Wk:    newParam(paramName(name, "wk"), d, dk),
		Wv:    newParam(paramName(name, "wv"), d, dk),
		Wo:    newParam(paramName(name, "wo"), dk, d),
		Dk:    dk,
		Mixed: mixed,
		ws:    newWorkspace(),
	}
	std := math.Sqrt(1.0 / float64(d))
	at.Wq.Value.FillNormal(r, 0, std)
	at.Wk.Value.FillNormal(r, 0, std)
	at.Wv.Value.FillNormal(r, 0, std)
	at.Wo.Value.FillNormal(r, 0, math.Sqrt(1.0/float64(dk)))
	return at
}

// Name implements Layer.
func (at *Attention) Name() string { return at.name }

// Params implements Layer. Cached; read-only for callers.
func (at *Attention) Params() []*Param {
	if at.params == nil {
		at.params = []*Param{at.Wq, at.Wk, at.Wv, at.Wo}
	}
	return at.params
}

// Workspace implements WorkspaceHolder.
func (at *Attention) Workspace() *tensor.Workspace { return at.ws }

// batchKeys returns the cache keys of batch elements [0,b), extending the
// table the first time a larger batch (the evaluation batch) comes through.
func (at *Attention) batchKeys(b int) []attnKeys {
	for i := len(at.keys); i < b; i++ {
		n := strconv.Itoa(i)
		at.keys = append(at.keys, attnKeys{q: "q" + n, k: "k" + n, v: "v" + n, a: "a" + n, o: "o" + n})
	}
	return at.keys[:b]
}

// rowBlock points the reusable header v at the [rows, cols] block of data.
func rowBlock(v *tensor.Tensor, data []float32, rows, cols int) *tensor.Tensor {
	v.Data = data
	v.Shape = append(v.Shape[:0], rows, cols)
	return v
}

// Forward implements Layer.
func (at *Attention) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	checkRank(at.name, x, 3)
	b, l, d := x.Shape[0], x.Shape[1], x.Shape[2]
	dk, ws, mixed := at.Dk, at.ws, at.Mixed
	at.lastX = x
	at.q = at.q[:0]
	at.k = at.k[:0]
	at.v = at.v[:0]
	at.a = at.a[:0]
	at.o = at.o[:0]
	out := ws.Get("out", b, l, d)
	scale := float32(1 / math.Sqrt(float64(dk)))
	for bi, key := range at.batchKeys(b) {
		xb := rowBlock(&at.xv, x.Data[bi*l*d:(bi+1)*l*d], l, d)
		qb := tensor.MatMulInto(ws.Get(key.q, l, dk), xb, at.Wq.Value, mixed)
		kb := tensor.MatMulInto(ws.Get(key.k, l, dk), xb, at.Wk.Value, mixed)
		vb := tensor.MatMulInto(ws.Get(key.v, l, dk), xb, at.Wv.Value, mixed)
		s := tensor.MatMulTBInto(ws.Get("s", l, l), qb, kb, mixed)
		s.Scale(scale)
		a := softmaxRowsInto(ws.Get(key.a, l, l), s)
		ob := tensor.MatMulInto(ws.Get(key.o, l, dk), a, vb, mixed)
		yb := tensor.MatMulInto(ws.Get("y", l, d), ob, at.Wo.Value, mixed)
		copy(out.Data[bi*l*d:(bi+1)*l*d], yb.Data)
		at.q = append(at.q, qb)
		at.k = append(at.k, kb)
		at.v = append(at.v, vb)
		at.a = append(at.a, a)
		at.o = append(at.o, ob)
	}
	out.ClearDirty()
	return out
}

// Backward implements Layer. The transposed products go through the
// fused-transpose kernels (Aᵀ×B and A×Bᵀ), so no transpose is materialized.
func (at *Attention) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	b, l, d := at.lastX.Shape[0], at.lastX.Shape[1], at.lastX.Shape[2]
	dk, ws, mixed := at.Dk, at.ws, at.Mixed
	gradIn := ws.Get("dx", b, l, d)
	scale := float32(1 / math.Sqrt(float64(dk)))
	for bi := 0; bi < b; bi++ {
		xb := rowBlock(&at.xv, at.lastX.Data[bi*l*d:(bi+1)*l*d], l, d)
		gy := rowBlock(&at.gv, gradOut.Data[bi*l*d:(bi+1)*l*d], l, d)
		qb, kb, vb, a, ob := at.q[bi], at.k[bi], at.v[bi], at.a[bi], at.o[bi]

		// Y = O·Wo
		at.Wo.Grad.AddInPlace(tensor.MatMulTAInto(ws.Get("dwo", dk, d), ob, gy, mixed))
		gO := tensor.MatMulTBInto(ws.Get("go", l, dk), gy, at.Wo.Value, mixed)

		// O = A·V
		gA := tensor.MatMulTBInto(ws.Get("ga", l, l), gO, vb, mixed)
		gV := tensor.MatMulTAInto(ws.Get("gv", l, dk), a, gO, mixed)

		// A = softmax(S) rows: dS = A ⊙ (dA − rowsum(dA⊙A))
		gS := softmaxRowsBackwardInto(ws.Get("gs", l, l), a, gA)
		gS.Scale(scale)

		// S = Q·Kᵀ
		gQ := tensor.MatMulInto(ws.Get("gq", l, dk), gS, kb, mixed)
		gK := tensor.MatMulTAInto(ws.Get("gk", l, dk), gS, qb, mixed)

		// Projections. One scratch serves the three weight gradients in
		// turn (each is folded into its Grad before the next overwrites it),
		// and one the two later terms of gx.
		at.Wq.Grad.AddInPlace(tensor.MatMulTAInto(ws.Get("dw", d, dk), xb, gQ, mixed))
		at.Wk.Grad.AddInPlace(tensor.MatMulTAInto(ws.Get("dw", d, dk), xb, gK, mixed))
		at.Wv.Grad.AddInPlace(tensor.MatMulTAInto(ws.Get("dw", d, dk), xb, gV, mixed))

		gx := tensor.MatMulTBInto(ws.Get("gx", l, d), gQ, at.Wq.Value, mixed)
		gx.AddInPlace(tensor.MatMulTBInto(ws.Get("gxt", l, d), gK, at.Wk.Value, mixed))
		gx.AddInPlace(tensor.MatMulTBInto(ws.Get("gxt", l, d), gV, at.Wv.Value, mixed))
		copy(gradIn.Data[bi*l*d:(bi+1)*l*d], gx.Data)
	}
	gradIn.ClearDirty()
	return gradIn
}

// softmaxRowsInto writes the numerically stable softmax of each row of the
// 2-D tensor s into out (every element is overwritten) and returns out.
func softmaxRowsInto(out, s *tensor.Tensor) *tensor.Tensor {
	rows, cols := s.Shape[0], s.Shape[1]
	for i := 0; i < rows; i++ {
		row := s.Data[i*cols : (i+1)*cols]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		orow := out.Data[i*cols : (i+1)*cols]
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			orow[j] = float32(e)
			sum += e
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
		Wx:    newParam(paramName(name, "wx"), d, 4*h),
		Wh:    newParam(paramName(name, "wh"), h, 4*h),
		Bias:  newParam(paramName(name, "bias"), 4*h),
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

// Name implements Layer.
func (l *LSTM) Name() string { return l.name }

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
