package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// reluBranchy is the ReLU forward/backward as it was written before the
// mask-select version: one `v > 0` branch per element. The bitwise reference
// for TestReLUBranchFreeBitwise.
func reluBranchy(x, gradOut []float32) (out []float32, mask []bool, gradIn []float32) {
	out, mask, gradIn = make([]float32, len(x)), make([]bool, len(x)), make([]float32, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
			mask[i] = true
		} else {
			out[i] = 0
			mask[i] = false
		}
	}
	for i, pass := range mask {
		if pass {
			gradIn[i] = gradOut[i]
		} else {
			gradIn[i] = 0
		}
	}
	return out, mask, gradIn
}

// TestReLUBranchFreeBitwise holds the ReLU layer — tensor.ReLUForward and
// ReLUBackward: the compare-and-AND kernels on amd64, the bit-pattern loops
// under -tags purego — to the branchy loop on
// every class of bit pattern the sign/NaN test has to get right: ±0, the
// smallest and largest subnormals and normals of both signs, ±Inf, quiet and
// signaling NaNs of both signs with assorted payloads, and random values.
// NaN and -0 inputs must come out as +0 with a false mask; a masked NaN
// gradient must come out as +0, a passed one bit for bit.
func TestReLUBranchFreeBitwise(t *testing.T) {
	edges := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
		0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, // smallest/largest normals
		0x3f800000, 0xbf800000,
		0x7f800000, 0xff800000, // ±Inf
		0x7f800001, 0xff800001, 0x7fbfffff, 0xffbfffff, // signaling NaNs
		0x7fc00000, 0xffc00000, 0x7fc0beef, 0xffc0beef, 0x7fffffff, 0xffffffff, // quiet NaNs
	}
	r := rng.NewFromInt(91)
	var x, g []float32
	for _, xb := range edges {
		for _, gb := range edges {
			x = append(x, math.Float32frombits(xb))
			g = append(g, math.Float32frombits(gb))
		}
	}
	for i := 0; i < 1000; i++ {
		x = append(x, float32(r.NormFloat64()))
		g = append(g, math.Float32frombits(r.Uint32()))
	}

	wantOut, wantMask, wantGrad := reluBranchy(x, g)
	relu := NewReLU()
	out := relu.Forward(&Context{Training: true}, tensor.FromSlice(x, len(x)))
	gradIn := relu.Backward(tensor.FromSlice(g, len(g)))
	for i := range x {
		if got, want := math.Float32bits(out.Data[i]), math.Float32bits(wantOut[i]); got != want {
			t.Fatalf("out[%d] for x=%#08x is %#08x, want %#08x", i, math.Float32bits(x[i]), got, want)
		}
		// The mask is the compare's result: all ones where kept, else 0.
		var want uint32
		if wantMask[i] {
			want = 0xffffffff
		}
		if relu.lastMask[i] != want {
			t.Fatalf("mask[%d] for x=%#08x is %#08x, want %#08x", i, math.Float32bits(x[i]), relu.lastMask[i], want)
		}
		if got, want := math.Float32bits(gradIn.Data[i]), math.Float32bits(wantGrad[i]); got != want {
			t.Fatalf("gradIn[%d] for g=%#08x mask=%v is %#08x, want %#08x", i, math.Float32bits(g[i]), wantMask[i], got, want)
		}
	}
}

// attentionRef is the attention layer as it was written before it drew its
// buffers from a Workspace and projected the whole batch at once: every
// product once per batch element, through the allocating kernels. Returns the
// output, the input gradient and the four weight gradients, accumulated onto
// copies of the layer's current Grads.
func attentionRef(at *Attention, x, gradOut *tensor.Tensor) (out, gradIn *tensor.Tensor, dW [4]*tensor.Tensor) {
	b, l, d := x.Shape[0], x.Shape[1], x.Shape[2]
	mm := func(a, b *tensor.Tensor) *tensor.Tensor {
		return tensor.MatMulInto(tensor.New(a.Shape[0], b.Shape[1]), a, b, at.Mixed)
	}
	out, gradIn = tensor.New(b, l, d), tensor.New(b, l, d)
	for i, p := range at.Params() {
		dW[i] = p.Grad.Clone()
	}
	scale := float32(1 / math.Sqrt(float64(at.Dk)))
	for bi := 0; bi < b; bi++ {
		xb := tensor.FromSlice(x.Data[bi*l*d:(bi+1)*l*d], l, d)
		gy := tensor.FromSlice(gradOut.Data[bi*l*d:(bi+1)*l*d], l, d)
		qb, kb, vb := mm(xb, at.Wq.Value), mm(xb, at.Wk.Value), mm(xb, at.Wv.Value)
		s := tensor.MatMulTB(qb, kb, at.Mixed)
		s.Scale(scale)
		a := softmaxRowsInto(tensor.New(l, l), s, make([]float64, l))
		ob := mm(a, vb)
		copy(out.Data[bi*l*d:(bi+1)*l*d], mm(ob, at.Wo.Value).Data)

		dW[3].AddInPlace(matTA(ob, gy, at.Mixed))
		gO := tensor.MatMulTB(gy, at.Wo.Value, at.Mixed)
		gA := tensor.MatMulTB(gO, vb, at.Mixed)
		gV := matTA(a, gO, at.Mixed)
		gS := softmaxRowsBackwardInto(tensor.New(l, l), a, gA)
		gS.Scale(scale)
		gQ := mm(gS, kb)
		gK := matTA(gS, qb, at.Mixed)
		dW[0].AddInPlace(matTA(xb, gQ, at.Mixed))
		dW[1].AddInPlace(matTA(xb, gK, at.Mixed))
		dW[2].AddInPlace(matTA(xb, gV, at.Mixed))
		gx := tensor.MatMulTB(gQ, at.Wq.Value, at.Mixed)
		gx.AddInPlace(tensor.MatMulTB(gK, at.Wk.Value, at.Mixed))
		gx.AddInPlace(tensor.MatMulTB(gV, at.Wv.Value, at.Mixed))
		copy(gradIn.Data[bi*l*d:(bi+1)*l*d], gx.Data)
	}
	return out, gradIn, dW
}

// attentionKeyed is Attention's forward and backward as they were before
// the layer resolved its buffers once per shape: every buffer looked up by
// key in ws on every call, every batch element's row blocks built on every
// call, and each weight gradient formed in a scratch ("dw") and added to
// its Grad. It reads at's weights and accumulates into grads (Wq, Wk, Wv,
// Wo), and returns the output and the input gradient, workspace buffers
// both.
func attentionKeyed(at *Attention, ws *tensor.Workspace, grads [4]*tensor.Tensor, x, gradOut *tensor.Tensor) (out, gradIn *tensor.Tensor) {
	b, l, d := x.Shape[0], x.Shape[1], x.Shape[2]
	dk, mixed := at.Dk, at.Mixed
	rows := func(t *tensor.Tensor, lo int) *tensor.Tensor {
		cols := t.Shape[len(t.Shape)-1]
		return tensor.FromSlice(t.Data[lo*cols:(lo+l)*cols], l, cols)
	}
	xf := tensor.FromSlice(x.Data, b*l, d)
	q := tensor.MatMulInto(ws.Get("q", b*l, dk), xf, at.Wq.Value, mixed)
	k := tensor.MatMulInto(ws.Get("k", b*l, dk), xf, at.Wk.Value, mixed)
	v := tensor.MatMulInto(ws.Get("v", b*l, dk), xf, at.Wv.Value, mixed)
	a, o := ws.Get("a", b*l, l), ws.Get("o", b*l, dk)
	s := ws.Get("s", l, l)
	scale := float32(1 / math.Sqrt(float64(dk)))
	e := make([]float64, l)
	for lo := 0; lo < b*l; lo += l {
		tensor.MatMulTBInto(s, rows(q, lo), rows(k, lo), mixed)
		s.Scale(scale)
		ab := softmaxRowsInto(rows(a, lo), s, e)
		tensor.MatMulInto(rows(o, lo), ab, rows(v, lo), mixed)
	}
	out = ws.Get("out", b, l, d)
	tensor.MatMulInto(tensor.FromSlice(out.Data, b*l, d), o, at.Wo.Value, mixed)

	gO := tensor.MatMulTBInto(ws.Get("go", b*l, dk), tensor.FromSlice(gradOut.Data, b*l, d), at.Wo.Value, mixed)
	gQ, gK, gV := ws.Get("gq", b*l, dk), ws.Get("gk", b*l, dk), ws.Get("gv", b*l, dk)
	gA, gS := ws.Get("s", l, l), ws.Get("gs", l, l)
	for lo := 0; lo < b*l; lo += l {
		xb, gy := rows(x.Reshape(b*l, d), lo), rows(gradOut.Reshape(b*l, d), lo)
		qb, kb, vb := rows(q, lo), rows(k, lo), rows(v, lo)
		ab, ob, gOb := rows(a, lo), rows(o, lo), rows(gO, lo)
		gQb, gKb, gVb := rows(gQ, lo), rows(gK, lo), rows(gV, lo)
		grads[3].AddInPlace(tensor.MatMulTAInto(ws.Get("dw", dk, d), ob, gy, mixed))
		tensor.MatMulTBInto(gA, gOb, vb, mixed)
		tensor.MatMulTAInto(gVb, ab, gOb, mixed)
		softmaxRowsBackwardInto(gS, ab, gA)
		gS.Scale(scale)
		tensor.MatMulInto(gQb, gS, kb, mixed)
		tensor.MatMulTAInto(gKb, gS, qb, mixed)
		grads[0].AddInPlace(tensor.MatMulTAInto(ws.Get("dw", d, dk), xb, gQb, mixed))
		grads[1].AddInPlace(tensor.MatMulTAInto(ws.Get("dw", d, dk), xb, gKb, mixed))
		grads[2].AddInPlace(tensor.MatMulTAInto(ws.Get("dw", d, dk), xb, gVb, mixed))
	}
	gradIn = ws.Get("dx", b, l, d)
	gx := tensor.MatMulTBInto(tensor.FromSlice(gradIn.Data, b*l, d), gQ, at.Wq.Value, mixed)
	gx.AddInPlace(tensor.MatMulTBInto(ws.Get("gxt", b*l, d), gK, at.Wk.Value, mixed))
	gx.AddInPlace(tensor.MatMulTBInto(ws.Get("gxt", b*l, d), gV, at.Wv.Value, mixed))
	return out, gradIn
}

// TestAttentionWorkspace: attention on its buffers resolved once per shape
// and workspace is bitwise-equal to the keyed-lookup formulation
// (attentionKeyed) and to the allocating one (attentionRef) — output, input
// gradient and the four weight gradients, which start non-zero — through
// the batch swing of a campaign engine (training shard, evaluation batch,
// alternating), a rebinding to another workspace and back (SetWorkspace, as
// a lane does), a scrub (Reset) and a twin layer on the same workspace at
// the other batch size between calls, each of which must make the layer
// resolve again or find its resolution still current; its output must be
// the buffer its workspace holds under "out". A
// steady-state forward+backward allocates nothing, and neither does a cycle
// of the swing, the rebinding and the scrub once each shape has been seen.
func TestAttentionWorkspace(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		r := rng.NewFromInt(93)
		at := NewAttention("attn", 12, 12, r, mixed)
		own, other := at.Workspace(), tensor.NewWorkspace()
		keyed := tensor.NewWorkspace()
		// twin shares the layer's workspace, as a replica does, and steps
		// at the other batch size between the layer's calls: its Gets
		// reshape the buffers the layer resolved.
		twin := NewAttention("twin", 12, 12, r, mixed)
		for _, p := range at.Params() {
			p.Grad.FillNormal(r, 0, 1)
		}
		batches := []int{2, 64, 2, 64, 64, 2, 2, 64, 2, 2}
		for step, b := range batches {
			x, gradOut := tensor.New(b, 8, 12), tensor.New(b, 8, 12)
			x.FillNormal(r, 0, 1)
			gradOut.FillNormal(r, 0, 1)
			x.Data[0] = 0 // the kernels' skip rule
			var grads [4]*tensor.Tensor
			for i, p := range at.Params() {
				grads[i] = p.Grad.Clone()
			}
			wantOut, wantIn := attentionKeyed(at, keyed, grads, x, gradOut)
			refOut, refIn, refDW := attentionRef(at, x, gradOut)
			switch step % 4 {
			case 1:
				at.Workspace().Reset()
			case 2:
				at.SetWorkspace(other)
			case 3:
				at.SetWorkspace(own)
			}
			if step > 0 && b == batches[step-1] { // the layer's last resolution has the right shape
				tb := 66 - b
				tx, tg := tensor.New(tb, 8, 12), tensor.New(tb, 8, 12)
				tx.FillNormal(r, 0, 1)
				tg.FillNormal(r, 0, 1)
				twin.SetWorkspace(at.Workspace())
				twin.Forward(nil, tx)
				twin.Backward(tg)
			}
			name := fmt.Sprintf("mixed=%v step %d (batch %d) ", mixed, step, b)
			out := at.Forward(nil, x)
			if out != at.Workspace().Get("out", b, 8, 12) {
				t.Fatalf("%s: the output is not the bound workspace's buffer", name)
			}
			sameBits(t, name+"out", out.Data, wantOut.Data)
			sameBits(t, name+"out (allocating)", out.Data, refOut.Data)
			gradIn := at.Backward(gradOut)
			sameBits(t, name+"gradIn", gradIn.Data, wantIn.Data)
			sameBits(t, name+"gradIn (allocating)", gradIn.Data, refIn.Data)
			for i, p := range at.Params() {
				sameBits(t, name+p.Name+".grad", p.Grad.Data, grads[i].Data)
				sameBits(t, name+p.Name+".grad (allocating)", p.Grad.Data, refDW[i].Data)
			}
		}
		if raceEnabled {
			continue
		}
		xs := map[int][2]*tensor.Tensor{}
		for _, b := range []int{2, 64} {
			x, gradOut := tensor.New(b, 8, 12), tensor.New(b, 8, 12)
			x.FillNormal(r, 0, 1)
			gradOut.FillNormal(r, 0, 1)
			xs[b] = [2]*tensor.Tensor{x, gradOut}
		}
		step := func(b int) {
			at.Forward(nil, xs[b][0])
			at.Backward(xs[b][1])
		}
		if allocs := testing.AllocsPerRun(20, func() { step(2) }); allocs != 0 {
			t.Errorf("mixed=%v: steady-state attention forward+backward allocates %v times, want 0", mixed, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			step(2)
			step(64)
			at.SetWorkspace(other)
			step(2)
			at.SetWorkspace(own)
			own.Reset()
			step(64)
		}); allocs != 0 {
			t.Errorf("mixed=%v: a cycle of batch swing, rebinding and scrub allocates %v times, want 0", mixed, allocs)
		}
	}
}

// TestGlobalAvgPoolWorkspace: the workspace-backed layer against the plain
// per-call formulation, bit for bit, across a batch swing (training shard,
// evaluation batch, back) and a scrub; steady state allocates nothing.
func TestGlobalAvgPoolWorkspace(t *testing.T) {
	r := rng.NewFromInt(94)
	g := NewGlobalAvgPool()
	for step, b := range []int{2, 5, 2, 2} {
		x, gradOut := tensor.New(b, 3, 4, 4), tensor.New(b, 3)
		x.FillNormal(r, 0, 1)
		gradOut.FillNormal(r, 0, 1)
		if step == 3 {
			g.Workspace().Reset()
		}
		out := g.Forward(nil, x)
		gradIn := g.Backward(gradOut)
		inv := 1 / float32(16)
		for i := 0; i < b*3; i++ {
			var sum float32
			for _, v := range x.Data[i*16 : (i+1)*16] {
				sum += v
			}
			if math.Float32bits(out.Data[i]) != math.Float32bits(sum*inv) {
				t.Fatalf("step %d: out[%d] = %v, want %v", step, i, out.Data[i], sum*inv)
			}
			for j, v := range gradIn.Data[i*16 : (i+1)*16] {
				if math.Float32bits(v) != math.Float32bits(gradOut.Data[i]*inv) {
					t.Fatalf("step %d: gradIn[%d] = %v, want %v", step, i*16+j, v, gradOut.Data[i]*inv)
				}
			}
		}
	}
	x, gradOut := tensor.New(2, 3, 4, 4), tensor.New(2, 3)
	if allocs := testing.AllocsPerRun(20, func() {
		g.Forward(nil, x)
		g.Backward(gradOut)
	}); allocs != 0 {
		t.Errorf("steady-state global-average-pool forward+backward allocates %v times, want 0", allocs)
	}
}

// TestSoftmaxCrossEntropyReuse: one loss value evaluated over a batch swing
// returns, bit for bit, what a fresh value returns each time — nothing leaks
// from the larger batch's buffers into the smaller one's — and allocates
// nothing once its buffers exist.
func TestSoftmaxCrossEntropyReuse(t *testing.T) {
	r := rng.NewFromInt(95)
	var sce SoftmaxCrossEntropy
	for step, b := range []int{2, 6, 2} {
		logits := tensor.New(b, 4)
		logits.FillNormal(r, 0, 2)
		if step == 2 {
			logits.Data[5] = float32(math.NaN())
		}
		labels := make([]int, b)
		for i := range labels {
			labels[i] = r.Intn(4)
		}
		var fresh SoftmaxCrossEntropy
		got, want := sce.Eval(logits, labels), fresh.Eval(logits, labels)
		if math.Float64bits(got.Loss) != math.Float64bits(want.Loss) || got.Correct != want.Correct {
			t.Fatalf("step %d: loss %v correct %d, want %v / %d", step, got.Loss, got.Correct, want.Loss, want.Correct)
		}
		for i := range want.Probs.Data {
			if math.Float32bits(got.Probs.Data[i]) != math.Float32bits(want.Probs.Data[i]) ||
				math.Float32bits(got.GradLogits.Data[i]) != math.Float32bits(want.GradLogits.Data[i]) {
				t.Fatalf("step %d: element %d differs from a fresh evaluation", step, i)
			}
		}
		if got.Probs.Len() != b*4 || got.GradLogits.Len() != b*4 {
			t.Fatalf("step %d: result extents %d/%d, want %d", step, got.Probs.Len(), got.GradLogits.Len(), b*4)
		}
	}
	logits, labels := tensor.New(2, 4), []int{1, 3}
	if allocs := testing.AllocsPerRun(20, func() { sce.Eval(logits, labels) }); allocs != 0 {
		t.Errorf("steady-state Eval allocates %v times, want 0", allocs)
	}
}

// softmaxRowsLoop is the softmax as it was written before its exponentials
// went through tensor.ExpRow: one math.Exp per element inside the row loop.
// The bitwise reference for TestSoftmaxRowsMatchesLoop.
func softmaxRowsLoop(out, s *tensor.Tensor) {
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
}

// TestSoftmaxRowsMatchesLoop holds softmaxRowsInto to softmaxRowsLoop bit for
// bit on rows of every length through 17 (a vector step, a pair, an odd
// element), with scores of moderate and huge spread (shifted arguments below
// −700 leave the vector path) and NaNs and infinities at random positions.
// Where the loop gives a NaN the test asks for a NaN, not its payload: which
// of two NaNs `sum += e` keeps is the register allocator's choice of operand
// order, which differs between the two loops (the old one spilled sum across
// the math.Exp call), and no record carries a payload.
func TestSoftmaxRowsMatchesLoop(t *testing.T) {
	r := rng.NewFromInt(61)
	specials := []float32{float32(math.NaN()), math.Float32frombits(0xffc000a0), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
	for cols := 1; cols <= 17; cols++ {
		for _, sd := range []float64{1, 30, 800} {
			for _, special := range []int{0, 3, 20} {
				rows := 5
				s := tensor.New(rows, cols)
				s.FillNormal(r, 0, sd)
				for i := range s.Data {
					if special > 0 && r.Intn(special) == 0 {
						s.Data[i] = specials[r.Intn(len(specials))]
					}
				}
				got, want := tensor.New(rows, cols), tensor.New(rows, cols)
				softmaxRowsInto(got, s, make([]float64, cols))
				softmaxRowsLoop(want, s)
				for i, w := range want.Data {
					if w != w && got.Data[i] != got.Data[i] {
						got.Data[i] = w
					}
				}
				sameBits(t, fmt.Sprintf("softmax %dx%d sd=%v special=1/%d", rows, cols, sd, special), got.Data, want.Data)
			}
		}
	}
}

// BenchmarkKernel_Softmax is the attention's softmax over one batch
// element's 8×8 scores.
func BenchmarkKernel_Softmax(b *testing.B) {
	s, out := tensor.New(8, 8), tensor.New(8, 8)
	s.FillNormal(rng.NewFromInt(62), 0, 1)
	e := make([]float64, 8)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			softmaxRowsInto(out, s, e)
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			softmaxRowsLoop(out, s)
		}
	})
}

// matTA is aᵀ × b in a new tensor.
func matTA(a, b *tensor.Tensor, mixed bool) *tensor.Tensor {
	return tensor.MatMulTAInto(tensor.New(a.Shape[1], b.Shape[1]), a, b, mixed)
}
