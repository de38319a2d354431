package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// refAbsMax is the naive serial reference for AbsMax (NaN-propagating).
func refAbsMax(data []float32) float32 {
	var m float32
	for _, v := range data {
		av := float32(math.Abs(float64(v)))
		if av > m || av != av {
			m = av
		}
		if m != m {
			return m
		}
	}
	return m
}

func TestAbsMaxMatchesReferenceAcrossWorkers(t *testing.T) {
	r := rng.NewFromInt(31)
	for _, n := range []int{1, 3, 17, 1024, absMaxParallelMin + 13} {
		a := New(n)
		a.FillNormal(r, 0, 1e3)
		want := refAbsMax(a.Data)
		for _, workers := range []int{1, 2, 3, 7} {
			restore := forceParallel(workers)
			got := a.AbsMax()
			restore()
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("n=%d workers=%d: AbsMax = %v, want %v", n, workers, got, want)
			}
		}
	}
}

func TestAbsMaxPropagatesNaNAndInf(t *testing.T) {
	a := New(absMaxParallelMin + 5)
	a.Fill(1)
	a.Data[absMaxParallelMin-1] = float32(math.Inf(-1))
	restore := forceParallel(4)
	defer restore()
	if got := a.AbsMax(); !math.IsInf(float64(got), 1) {
		t.Fatalf("AbsMax with -Inf = %v, want +Inf", got)
	}
	a.Data[7] = float32(math.NaN())
	if got := a.AbsMax(); got == got {
		t.Fatalf("AbsMax with NaN = %v, want NaN", got)
	}
}

func TestSumLaneRuleMatchesPhasedAccumulation(t *testing.T) {
	// A sum accumulated in arbitrary row-sized pieces, each with the right
	// phase, must be bitwise-equal to the whole-tensor Sum. This is the
	// property the GEMM epilogues rely on.
	r := rng.NewFromInt(32)
	a := New(7, 13)
	a.FillNormal(r, 0, 1)
	want := a.Sum()
	var l [4]float64
	for i := 0; i < 7; i++ {
		sumLanes(&l, a.Data[i*13:(i+1)*13], i*13)
	}
	if got := laneTotal(&l); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("phased sum %v != Sum %v", got, want)
	}
}

func TestMinMax(t *testing.T) {
	a := FromSlice([]float32{3, -7, 2, 5, -1, 0, 4}, 7)
	lo, hi := a.MinMax()
	if lo != -7 || hi != 5 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
	a.Data[2] = float32(math.NaN())
	lo, hi = a.MinMax()
	if lo == lo || hi == hi {
		t.Fatalf("MinMax with NaN = %v, %v, want NaN, NaN", lo, hi)
	}
}

func TestHasNonFinite(t *testing.T) {
	a := New(9)
	a.Fill(2)
	if a.HasNonFinite() {
		t.Fatal("finite tensor reported non-finite")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a.Fill(2)
		a.Data[8] = float32(bad) // tail position
		if !a.HasNonFinite() {
			t.Fatalf("%v not reported", bad)
		}
		a.Fill(2)
		a.Data[1] = float32(bad) // unrolled position
		if !a.HasNonFinite() {
			t.Fatalf("%v not reported in unrolled body", bad)
		}
	}
}

func TestAddInPlaceSumMatchesAddThenSum(t *testing.T) {
	r := rng.NewFromInt(33)
	for _, n := range []int{1, 5, 64, 129} {
		base := New(n)
		base.FillNormal(r, 0, 1)
		u := New(n)
		u.FillNormal(r, 0, 1)

		want := base.Clone()
		want.AddInPlace(u)
		wantSum := want.Sum()

		got := base.Clone()
		gotSum := got.AddInPlaceSum(u)
		bitsEqual(t, "AddInPlaceSum data", got, want)
		if math.Float64bits(gotSum) != math.Float64bits(wantSum) {
			t.Fatalf("n=%d: AddInPlaceSum = %v, want %v", n, gotSum, wantSum)
		}
	}
}

func TestMatMulIntoEpMatchesSweeps(t *testing.T) {
	r := rng.NewFromInt(34)
	for _, workers := range []int{1, 4} {
		restore := forceParallel(workers)
		a := randMat(r, 37, 11)
		b := randMat(r, 11, 23)
		want := MatMulInto(New(37, 23), a, b, false)
		wantSum := want.Sum()
		wantMax := want.AbsMax()
		wantCols := make([]float64, 23)
		for i := 0; i < 37; i++ {
			for j := 0; j < 23; j++ {
				wantCols[j] += float64(want.At(i, j))
			}
		}

		ep := &Epilogue{WantSum: true, WantColSums: true, WantAbsMax: true}
		got := MatMulIntoEp(New(37, 23), a, b, false, ep)
		restore()

		bitsEqual(t, "MatMulIntoEp data", got, want)
		if math.Float64bits(ep.Sum) != math.Float64bits(wantSum) {
			t.Fatalf("workers=%d: epilogue Sum %v != sweep %v", workers, ep.Sum, wantSum)
		}
		if math.Float32bits(ep.AbsMax) != math.Float32bits(wantMax) {
			t.Fatalf("workers=%d: epilogue AbsMax %v != sweep %v", workers, ep.AbsMax, wantMax)
		}
		for j := range wantCols {
			if math.Float64bits(ep.ColSums[j]) != math.Float64bits(wantCols[j]) {
				t.Fatalf("workers=%d: ColSums[%d] = %v, want %v", workers, j, ep.ColSums[j], wantCols[j])
			}
		}
	}
}

func TestAbsMaxTrackerMatchesAbsMax(t *testing.T) {
	r := rng.NewFromInt(35)
	a := New(100)
	a.FillNormal(r, 0, 10)
	var trk AbsMaxTracker
	for _, v := range a.Data[:50] {
		trk.Observe(v)
	}
	trk.ObserveSlice(a.Data[50:])
	if math.Float32bits(trk.Value()) != math.Float32bits(a.AbsMax()) {
		t.Fatalf("tracker %v != AbsMax %v", trk.Value(), a.AbsMax())
	}
	if AbsMaxOfBits(AbsBits(-3.5)) != 3.5 {
		t.Fatal("AbsBits/AbsMaxOfBits roundtrip broken")
	}
}

func TestDirtyProtocol(t *testing.T) {
	a := New(4, 4)
	if a.Dirty() {
		t.Fatal("fresh tensor dirty")
	}
	a.MarkDirty()
	if !a.Dirty() {
		t.Fatal("MarkDirty had no effect")
	}
	a.Fill(1) // full rewrite clears
	if a.Dirty() {
		t.Fatal("Fill did not clear dirty")
	}

	src := New(4, 4)
	a.CopyFrom(src) // out-of-band restore marks
	if !a.Dirty() {
		t.Fatal("CopyFrom did not mark dirty")
	}

	// Full GEMM rewrites clear.
	x, y := New(4, 4), New(4, 4)
	MatMulInto(a, x, y, false)
	if a.Dirty() {
		t.Fatal("MatMulInto did not clear dirty")
	}
	a.MarkDirty()
	MatMulIntoEp(a, x, y, false, &Epilogue{WantSum: true})
	if a.Dirty() {
		t.Fatal("MatMulIntoEp did not clear dirty")
	}
}

// channelMomentsRef and sumPerChannelRef are the one-channel-at-a-time loops
// ChannelMoments and SumPerChannelNCHW ran before they took several channels
// side by side, kept as their oracles: same addends, same order, one chain.
func channelMomentsRef(t *Tensor) (mean, variance []float32) {
	n, c, h, w := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
	mean = make([]float32, c)
	variance = make([]float32, c)
	count := float64(n * h * w)
	for ch := 0; ch < c; ch++ {
		var sum, sumsq float64
		for b := 0; b < n; b++ {
			base := ((b*c + ch) * h) * w
			for i := 0; i < h*w; i++ {
				v := float64(t.Data[base+i])
				sum += v
				sumsq += v * v
			}
		}
		m := sum / count
		mean[ch] = float32(m)
		variance[ch] = float32(sumsq/count - m*m)
	}
	return mean, variance
}

func sumPerChannelRef(t, into *Tensor) {
	n, c, spatial := channelDims("sumPerChannelRef", t)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			row := t.Data[(b*c+ch)*spatial : (b*c+ch+1)*spatial]
			var sum float32
			for _, v := range row {
				sum += v
			}
			into.Data[ch] += sum
		}
	}
}

// fillChannelTorture fills an activation tensor so that a per-channel sum
// taken in any order but the defined one comes out different: magnitudes 1e8
// apart that cancel, so what survives depends on the order, and — with
// poison — a +Inf, a -Inf and a NaN in three different channels.
func fillChannelTorture(r *rng.Rand, t *Tensor, poison bool) {
	for i := range t.Data {
		v := float32(r.NormFloat64())
		switch r.Intn(4) {
		case 0:
			v *= 1e8
		case 1:
			v *= 1e-8
		}
		t.Data[i] = v
	}
	// Exact cancellation partners for the first few elements.
	for i := 0; i+1 < len(t.Data); i += 5 {
		t.Data[i+1] = -t.Data[i]
	}
	if poison {
		for i, bits := range []uint32{0x7f800000, 0xff800000, 0x7fc00001} {
			t.Data[(i*len(t.Data)/3+i)%len(t.Data)] = math.Float32frombits(bits)
		}
	}
}

// TestChannelReductionsBitwise: the channel-interleaved reductions against
// their sequential oracles, over channel counts on both sides of the pair and
// quad widths, 4-D and rank-2. A NaN has to be a NaN, not a given payload:
// where two meet in one sum, which survives is the register allocator's
// choice in the oracle and the kernel alike.
func TestChannelReductionsBitwise(t *testing.T) {
	r := rng.NewFromInt(92)
	for _, c := range []int{1, 2, 3, 4, 5, 8, 9} {
		for _, n := range []int{1, 2, 3} {
			for _, poison := range []bool{false, true} {
				name := fmt.Sprintf("n=%d c=%d poison=%v", n, c, poison)
				x := New(n, c, 3, 2)
				fillChannelTorture(r, x, poison)

				mean, variance := make([]float32, c), make([]float32, c)
				ChannelMoments(x, mean, variance)
				wantMean, wantVar := channelMomentsRef(x)
				sameBits(t, "ChannelMoments mean "+name, mean, wantMean, false)
				sameBits(t, "ChannelMoments variance "+name, variance, wantVar, false)

				got, want := New(c), New(c)
				fillChannelTorture(r, got, false)
				copy(want.Data, got.Data)
				SumPerChannelNCHW(x, got)
				sumPerChannelRef(x, want)
				sameBits(t, "SumPerChannelNCHW "+name, got.Data, want.Data, false)

				// Rank-2, the Dense bias gradient: rows of one element, and a
				// -0 row must still contribute the +0 its own sum starts from.
				d := New(n, c)
				fillChannelTorture(r, d, poison)
				d.Data[0] = float32(math.Copysign(0, -1))
				got.Fill(float32(math.Copysign(0, -1)))
				want.Fill(float32(math.Copysign(0, -1)))
				SumPerChannelNCHW(d, got)
				sumPerChannelRef(d, want)
				sameBits(t, "SumPerChannelNCHW rank-2 "+name, got.Data, want.Data, false)
			}
		}
	}
	mustPanicWith(t, "ChannelMoments destinations hold 2 and 3 elements for 3 channels", func() {
		ChannelMoments(New(1, 3, 2, 2), make([]float32, 2), make([]float32, 3))
	})
}
