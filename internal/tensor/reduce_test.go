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

func TestAbsMaxMatchesReference(t *testing.T) {
	r := rng.NewFromInt(31)
	for _, n := range []int{1, 3, 17, 1024, 1<<16 + 13} {
		a := New(n)
		a.FillNormal(r, 0, 1e3)
		if got, want := a.AbsMax(), refAbsMax(a.Data); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("n=%d: AbsMax = %v, want %v", n, got, want)
		}
	}
}

func TestAbsMaxPropagatesNaNAndInf(t *testing.T) {
	a := New(1029)
	a.Fill(1)
	a.Data[1023] = float32(math.Inf(-1))
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
	// phase, must be bitwise-equal to the whole-tensor Sum: the lane rule is
	// keyed on the global flat index.
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
}

// channelMomentsRef and sumPerChannelRef are the one-channel-at-a-time loops
// ChannelMoments and the per-channel sum (now SumPerChannelBlocks) ran before they took several channels
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
				SumPerChannelBlocks([]*Tensor{got}, x, []int{n})
				sumPerChannelRef(x, want)
				sameBits(t, "SumPerChannelBlocks "+name, got.Data, want.Data, false)

				// Rank-2, the Dense bias gradient: rows of one element, and a
				// -0 row must still contribute the +0 its own sum starts from.
				d := New(n, c)
				fillChannelTorture(r, d, poison)
				d.Data[0] = float32(math.Copysign(0, -1))
				got.Fill(float32(math.Copysign(0, -1)))
				want.Fill(float32(math.Copysign(0, -1)))
				SumPerChannelBlocks([]*Tensor{got}, d, []int{n})
				sumPerChannelRef(d, want)
				sameBits(t, "SumPerChannelBlocks rank-2 "+name, got.Data, want.Data, false)
			}
		}
	}
	mustPanicWith(t, "ChannelMoments destinations hold 2 and 3 elements for 3 channels", func() {
		ChannelMoments(New(1, 3, 2, 2), make([]float32, 2), make([]float32, 3))
	})
}

// FuzzReduceOracle: the reductions the mitigation checks rest on — AbsMax,
// Sum, AddInPlaceAbsMax and FirstNonFinite (numerics.HasNonFinite's kernel,
// firstNonFinite) — against per-element loops
// that share no unrolling or lane bookkeeping with them, on a fuzzer-chosen
// length and fuzzer-chosen bit patterns. Where the oracle's answer is NaN the
// kernel's only has to be NaN.
func FuzzReduceOracle(f *testing.F) {
	f.Add(uint16(6), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80, 0, 0, 0x80, 0xff, 1, 0, 0, 0})
	f.Add(uint16(0), []byte{0, 0, 0xc0, 0x7f})
	f.Add(uint16(13), []byte{0xdb, 0x0f, 0x49, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x01, 0, 0x80, 0x7f})
	f.Add(uint16(200), []byte{0xff, 0xff, 0x7f, 0x7f, 0xff, 0xff, 0x7f, 0xff, 1, 0, 0, 0x80})
	f.Add(uint16(3), []byte{})
	// +0, -0, 1 repeating: signed zeros, whose magnitudes tie.
	f.Add(uint16(11), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0x80, 0x3f})
	f.Fuzz(func(t *testing.T, nRaw uint16, raw []byte) {
		n := int(nRaw)%300 + 1
		if len(raw) > 1<<12 {
			raw = raw[:1<<12]
		}
		at := 0
		fill := func() []float32 {
			dst := make([]float32, n)
			for i := range dst {
				var bits uint32
				for s := 0; s < 32 && len(raw) > 0; s += 8 {
					bits |= uint32(raw[at%len(raw)]) << s
					at++
				}
				dst[i] = math.Float32frombits(bits)
			}
			return dst
		}
		x, u := fill(), fill()

		// naiveAbsMax is the largest |v| by float comparison, and whether a
		// NaN was seen.
		naiveAbsMax := func(s []float32) (m float32, nan bool) {
			for _, v := range s {
				a := float32(math.Abs(float64(v)))
				if a != a {
					nan = true
				} else if a > m {
					m = a
				}
			}
			return m, nan
		}
		sameOrNaN := func(name string, got, want float32, nan bool) {
			t.Helper()
			if nan {
				if got == got {
					t.Fatalf("%s = %v over a NaN, want NaN", name, got)
				}
				return
			}
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s = %#08x (%v), want %#08x (%v)", name, math.Float32bits(got), got, math.Float32bits(want), want)
			}
		}
		xt := FromSlice(x, n)

		first := -1
		for i, v := range x {
			if v != v || math.IsInf(float64(v), 0) {
				first = i
				break
			}
		}
		if got := xt.FirstNonFinite(); got != first {
			t.Fatalf("FirstNonFinite = %d, want %d", got, first)
		}

		m, nan := naiveAbsMax(x)
		sameOrNaN("AbsMax", xt.AbsMax(), m, nan)

		// Sum: element i into lane i mod 4, combined (s0+s1)+(s2+s3).
		var lanes [4]float64
		for i, v := range x {
			lanes[i%4] += float64(v)
		}
		wantSum := (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
		if got := xt.Sum(); math.Float64bits(got) != math.Float64bits(wantSum) && !(got != got && wantSum != wantSum) {
			t.Fatalf("Sum = %v, want %v", got, wantSum)
		}

		want := make([]float32, n)
		for i := range want {
			want[i] = x[i] + u[i]
		}
		m, nan = naiveAbsMax(u)
		sameOrNaN("AddInPlaceAbsMax", xt.AddInPlaceAbsMax(FromSlice(u, n)), m, nan)
		sameBits(t, "AddInPlaceAbsMax sum", x, want, false)
	})
}

// TestSumRowsMatchesPlaneLoop: the rank-2 bias-gradient loop against the
// plane loop it replaced at spatial 1, bit for bit — −0 elements over a −0
// accumulator (each adds as the +0 its own sum starts from), ±Inf, NaN
// payloads (quiet, signalling, negative) that must come out with their exact
// bits where one meets a number, and accumulators that start non-zero. Where
// two NaNs meet, which payload survives is the register allocator's choice in
// either loop, so there only NaN-ness is held.
func TestSumRowsMatchesPlaneLoop(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := func(bits uint32) float32 { return math.Float32frombits(bits) }
	specials := []float32{negZero, 0, float32(math.Inf(1)), float32(math.Inf(-1)),
		nan(0x7fc00001), nan(0xffc12345), nan(0x7f800001), 1e30, -1e-30}
	starts := []float32{negZero, 0, 1.5, -3, 1e30, float32(math.Inf(-1))}
	r := rng.NewFromInt(41)
	for _, c := range []int{1, 3, 4, 5, 12, 17} {
		for _, n := range []int{1, 2, 5} {
			for trial := 0; trial < 8; trial++ {
				data := make([]float32, n*c)
				for i := range data {
					data[i] = float32(r.NormFloat64())
				}
				// One special per channel at most, so exactly one NaN can
				// meet a channel's accumulator unless twoNaNs puts a second.
				twoNaNs := trial == 7
				for ch := 0; ch < c; ch++ {
					if r.Intn(2) == 0 {
						data[r.Intn(n)*c+ch] = specials[r.Intn(len(specials))]
					}
				}
				if twoNaNs && n > 1 {
					data[0], data[c] = nan(0x7fc00002), nan(0xffc00003)
				}
				got, want := make([]float32, c), make([]float32, c)
				for ch := range got {
					got[ch] = starts[(ch+trial)%len(starts)]
				}
				if trial == 6 { // all −0: a loop that adds x, not +0 + x, keeps −0
					for i := range data {
						data[i] = negZero
					}
					for ch := range got {
						got[ch] = negZero
					}
				}
				copy(want, got)
				sumRows(data, got, n)
				sumPlanes(data, want, n, 1)
				name := fmt.Sprintf("n=%d c=%d trial=%d", n, c, trial)
				sameBits(t, name, got, want, !twoNaNs)
			}
		}
	}
}

// TestColumnsKernelBitwise holds columnsAVX, through its two callers, to the
// Go loops they replace, bit for bit: sumRows (the rank-2 bias gradient,
// acc += +0 + x row after row) to sumRowsGo, and MeanPositions (SeqMean's
// forward, +0 + x·(1/L) position after position) to meanPositionsGo. The
// widths cover every column group the kernel has — sixteen, four, one — and
// their mixes; the values carry ±0, Inf and NaNs of two payload sets, the
// data's and the accumulators', so where two NaNs meet the payload shows
// which operand the addition took first: the row's term.
func TestColumnsKernelBitwise(t *testing.T) {
	r := rng.NewFromInt(43)
	nan := func(bits uint32) float32 { return math.Float32frombits(bits) }
	dataSpecials := []float32{float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)), nan(0x7fc0da7a), nan(0xffc0da7b), 1e30}
	accSpecials := []float32{float32(math.Copysign(0, -1)), 0, nan(0x7fc0acc1), nan(0xffc0acc2), 2.5}
	fill := func(s []float32, specials []float32) {
		for i := range s {
			s[i] = float32(r.NormFloat64())
			if r.Intn(4) == 0 {
				s[i] = specials[r.Intn(len(specials))]
			}
		}
	}
	for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 17, 20, 33, 36} {
		for _, rows := range []int{1, 2, 3, 8, 9} {
			name := fmt.Sprintf("rows=%d cols=%d", rows, cols)
			data := make([]float32, rows*cols)
			fill(data, dataSpecials)
			got, want := make([]float32, cols), make([]float32, cols)
			fill(got, accSpecials)
			copy(want, got)
			sumRows(data, got, rows)
			sumRowsGo(data, want, rows)
			sameBits(t, "sumRows "+name, got, want, !raceEnabled)

			for _, blocks := range []int{1, 3} {
				x := New(blocks, rows, cols)
				fill(x.Data, dataSpecials)
				out, wantOut := New(blocks, cols), make([]float32, blocks*cols)
				out.Fill(nan(0x7fc0dead))
				MeanPositions(out, x)
				meanPositionsGo(wantOut, x.Data, blocks, rows, cols, 1/float32(rows))
				sameBits(t, fmt.Sprintf("MeanPositions blocks=%d %s", blocks, name), out.Data, wantOut, !raceEnabled)
			}
		}
	}
}
