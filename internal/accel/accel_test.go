package accel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestInventoryFractionsSumToOne(t *testing.T) {
	inv := NVDLAInventory()
	var sum float64
	for _, k := range Kinds() {
		if inv.Fraction[k] < 0 {
			t.Fatalf("negative fraction for %v", k)
		}
		sum += inv.Fraction[k]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestInventoryMatchesPaperNumbers(t *testing.T) {
	inv := NVDLAInventory()
	// Table 1 global-control fractions.
	want := map[FFKind]float64{
		GlobalG1: 0.0024, GlobalG2: 0.0025, GlobalG3: 0.0048, GlobalG4: 0.0236,
		GlobalG5: 0.0131, GlobalG6: 0.0096, GlobalG7: 0.0009, GlobalG8: 0.0022,
		GlobalG9: 0.0016, GlobalG10: 0.0012,
	}
	for k, f := range want {
		if math.Abs(inv.Fraction[k]-f) > 1e-12 {
			t.Errorf("%v fraction = %v, want %v", k, inv.Fraction[k], f)
		}
	}
	// Sec 4.3.1: groups 1+3 + local control = 9.8% of all FFs.
	g := inv.Fraction[GlobalG1] + inv.Fraction[GlobalG3] + inv.Fraction[LocalControl]
	if math.Abs(g-0.098) > 1e-9 {
		t.Errorf("G1+G3+local = %v, want 0.098", g)
	}
	// Sec 4.3.1: upper exponent bits = 5.5%.
	if inv.Fraction[DatapathUpperExponent] != 0.055 {
		t.Errorf("upper-exponent fraction = %v", inv.Fraction[DatapathUpperExponent])
	}
	// Sec 3.2.2: 41K global control FFs.
	var globalCount int
	for k := GlobalG1; k <= GlobalG10; k++ {
		globalCount += inv.Count(k)
	}
	if globalCount < 40500 || globalCount > 41500 {
		t.Errorf("global control FF count = %d, want ~41000", globalCount)
	}
}

func TestSampleKindDistribution(t *testing.T) {
	inv := NVDLAInventory()
	r := rng.NewFromInt(1)
	const n = 200000
	counts := make(map[FFKind]int)
	for i := 0; i < n; i++ {
		counts[inv.SampleKind(r)]++
	}
	for _, k := range Kinds() {
		got := float64(counts[k]) / n
		want := inv.Fraction[k]
		if math.Abs(got-want) > 0.004+0.1*want {
			t.Errorf("%v sampled at %v, want %v", k, got, want)
		}
	}
}

func TestSampleDurationBounds(t *testing.T) {
	inv := NVDLAInventory()
	r := rng.NewFromInt(2)
	sawLong := false
	for i := 0; i < 1000; i++ {
		n := inv.SampleDuration(GlobalG4, r)
		if n < 1 || n > MaxLoopIterations {
			t.Fatalf("duration %d out of [1,%d]", n, MaxLoopIterations)
		}
		if n > 1 {
			sawLong = true
		}
	}
	if !sawLong {
		t.Fatal("feedback-loop FFs never produced n > 1")
	}
}

func TestScheduleNCHW(t *testing.T) {
	// [B=2, K=20, H=1, W=3], chanAxis=1.
	s := NewSchedule([]int{2, 20, 1, 3}, 1)
	if s.Channels() != 20 || s.Width() != 6 {
		t.Fatalf("channels=%d width=%d", s.Channels(), s.Width())
	}
	// groups = ceil(20/16) = 2 → cycles = 12.
	if s.Cycles() != 12 {
		t.Fatalf("cycles = %d", s.Cycles())
	}
	// Cycle 0: group 0, pos 0 → batch 0, x 0, channels 0..15.
	outs := s.OutputsAt(0)
	if len(outs) != 16 {
		t.Fatalf("cycle 0 outputs %d elements", len(outs))
	}
	// Flat index of (b=0, ch, y=0, x=0) in [2,20,1,3] is ch*3.
	for i, idx := range outs {
		if idx != i*3 {
			t.Fatalf("cycle 0 output[%d] = %d, want %d", i, idx, i*3)
		}
	}
	// Cycle 6 starts group 1: channels 16..19 only (4 elements).
	outs = s.OutputsAt(6)
	if len(outs) != 4 {
		t.Fatalf("cycle 6 outputs %d elements, want 4 (tail group)", len(outs))
	}
	for i, idx := range outs {
		if idx != (16+i)*3 {
			t.Fatalf("cycle 6 output[%d] = %d", i, idx)
		}
	}
}

func TestScheduleWidthAdvances(t *testing.T) {
	// Consecutive cycles within a group must advance the width position
	// while keeping the same channel set (Table 1).
	s := NewSchedule([]int{1, 16, 2, 2}, 1)
	c0 := s.OutputsAt(0)
	c1 := s.OutputsAt(1)
	for i := range c0 {
		if c1[i] != c0[i]+1 { // x advances by one (last axis, stride 1)
			t.Fatalf("cycle 1 did not advance width: %v vs %v", c0, c1)
		}
	}
}

func TestScheduleWeightGradLayout(t *testing.T) {
	// Weight-gradient tensor [K=8, C=2, KH=1, KW=2] with chanAxis=0.
	s := NewSchedule([]int{8, 2, 1, 2}, 0)
	if s.Channels() != 8 || s.Width() != 4 || s.Cycles() != 4 {
		t.Fatalf("channels=%d width=%d cycles=%d", s.Channels(), s.Width(), s.Cycles())
	}
	outs := s.OutputsAt(0)
	// Position 0 = (c=0,kh=0,kw=0); flat index of (ch,0,0,0) = ch*4.
	for i, idx := range outs {
		if idx != i*4 {
			t.Fatalf("output[%d] = %d", i, idx)
		}
	}
}

func TestScheduleCoversAllElements(t *testing.T) {
	s := NewSchedule([]int{3, 33, 2, 2}, 1)
	seen := make(map[int]bool)
	for c := 0; c < s.Cycles(); c++ {
		for _, idx := range s.OutputsAt(c) {
			if seen[idx] {
				t.Fatalf("element %d produced twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 3*33*2*2 {
		t.Fatalf("schedule covered %d/%d elements", len(seen), 3*33*2*2)
	}
}

func TestUnitOutputAt(t *testing.T) {
	s := NewSchedule([]int{1, 20, 1, 2}, 1)
	idx, ok := s.UnitOutputAt(0, 3)
	if !ok || idx != 3*2 {
		t.Fatalf("unit 3 cycle 0: idx=%d ok=%v", idx, ok)
	}
	// Group 1 (cycles 2,3) has channels 16..19; unit 5 would be channel 21.
	if _, ok := s.UnitOutputAt(2, 5); ok {
		t.Fatal("idle unit reported as active")
	}
}

func TestRandomDynamicRangeValueSpansRange(t *testing.T) {
	r := rng.NewFromInt(3)
	var tiny, huge, neg int
	for i := 0; i < 20000; i++ {
		v := float64(RandomDynamicRangeValue(r))
		a := math.Abs(v)
		if a < 1e-20 && a > 0 {
			tiny++
		}
		if a > 1e20 {
			huge++
		}
		if v < 0 {
			neg++
		}
	}
	if tiny < 1000 || huge < 1000 {
		t.Fatalf("dynamic range not spanned: tiny=%d huge=%d", tiny, huge)
	}
	if neg < 8000 || neg > 12000 {
		t.Fatalf("sign not balanced: %d/20000 negative", neg)
	}
}

// buildArray creates a deterministic MAC array tile.
func buildArray(k, ck, w int, seed int64) *MACArray {
	r := rng.NewFromInt(seed)
	a := &MACArray{Weights: NewMatrix(k, ck), Inputs: NewMatrix(ck, w)}
	for i := range a.Weights.Data {
		a.Weights.Data[i] = float32(r.NormFloat64())
	}
	for i := range a.Inputs.Data {
		a.Inputs.Data[i] = float32(r.NormFloat64())
	}
	return a
}

func TestMACArrayCleanMatchesReference(t *testing.T) {
	a := buildArray(20, 7, 5, 4)
	out := a.Run(nil)
	for ch := 0; ch < 20; ch++ {
		for pos := 0; pos < 5; pos++ {
			var want float32
			for c := 0; c < 7; c++ {
				want += a.Weights.At(ch, c) * a.Inputs.At(c, pos)
			}
			if math.Abs(float64(out.At(ch, pos)-want)) > 1e-4 {
				t.Fatalf("out(%d,%d) = %v, want %v", ch, pos, out.At(ch, pos), want)
			}
		}
	}
}

// TestStructuralValidation is the Sec 3.2.3 experiment in miniature: for
// each global-control fault model, inject the corresponding control-state
// bit flip into the structural MAC array and verify that every corrupted
// output position is predicted by the software fault model.
func TestStructuralValidation(t *testing.T) {
	kinds := []FFKind{GlobalG1, GlobalG2, GlobalG3, GlobalG4, GlobalG5,
		GlobalG6, GlobalG7, GlobalG8, GlobalG9, GlobalG10}
	r := rng.NewFromInt(5)
	const k, ck, w = 36, 9, 7
	total, mismatched := 0, 0
	for trial := 0; trial < 200; trial++ {
		kind := kinds[r.Intn(len(kinds))]
		a := buildArray(k, ck, w, int64(trial))
		clean := a.Run(nil)
		sched := NewSchedule([]int{k, w}, 0)
		fault := &ControlFault{
			Kind:       kind,
			StartCycle: r.Intn(sched.Cycles()),
			N:          1 + r.Intn(4),
			Unit:       r.Intn(MACUnits),
			AddrDelta:  1 + r.Intn(w-1),
			SourceCol:  r.Intn(w),
			Rand:       r.Split(uint64(trial)),
		}
		faulty := a.Run(fault)
		diff := DiffPositions(clean, faulty)
		pred := PredictCorruption(k, w, fault)
		total++
		for _, idx := range diff {
			if !pred[idx] {
				mismatched++
				t.Errorf("trial %d kind %v: corrupted position %d not predicted", trial, kind, idx)
				break
			}
		}
	}
	if mismatched > 0 {
		t.Fatalf("%d/%d structural experiments disagreed with the software model", mismatched, total)
	}
}

func TestStructuralValidationFaultsNotAlwaysMasked(t *testing.T) {
	// At least some injections must visibly corrupt outputs; otherwise the
	// validation above is vacuous.
	r := rng.NewFromInt(6)
	corrupted := 0
	for trial := 0; trial < 50; trial++ {
		a := buildArray(20, 5, 4, int64(100+trial))
		clean := a.Run(nil)
		fault := &ControlFault{
			Kind: GlobalG1, StartCycle: r.Intn(8), N: 2,
			Rand: r.Split(uint64(trial)),
		}
		if len(DiffPositions(clean, a.Run(fault))) > 0 {
			corrupted++
		}
	}
	if corrupted < 40 {
		t.Fatalf("only %d/50 G1 injections corrupted outputs", corrupted)
	}
}

func TestQuickScheduleRoundTrip(t *testing.T) {
	// Property: every element index returned by OutputsAt is within bounds
	// and maps back to the same cycle's channel group.
	f := func(rawK, rawW uint8) bool {
		k := int(rawK)%40 + 1
		w := int(rawW)%9 + 1
		s := NewSchedule([]int{k, w}, 0)
		for c := 0; c < s.Cycles(); c++ {
			for _, idx := range s.OutputsAt(c) {
				if idx < 0 || idx >= k*w {
					return false
				}
				ch := idx / w
				if ch/MACUnits != c/s.Width() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMACArrayRun(b *testing.B) {
	a := buildArray(64, 64, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Run(nil)
	}
}

func TestPlanFor(t *testing.T) {
	cases := []struct {
		op     Op
		shape  []int
		axis   int
		transp bool
	}{
		{OpForward, []int{4, 8, 6, 6}, 1, false},
		{OpForward, []int{4, 16}, 1, false},
		{OpForward, []int{4, 8, 12}, 2, false}, // sequence [B, L, D]
		{OpForward, []int{9}, 0, false},
		{OpInputGrad, []int{4, 8, 6, 6}, 1, false},
		{OpWeightGrad, []int{8, 4, 3, 3}, 0, true},
		{OpWeightGrad, []int{16, 8}, 0, true},
	}
	for _, c := range cases {
		p := PlanFor(c.op, c.shape)
		if p.ChanAxis != c.axis || p.Transposed != c.transp {
			t.Errorf("PlanFor(%v, %v) = %+v, want axis %d transposed %v", c.op, c.shape, p, c.axis, c.transp)
		}
	}
	if OpForward.String() != "forward" || OpWeightGrad.String() != "weight-grad" {
		t.Fatal("op strings wrong")
	}
}
