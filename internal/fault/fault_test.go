package fault

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/accel"
	"repro/internal/numerics"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func filledTensor(shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(i + 1) // distinct nonzero values
	}
	return t
}

func baseInjection(kind accel.FFKind) Injection {
	return Injection{
		Kind:      kind,
		CycleFrac: 0,
		N:         1,
		Unit:      2,
		DeltaFrac: 0.4,
		BitPos:    5,
		Seed:      rng.Seed{State: 42, Stream: 1},
	}
}

func TestApplyG2ZeroesOneCycle(t *testing.T) {
	x := filledTensor(1, 20, 1, 3) // 2 groups × 3 width = 6 cycles
	inj := baseInjection(accel.GlobalG2)
	res := inj.Apply(x, 1)
	// Cycle 0 = channels 0..15 at pos 0 → flat indices ch*3.
	if len(res.Indices) != 16 {
		t.Fatalf("corrupted %d elements, want 16", len(res.Indices))
	}
	for _, idx := range res.Indices {
		if x.Data[idx] != 0 {
			t.Fatalf("element %d not zeroed", idx)
		}
		if idx%3 != 0 {
			t.Fatalf("element %d not at width position 0", idx)
		}
	}
	if res.Masked {
		t.Fatal("nonzero tensor zeroed should not be masked")
	}
}

func TestApplyG1RandomValues(t *testing.T) {
	x := filledTensor(1, 16, 1, 4)
	inj := baseInjection(accel.GlobalG1)
	inj.N = 2
	res := inj.Apply(x, 1)
	if len(res.Indices) != 32 {
		t.Fatalf("corrupted %d elements, want 32 (16 × 2 cycles)", len(res.Indices))
	}
	// Values should span a wide range (dynamic-range model).
	var large int
	for _, v := range res.NewValues {
		if math.Abs(float64(v)) > 1e6 || numerics.IsInf32(v) {
			large++
		}
	}
	if large == 0 {
		t.Error("no large dynamic-range values produced in 32 draws")
	}
}

func TestApplyG1Deterministic(t *testing.T) {
	inj := baseInjection(accel.GlobalG1)
	x1 := filledTensor(1, 16, 1, 4)
	x2 := filledTensor(1, 16, 1, 4)
	inj.Apply(x1, 1)
	inj.Apply(x2, 1)
	for i := range x1.Data {
		if x1.Data[i] != x2.Data[i] && !(numerics.IsNaN32(x1.Data[i]) && numerics.IsNaN32(x2.Data[i])) {
			t.Fatal("same injection seed produced different corruption")
		}
	}
}

func TestApplyG3SingleUnit(t *testing.T) {
	x := filledTensor(1, 16, 1, 5)
	inj := baseInjection(accel.GlobalG3)
	inj.N = 3
	res := inj.Apply(x, 1)
	if len(res.Indices) != 3 {
		t.Fatalf("corrupted %d elements, want 3 (unit 2, 3 cycles)", len(res.Indices))
	}
	// All on channel 2 (unit 2 of group 0), consecutive width positions.
	for i, idx := range res.Indices {
		wantIdx := 2*5 + i
		if idx != wantIdx {
			t.Fatalf("index[%d] = %d, want %d", i, idx, wantIdx)
		}
	}
}

func TestApplyG4Relocation(t *testing.T) {
	x := filledTensor(1, 16, 1, 5)
	orig := x.Clone()
	inj := baseInjection(accel.GlobalG4)
	inj.DeltaFrac = 0 // delta = 1
	inj.Apply(x, 1)
	// Cycle 0 outputs (pos 0) moved to pos 1; pos 0 now stale (0).
	for ch := 0; ch < 16; ch++ {
		if x.Data[ch*5+0] != 0 {
			t.Fatalf("channel %d pos 0 should be stale (0), got %v", ch, x.Data[ch*5+0])
		}
		if x.Data[ch*5+1] != orig.Data[ch*5+0] {
			t.Fatalf("channel %d pos 1 should hold pos 0's value", ch)
		}
	}
}

func TestApplyG5ShiftedValues(t *testing.T) {
	x := filledTensor(1, 16, 1, 5)
	orig := x.Clone()
	inj := baseInjection(accel.GlobalG5)
	inj.DeltaFrac = 0.3 // delta = 1 + int(0.3*4) = 2
	inj.Apply(x, 1)
	for ch := 0; ch < 16; ch++ {
		if x.Data[ch*5+0] != orig.Data[ch*5+2] {
			t.Fatalf("channel %d pos 0 should hold pos 2's value, got %v", ch, x.Data[ch*5+0])
		}
	}
}

func TestApplyG9FixedSource(t *testing.T) {
	x := filledTensor(1, 16, 1, 6)
	orig := x.Clone()
	inj := baseInjection(accel.GlobalG9)
	inj.N = 2
	res := inj.Apply(x, 1)
	if len(res.Indices) != 32 {
		t.Fatalf("corrupted %d, want 32", len(res.Indices))
	}
	// All corrupted positions in a cycle share the same fixed source pos:
	// value at (ch, pos) equals orig value at (ch, src) for one common src.
	// Infer src from channel 0, cycle 0.
	var src = -1
	for s := 0; s < 6; s++ {
		if x.Data[0*6+0] == orig.Data[0*6+s] {
			src = s
			break
		}
	}
	if src == -1 {
		t.Fatal("could not infer source position")
	}
	for ch := 0; ch < 16; ch++ {
		if x.Data[ch*6+0] != orig.Data[ch*6+src] {
			t.Fatalf("channel %d pos 0 not from source %d", ch, src)
		}
	}
}

func TestApplyDatapathUpperExponent(t *testing.T) {
	x := filledTensor(4, 8)
	orig := x.Clone()
	inj := baseInjection(accel.DatapathUpperExponent)
	res := inj.Apply(x, 1)
	if len(res.Indices) != 1 {
		t.Fatalf("corrupted %d elements, want 1", len(res.Indices))
	}
	idx := res.Indices[0]
	got := x.Data[idx]
	want29 := numerics.FlipBit32(orig.Data[idx], 29)
	want30 := numerics.FlipBit32(orig.Data[idx], 30)
	if got != want29 && got != want30 {
		t.Fatalf("value %v is not an upper-exponent flip of %v", got, orig.Data[idx])
	}
}

func TestApplyDatapathOtherAvoidsUpperExponent(t *testing.T) {
	// Even when BitPos names an upper exponent bit, the DatapathOther model
	// must remap it away.
	for _, bit := range []uint{29, 30} {
		x := filledTensor(4, 8)
		orig := x.Clone()
		inj := baseInjection(accel.DatapathOther)
		inj.BitPos = bit
		res := inj.Apply(x, 1)
		idx := res.Indices[0]
		for b := uint(0); b < 32; b++ {
			if x.Data[idx] == numerics.FlipBit32(orig.Data[idx], b) && numerics.IsUpperExponentBit(b) {
				// The flipped value must not correspond to an upper bit
				// unless it coincidentally equals another bit's flip.
				alt := false
				for b2 := uint(0); b2 < 32; b2++ {
					if !numerics.IsUpperExponentBit(b2) && x.Data[idx] == numerics.FlipBit32(orig.Data[idx], b2) {
						alt = true
					}
				}
				if !alt {
					t.Fatalf("DatapathOther flipped upper exponent bit %d", b)
				}
			}
		}
	}
}

func TestApplyLocalControl(t *testing.T) {
	x := filledTensor(1, 16, 1, 4)
	inj := baseInjection(accel.LocalControl)
	inj.N = 2
	res := inj.Apply(x, 1)
	if len(res.Indices) != 2 {
		t.Fatalf("corrupted %d elements, want 2", len(res.Indices))
	}
}

func TestApplyWeightGradLayout(t *testing.T) {
	// Weight gradients [K, C, KH, KW] use chanAxis 0.
	g := filledTensor(20, 2, 3, 3)
	inj := baseInjection(accel.GlobalG2)
	res := inj.Apply(g, 0)
	if len(res.Indices) != 16 {
		t.Fatalf("corrupted %d elements, want 16", len(res.Indices))
	}
	// Corrupted elements are (ch, 0, 0, 0) for ch = 0..15, flat = ch*18.
	for i, idx := range res.Indices {
		if idx != i*18 {
			t.Fatalf("index[%d] = %d, want %d", i, idx, i*18)
		}
	}
}

func TestMaskedDetection(t *testing.T) {
	// Zeroing an already-zero region is fully masked.
	x := tensor.New(1, 16, 1, 3)
	inj := baseInjection(accel.GlobalG2)
	res := inj.Apply(x, 1)
	if !res.Masked {
		t.Fatal("zeroing zeros should be reported as masked")
	}
}

func TestSamplerCoverage(t *testing.T) {
	inv := accel.NVDLAInventory()
	s := NewSampler(inv, rng.NewFromInt(9))
	kinds := make(map[accel.FFKind]bool)
	passes := make(map[Pass]bool)
	layers := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		inj := s.Sample(7, 100)
		if inj.LayerIdx < 0 || inj.LayerIdx >= 7 {
			t.Fatalf("layer %d out of range", inj.LayerIdx)
		}
		if inj.Iteration < 0 || inj.Iteration >= 100 {
			t.Fatalf("iteration %d out of range", inj.Iteration)
		}
		if inj.N < 1 || inj.N > accel.MaxLoopIterations {
			t.Fatalf("duration %d out of range", inj.N)
		}
		kinds[inj.Kind] = true
		passes[inj.Pass] = true
		layers[inj.LayerIdx] = true
	}
	if len(kinds) < 10 {
		t.Errorf("only %d FF kinds sampled in 5000 draws", len(kinds))
	}
	if len(passes) != 3 || len(layers) != 7 {
		t.Errorf("passes=%d layers=%d", len(passes), len(layers))
	}
}

func TestQuickApplyInBounds(t *testing.T) {
	// Property: for any sampled injection and tensor shape, all corrupted
	// indices are in bounds and the count is bounded by 16·n + n extras.
	inv := accel.NVDLAInventory()
	f := func(seed int64) bool {
		r := rng.NewFromInt(seed)
		s := NewSampler(inv, r)
		inj := s.Sample(3, 10)
		shape := []int{1 + r.Intn(3), 1 + r.Intn(40), 1 + r.Intn(4), 1 + r.Intn(4)}
		x := tensor.New(shape...)
		x.FillNormal(r, 0, 1)
		res := inj.Apply(x, 1)
		if len(res.Indices) > 2*accel.MACUnits*accel.MaxLoopIterations {
			return false
		}
		for _, idx := range res.Indices {
			if idx < 0 || idx >= x.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkApplyG1(b *testing.B) {
	x := filledTensor(4, 32, 8, 8)
	inj := baseInjection(accel.GlobalG1)
	inj.N = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = inj.Apply(x, 1)
	}
}

func TestQuickG2FootprintMatchesSchedule(t *testing.T) {
	// Property: model 2 (valid→invalid) zeroes exactly the schedule window
	// for any tensor shape and cycle position.
	f := func(seed int64) bool {
		r := rng.NewFromInt(seed)
		shape := []int{1 + r.Intn(3), 1 + r.Intn(40), 1 + r.Intn(5), 1 + r.Intn(5)}
		x := tensor.New(shape...)
		x.Fill(7)
		inj := Injection{
			Kind: accel.GlobalG2, CycleFrac: r.Float64(), N: 1 + r.Intn(8),
			Seed: rng.Seed{State: uint64(seed), Stream: 1},
		}
		res := inj.Apply(x, 1)
		sched := accel.NewSchedule(shape, 1)
		start := int(inj.CycleFrac * float64(sched.Cycles()))
		if start >= sched.Cycles() {
			start = sched.Cycles() - 1
		}
		want := sched.OutputsInWindow(start, inj.N)
		if len(res.Indices) != len(want) {
			return false
		}
		for i := range want {
			if res.Indices[i] != want[i] || x.Data[want[i]] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRelocationConservesValues(t *testing.T) {
	// Property: models 5/6/9/10 only move existing values around — every
	// post-corruption value already existed somewhere in the tensor (no new
	// magnitudes are invented, unlike models 1/3).
	f := func(seed int64) bool {
		r := rng.NewFromInt(seed)
		shape := []int{1, 1 + r.Intn(32), 1 + r.Intn(4), 2 + r.Intn(4)}
		x := tensor.New(shape...)
		x.FillNormal(r, 0, 1)
		before := map[float32]bool{}
		for _, v := range x.Data {
			before[v] = true
		}
		kinds := []accel.FFKind{accel.GlobalG5, accel.GlobalG6, accel.GlobalG9, accel.GlobalG10}
		inj := Injection{
			Kind: kinds[r.Intn(len(kinds))], CycleFrac: r.Float64(),
			N: 1 + r.Intn(4), DeltaFrac: r.Float64(),
			Seed: rng.Seed{State: uint64(seed), Stream: 2},
		}
		inj.Apply(x, 1)
		for _, v := range x.Data {
			if !before[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDatapathFlipSingleElement(t *testing.T) {
	// Property: datapath models corrupt exactly one element, and the change
	// is a single-bit flip of the IEEE encoding.
	f := func(seed int64, upper bool) bool {
		r := rng.NewFromInt(seed)
		shape := []int{2 + r.Intn(4), 2 + r.Intn(16)}
		x := tensor.New(shape...)
		x.FillNormal(r, 0, 1)
		orig := x.Clone()
		kind := accel.DatapathOther
		if upper {
			kind = accel.DatapathUpperExponent
		}
		inj := Injection{
			Kind: kind, BitPos: uint(r.Intn(32)),
			Seed: rng.Seed{State: uint64(seed), Stream: 3},
		}
		res := inj.Apply(x, 1)
		if len(res.Indices) != 1 {
			return false
		}
		idx := res.Indices[0]
		diff := math.Float32bits(x.Data[idx]) ^ math.Float32bits(orig.Data[idx])
		// Exactly one bit differs.
		return diff != 0 && diff&(diff-1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOnChipSourceLimitsInputModelSpan(t *testing.T) {
	// Table 1: input-side faults persist n cycles from DRAM but one cycle
	// from on-chip buffers.
	mk := func(src FetchSource) int {
		x := filledTensor(1, 16, 1, 6)
		inj := baseInjection(accel.GlobalG7)
		inj.N = 4
		inj.Source = src
		return len(inj.Apply(x, 1).Indices)
	}
	if got := mk(FromDRAM); got != 4*16 {
		t.Fatalf("DRAM span corrupted %d elements, want 64", got)
	}
	if got := mk(FromOnChip); got != 16 {
		t.Fatalf("on-chip span corrupted %d elements, want 16 (one cycle)", got)
	}
}

func TestOnChipSourceDoesNotAffectOutputModels(t *testing.T) {
	// Output-side models (G1–G4) are unaffected by the fetch source.
	x := filledTensor(1, 16, 1, 6)
	inj := baseInjection(accel.GlobalG2)
	inj.N = 3
	inj.Source = FromOnChip
	if got := len(inj.Apply(x, 1).Indices); got != 3*16 {
		t.Fatalf("G2 with on-chip source corrupted %d, want 48", got)
	}
}

func TestFetchSourceString(t *testing.T) {
	if FromDRAM.String() != "dram" || FromOnChip.String() != "on-chip" {
		t.Fatal("fetch source names wrong")
	}
}

func TestSamplerDrawsBothSources(t *testing.T) {
	inv := accel.NVDLAInventory()
	s := NewSampler(inv, rng.NewFromInt(13))
	seen := map[FetchSource]bool{}
	for i := 0; i < 50; i++ {
		seen[s.Sample(3, 10).Source] = true
	}
	if !seen[FromDRAM] || !seen[FromOnChip] {
		t.Fatalf("sampler sources: %v", seen)
	}
}

func TestPassAndDescribeStrings(t *testing.T) {
	if Forward.String() != "forward" || BackwardInput.String() != "backward-input-grad" ||
		BackwardWeight.String() != "backward-weight-grad" {
		t.Fatal("pass strings wrong")
	}
	if Pass(99).String() == "" {
		t.Fatal("unknown pass should still render")
	}
}
