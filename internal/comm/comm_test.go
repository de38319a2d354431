package comm

import (
	"math"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// makeGrads builds D congruent per-device gradient sets with deterministic
// contents.
func makeGrads(devices int, shapes [][]int, seed int64) [][]*tensor.Tensor {
	r := rng.NewFromInt(seed)
	out := make([][]*tensor.Tensor, devices)
	for d := range out {
		for _, s := range shapes {
			t := tensor.New(s...)
			t.FillNormal(r, 0, 0.1)
			out[d] = append(out[d], t)
		}
	}
	return out
}

func cloneGrads(grads [][]*tensor.Tensor) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, len(grads))
	for d, ts := range grads {
		for _, t := range ts {
			out[d] = append(out[d], t.Clone())
		}
	}
	return out
}

// naiveAverage is a copy of the pre-comm-layer averaging loop from
// train.RunIteration: accumulate into device 0 in ascending order, scale by
// 1/D.
func naiveAverage(grads [][]*tensor.Tensor) {
	inv := 1 / float32(len(grads))
	for pi, p := range grads[0] {
		for d := 1; d < len(grads); d++ {
			p.AddInPlace(grads[d][pi])
		}
		p.Scale(inv)
	}
}

var testShapes = [][]int{{8, 3, 3, 3}, {8}, {16, 8}, {5}}

// TestAllReduceMatchesNaiveLoop: a healthy group's AllReduce must be
// bitwise-identical to the averaging loop it replaced, with and without
// signature collection.
func TestAllReduceMatchesNaiveLoop(t *testing.T) {
	for _, sigs := range []bool{false, true} {
		a := makeGrads(8, testShapes, 11)
		b := cloneGrads(a)
		g := NewGroup(8)
		g.SetCollectSigs(sigs)

		// Signatures must be captured before the accumulate mutates b.
		var wantSigs [][]float32
		if sigs {
			for pi := range b[0] {
				sig := make([]float32, 8)
				for d := 0; d < 8; d++ {
					sig[d] = b[d][pi].AbsMax()
				}
				wantSigs = append(wantSigs, sig)
			}
		}

		step := g.AllReduce(3, a)
		naiveAverage(b)

		if step.Hang || step.Root != 0 || len(step.Arrived) != 8 || step.Retries != 0 {
			t.Fatalf("sigs=%v: unexpected step %+v", sigs, step)
		}
		for pi := range a[0] {
			for i, v := range a[0][pi].Data {
				if math.Float32bits(v) != math.Float32bits(b[0][pi].Data[i]) {
					t.Fatalf("sigs=%v: tensor %d elem %d: %x != %x",
						sigs, pi, i, math.Float32bits(v), math.Float32bits(b[0][pi].Data[i]))
				}
			}
		}
		if sigs {
			for pi, sig := range step.Sigs {
				for d, v := range sig {
					if math.Float32bits(v) != math.Float32bits(wantSigs[pi][d]) {
						t.Fatalf("sig[%d][%d] = %x, want %x", pi, d,
							math.Float32bits(v), math.Float32bits(wantSigs[pi][d]))
					}
				}
			}
		} else if step.Sigs != nil {
			t.Fatal("sigs collected while disabled")
		}
	}
}

// TestAllReduceQuarantineRescales: with device 0 quarantined, the root
// moves to device 1 and the average is over the survivors.
func TestAllReduceQuarantineRescales(t *testing.T) {
	a := makeGrads(4, [][]int{{6}}, 7)
	want := tensor.New(6)
	for d := 1; d < 4; d++ {
		want.AddInPlace(a[d][0])
	}
	want.Scale(1.0 / 3)

	g := NewGroup(4)
	g.Quarantine(0)
	step := g.AllReduce(0, a)
	if step.Root != 1 || len(step.Arrived) != 3 || step.Hang {
		t.Fatalf("unexpected step %+v", step)
	}
	for i, v := range a[1][0].Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("elem %d: %v != %v", i, v, want.Data[i])
		}
	}
}

// TestAllReduceCrash: a crashed device consumes the full retry budget, then
// hangs the group under the default policy and is excluded (reduction over
// survivors) under the mitigation policy.
func TestAllReduceCrash(t *testing.T) {
	crash := fault.DeviceFault{Kind: fault.DeviceCrash, Device: 2, Iteration: 5}

	a := makeGrads(4, [][]int{{6}}, 9)
	before := cloneGrads(a)
	g := NewGroup(4)
	g.Arm(crash)

	// Before onset: clean.
	step := g.AllReduce(4, a)
	if step.Hang || len(step.Arrived) != 4 || step.Retries != 0 {
		t.Fatalf("pre-onset step %+v", step)
	}

	// At onset, default policy: hang, no mutation, full retry budget spent.
	a = cloneGrads(before)
	step = g.AllReduce(5, a)
	if !step.Hang || step.Root != -1 || step.Retries != g.Policy().MaxRetries {
		t.Fatalf("hang step %+v", step)
	}
	if len(step.Failed) != 1 || step.Failed[0] != 2 {
		t.Fatalf("failed = %v, want [2]", step.Failed)
	}
	for d := range a {
		for i, v := range a[d][0].Data {
			if v != before[d][0].Data[i] {
				t.Fatalf("hang mutated device %d elem %d", d, i)
			}
		}
	}

	// Exclusion policy: reduce over the 3 survivors.
	p := g.Policy()
	p.Exclude = true
	g.SetPolicy(p)
	a = cloneGrads(before)
	want := before[0][0].Clone()
	want.AddInPlace(before[1][0])
	want.AddInPlace(before[3][0])
	want.Scale(1.0 / 3)
	step = g.AllReduce(5, a)
	if step.Hang || step.Root != 0 || len(step.Arrived) != 3 || step.Retries != g.Policy().MaxRetries {
		t.Fatalf("exclude step %+v", step)
	}
	for i, v := range a[0][0].Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("elem %d: %v != %v", i, v, want.Data[i])
		}
	}
}

// TestAllReduceStraggler: delays inside the first-attempt budget cost
// nothing; delays beyond it cost retries; delays beyond the whole budget
// fail the device. The virtual-clock budget for MaxRetries=3 attempts with
// TimeoutTicks=100, BackoffTicks=50 is 100, then 250, 450, 700.
func TestAllReduceStraggler(t *testing.T) {
	cases := []struct {
		delay   int
		retries int
		failed  bool
	}{
		{50, 0, false},
		{100, 0, false},
		{101, 1, false},
		{450, 2, false},
		{700, 3, false},
		{701, 3, true},
	}
	for _, tc := range cases {
		a := makeGrads(3, [][]int{{4}}, 13)
		g := NewGroup(3)
		p := g.Policy()
		p.Exclude = true
		g.SetPolicy(p)
		g.Arm(fault.DeviceFault{Kind: fault.DeviceStraggler, Device: 1, Iteration: 0, DelayTicks: tc.delay})
		step := g.AllReduce(0, a)
		if step.Retries != tc.retries {
			t.Errorf("delay %d: retries = %d, want %d", tc.delay, step.Retries, tc.retries)
		}
		if failed := len(step.Failed) > 0; failed != tc.failed {
			t.Errorf("delay %d: failed = %v, want %v", tc.delay, failed, tc.failed)
		}
	}
}

// TestAllReduceStuckAtCorruption: a stuck-at fault forces its bit in every
// lane element of every contribution tensor, from onset until repair.
func TestAllReduceStuckAtCorruption(t *testing.T) {
	f := fault.DeviceFault{
		Kind: fault.DeviceStuckAt, Device: 1, Iteration: 2,
		BitPos: 30, Lane: 3, RepairIter: 4,
	}
	for iter, wantCorrupt := range map[int]bool{1: false, 2: true, 3: true, 4: false} {
		a := makeGrads(2, [][]int{{40}}, 21)
		g := NewGroup(2)
		g.Arm(f)
		step := g.AllReduce(iter, a)
		if (step.CorruptElems > 0) != wantCorrupt {
			t.Fatalf("iter %d: corrupt=%d, want corruption %v", iter, step.CorruptElems, wantCorrupt)
		}
		if wantCorrupt {
			want := 0
			for i := 3; i < 40; i += accel.MACUnits {
				want++
			}
			if step.CorruptElems != want {
				t.Fatalf("iter %d: corrupt=%d, want %d", iter, step.CorruptElems, want)
			}
		}
	}
}

// TestGroupReset: Reset restores a fully healthy, unarmed group with the
// default policy.
func TestGroupReset(t *testing.T) {
	g := NewGroup(4)
	g.Quarantine(2)
	g.Arm(fault.DeviceFault{Kind: fault.DeviceCrash, Device: 1})
	p := g.Policy()
	p.Exclude = true
	g.SetPolicy(p)
	g.SetCollectSigs(true)
	g.AllReduce(0, makeGrads(4, [][]int{{4}}, 1)) // burn retries
	g.Reset()
	if g.HealthyCount() != 4 || g.FaultFor(1) != nil || g.Policy().Exclude ||
		g.CollectSigs() || g.Retries() != 0 {
		t.Fatal("Reset left residual state")
	}
	if g.Root() != 0 {
		t.Fatalf("Root = %d", g.Root())
	}
}

// constGrads builds D single-tensor gradient sets with constant values.
func constGrads(vals []float32, n int) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, len(vals))
	for d, v := range vals {
		t := tensor.New(n)
		for i := range t.Data {
			t.Data[i] = v
		}
		out[d] = []*tensor.Tensor{t}
	}
	return out
}

// TestAllReduceWeightedShards: with per-device shard counts installed, the
// reduction is the shard-weighted mean — each device's gradient is already
// the mean over its shard, so weighting by shard size reconstructs the
// exact global-batch mean. Checked with weights that are exact in float32
// so the expected value is bit-precise.
func TestAllReduceWeightedShards(t *testing.T) {
	// Shards [3,1]: weighted mean of constants 2 and 6 is 0.75*2 + 0.25*6
	// = 3 exactly (both weights and products are exact in float32).
	g := NewGroup(2)
	g.SetShards([]int{3, 1})
	grads := constGrads([]float32{2, 6}, 8)
	step := g.AllReduce(0, grads)
	if step.Hang || len(step.Arrived) != 2 {
		t.Fatalf("unexpected step %+v", step)
	}
	for i, v := range grads[0][0].Data {
		if v != 3 {
			t.Fatalf("elem %d: weighted mean = %v, want exactly 3", i, v)
		}
	}

	// Equal power-of-two weights: pre-scaling each addend by 1/4 commutes
	// exactly with the addition (power-of-two scaling shifts exponents
	// only), so the weighted path must be bitwise identical to the legacy
	// uniform path.
	a := makeGrads(4, testShapes, 7)
	b := cloneGrads(a)
	gw := NewGroup(4)
	gw.SetShards([]int{2, 2, 2, 2})
	gw.AllReduce(0, a)
	gu := NewGroup(4)
	gu.AllReduce(0, b)
	for pi := range a[0] {
		for i, v := range a[0][pi].Data {
			if math.Float32bits(v) != math.Float32bits(b[0][pi].Data[i]) {
				t.Fatalf("tensor %d elem %d: weighted(equal shards) %x != uniform %x",
					pi, i, math.Float32bits(v), math.Float32bits(b[0][pi].Data[i]))
			}
		}
	}

	// A quarantined device's shard drops out of the weight normalization:
	// shards [2,2,2,2] over 3 arrived devices is the uniform mean again.
	c := cloneGrads(b)
	gq := NewGroup(4)
	gq.SetShards([]int{2, 2, 2, 2})
	gq.Quarantine(0)
	step = gq.AllReduce(0, c)
	if len(step.Arrived) != 3 || step.Root != 1 {
		t.Fatalf("quarantined step %+v", step)
	}

	// Reset clears the shard weights; wrong-length counts panic.
	gw.Reset()
	if gw.Shards() != nil {
		t.Fatal("Reset did not clear the shard weights")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetShards with a wrong-length slice did not panic")
		}
	}()
	gw.SetShards([]int{1, 2})
}

// FuzzArrivalResolution holds Policy.Arrival — what a caller resolves a fault
// with before anything runs — to what AllReduce reports when the same fault
// is armed and a step executes: the step's Retries and whether the device is
// in Failed, for a fuzzer-chosen delay, policy and fault kind, inside and
// outside the fault's active window. The closed form below is a third,
// independent statement of the budget (attempt k extends it by Timeout +
// k·Backoff).
func FuzzArrivalResolution(f *testing.F) {
	f.Add(300, 100, 3, 50, uint8(fault.DeviceStraggler), true, 0, 0)
	f.Add(701, 100, 3, 50, uint8(fault.DeviceStraggler), false, 0, 0)
	f.Add(300, 100, 1, 50, uint8(fault.DeviceStraggler), true, 2, 5)
	f.Add(0, 100, 3, 50, uint8(fault.DeviceCrash), true, 1, 0)
	f.Add(5, 0, 0, 0, uint8(fault.DeviceLinkSDC), false, 0, 3)
	f.Fuzz(func(t *testing.T, delay, timeout, retries, backoff int, kind uint8, exclude bool, onset, repair int) {
		bound := func(v, n int) int { return ((v % n) + n) % n }
		delay, timeout, backoff = bound(delay, 5000), bound(timeout, 1000), bound(backoff, 500)
		retries, onset, repair = bound(retries, 12), bound(onset, 4), bound(repair, 8)
		p := Policy{TimeoutTicks: timeout, MaxRetries: retries, BackoffTicks: backoff, Exclude: exclude}
		df := fault.DeviceFault{Kind: fault.DeviceFaultKind(bound(int(kind), 5)), Device: 1,
			Iteration: onset, DelayTicks: delay, RepairIter: repair, BitPos: 3, Flips: 1}

		for iter := 0; iter < 6; iter++ {
			g := NewGroup(3)
			g.SetPolicy(p)
			g.Arm(df)
			step := g.AllReduce(iter, makeGrads(3, [][]int{{4}}, 13))

			// What the fault does to this step's arrival, from its
			// classification alone.
			late, sent := 0, true
			if df.ActiveAt(iter) {
				switch df.Effect() {
				case fault.EffectDelays:
					late = delay
				case fault.EffectRemoves:
					sent = false
				}
			}
			attempts, arrives := p.Arrival(late, sent)
			failed := len(step.Failed) == 1 && step.Failed[0] == 1
			if step.Retries != attempts || failed == arrives || (len(step.Failed) > 0 && !failed) {
				t.Fatalf("%s at iteration %d under %+v: AllReduce reports %d retries, failed %v; Arrival says %d attempts, arrives %v",
					df.Describe(), iter, p, step.Retries, step.Failed, attempts, arrives)
			}
			if step.Hang != (!arrives && !exclude) {
				t.Fatalf("%s at iteration %d under %+v: hang %v with arrives %v", df.Describe(), iter, p, step.Hang, arrives)
			}

			// Closed form: the budget after k attempts.
			budget := func(k int) int { return timeout*(k+1) + backoff*k*(k+1)/2 }
			wantAttempts := retries
			if sent {
				for k := 0; k <= retries; k++ {
					if late <= budget(k) {
						wantAttempts = k
						break
					}
				}
			}
			if wantArrives := sent && late <= budget(retries); attempts != wantAttempts || arrives != wantArrives {
				t.Fatalf("Arrival(%d, %v) under %+v = (%d, %v), closed form (%d, %v)", late, sent, p, attempts, arrives, wantAttempts, wantArrives)
			}
		}
	})
}
