// Package comm implements the collective-communication layer of the
// data-parallel training group: an explicit, deterministic AllReduce that
// replaces the engine's formerly implicit (and infallible) gradient
// averaging loop, plus the failure semantics a production collective must
// carry — per-device health, injectable device/link faults
// (fault.DeviceFault), per-step timeout with bounded deterministic retry,
// and degraded-mode reduction over the surviving replicas.
//
// Determinism contract: with every device healthy and no fault armed,
// AllReduce reduces into device 0 by adding contributions in ascending
// device order and scaling by 1/D — bitwise-identical to the averaging loop
// it replaced, for any stepping mode. Time is virtual (abstract "ticks"),
// so timeout and retry behavior is a pure function of the armed faults and
// the policy: campaigns over crash and straggler faults replay exactly and
// never sleep.
package comm

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/tensor"
)

// Policy sets the failure-handling knobs of a collective step. Ticks are
// virtual time: a healthy contribution arrives at tick 0, a straggler at
// its DelayTicks, a crashed device never.
type Policy struct {
	// TimeoutTicks is the per-attempt arrival deadline.
	TimeoutTicks int
	// MaxRetries bounds how many times a missing contribution is re-requested
	// before the device is declared failed for this step.
	MaxRetries int
	// BackoffTicks is added to the deadline per retry attempt (deterministic
	// linear backoff: attempt k extends the budget by TimeoutTicks +
	// k·BackoffTicks).
	BackoffTicks int
	// Exclude selects what happens after retries are exhausted: true drops
	// the failed devices from this step and reduces over the survivors (the
	// mitigation path — callers quarantine the failures); false aborts the
	// collective with Hang (the unmitigated group-hang of a synchronous
	// system, weights untouched).
	Exclude bool
}

// DefaultPolicy returns the policy campaigns start from: a timeout of 100
// ticks and 3 retries with 50-tick linear backoff, no exclusion.
func DefaultPolicy() Policy {
	return Policy{TimeoutTicks: 100, MaxRetries: 3, BackoffTicks: 50}
}

// ReduceStep reports one AllReduce call. Its slices are the Group's own
// buffers, valid until the Group's next AllReduce: the engine keeps the
// latest report (train.Engine.LastReduce) and the checks read it within
// the step (detect.GroupCheck, recovery.GroupGuard); whoever needs a list
// longer copies it (train.IterStats.DevicesFailed).
type ReduceStep struct {
	// Iteration is the global training iteration of the step.
	Iteration int
	// Root is the device whose tensors hold the reduced result (-1 on Hang).
	// It is the lowest-numbered arriving device.
	Root int
	// Arrived lists the devices whose contributions made the reduction, in
	// ascending order.
	Arrived []int
	// Failed lists the devices that exhausted the timeout+retry budget.
	Failed []int
	// Retries is the total number of retry attempts consumed this step.
	Retries int
	// Hang is true when the collective aborted: a device failed and the
	// policy does not exclude, or no device arrived at all. No tensor was
	// mutated.
	Hang bool
	// CorruptElems counts gradient elements corrupted by armed device
	// faults in this step's contributions.
	CorruptElems int
	// Sigs[pi][d] is the abs-max of device d's contribution to tensor pi
	// (0 for devices that did not participate), collected during the
	// accumulation loop when signature collection is enabled — the input of
	// the cross-replica consistency check. Nil when collection is off.
	Sigs [][]float32
}

// Degraded reports whether the step ran with fewer participants than the
// full group size n.
func (s *ReduceStep) Degraded(n int) bool { return len(s.Arrived) < n }

// Group tracks the health of the data-parallel communicator and performs
// its collectives. Devices are healthy until quarantined; armed
// fault.DeviceFaults shape arrival timing and corrupt contributions.
// A Group is not safe for concurrent use — the engine calls it from the
// serial post-join section of RunIteration.
type Group struct {
	n           int
	policy      Policy
	quarantined []bool
	faults      []*fault.DeviceFault
	collectSigs bool

	// shards, when non-nil, holds per-device example counts of an elastic
	// batch partition: AllReduce then weights each contribution by
	// count/total instead of the uniform 1/len(arrived). See SetShards.
	shards []int

	// arrived, failed, sigs and sigBuf back the latest ReduceStep's
	// Arrived, Failed and Sigs (one row of n floats per tensor), so a
	// steady-state AllReduce allocates nothing.
	arrived, failed []int
	sigs            [][]float32
	sigBuf          []float32
}

// NewGroup creates a fully healthy group of n devices with DefaultPolicy.
func NewGroup(n int) *Group {
	if n < 1 {
		panic("comm: group needs at least one device")
	}
	return &Group{
		n:           n,
		policy:      DefaultPolicy(),
		quarantined: make([]bool, n),
		faults:      make([]*fault.DeviceFault, n),
		arrived:     make([]int, 0, n),
		failed:      make([]int, 0, n),
	}
}

// Policy returns the current failure-handling policy.
func (g *Group) Policy() Policy { return g.policy }

// SetPolicy replaces the failure-handling policy.
func (g *Group) SetPolicy(p Policy) { g.policy = p }

// SetCollectSigs toggles per-device contribution-signature collection
// (ReduceStep.Sigs). Signatures are folded into the accumulation loop
// (tensor.AddInPlaceAbsMax), so enabling them costs no extra tensor sweep.
func (g *Group) SetCollectSigs(on bool) { g.collectSigs = on }

// Arm installs a device fault. A DeviceFaultNone kind disarms the device's
// slot instead.
func (g *Group) Arm(f fault.DeviceFault) {
	if f.Device < 0 || f.Device >= g.n {
		panic(fmt.Sprintf("comm: fault targets device %d of %d", f.Device, g.n))
	}
	if f.Kind == fault.DeviceFaultNone {
		g.faults[f.Device] = nil
		return
	}
	ff := f
	g.faults[f.Device] = &ff
}

// FaultFor returns the fault armed on device d, or nil.
func (g *Group) FaultFor(d int) *fault.DeviceFault { return g.faults[d] }

// Quarantine removes device d from the communicator; its contributions are
// skipped until Rejoin.
func (g *Group) Quarantine(d int) { g.quarantined[d] = true }

// Rejoin returns device d to the communicator. The caller is responsible
// for re-synchronizing the device's state first (train.Engine.Rejoin does).
func (g *Group) Rejoin(d int) { g.quarantined[d] = false }

// Healthy returns the non-quarantined device indices in ascending order.
func (g *Group) Healthy() []int {
	out := make([]int, 0, g.n)
	for d := 0; d < g.n; d++ {
		if !g.quarantined[d] {
			out = append(out, d)
		}
	}
	return out
}

// HealthyCount returns the number of non-quarantined devices.
func (g *Group) HealthyCount() int {
	n := 0
	for d := 0; d < g.n; d++ {
		if !g.quarantined[d] {
			n++
		}
	}
	return n
}

// Root returns the lowest-numbered healthy device (the reduction root), or
// 0 if the whole group is quarantined.
func (g *Group) Root() int {
	for d := 0; d < g.n; d++ {
		if !g.quarantined[d] {
			return d
		}
	}
	return 0
}

// SetShards installs the per-device example counts of an elastic batch
// partition (len n; quarantined devices carry 0). With shards installed,
// AllReduce weights device d's contribution by shards[d]/Σshards[arrived]
// instead of the uniform 1/len(arrived): each device's gradient is the
// mean over its own shard, so the weighted sum is exactly the mean over
// every example that arrived even when shards are unequal. Pass nil to
// restore uniform averaging (the bitwise-legacy path).
func (g *Group) SetShards(counts []int) {
	if counts == nil {
		g.shards = nil
		return
	}
	if len(counts) != g.n {
		panic(fmt.Sprintf("comm: %d shard counts for group of %d", len(counts), g.n))
	}
	g.shards = append(g.shards[:0], counts...)
}

// Reset returns the group to its neutral state between pooled experiments:
// every device healthy, no faults armed, default policy, signature
// collection off, uniform averaging.
func (g *Group) Reset() {
	for d := 0; d < g.n; d++ {
		g.quarantined[d] = false
		g.faults[d] = nil
	}
	g.policy = DefaultPolicy()
	g.collectSigs = false
	g.shards = nil
}

// Arrival resolves one contribution against the timeout+retry budget: a
// contribution that was sent and lands delay ticks late is re-requested, with
// linear backoff, until it falls inside the budget or MaxRetries is spent;
// one that was never sent (a crashed device) spends every retry. It returns
// the retry attempts consumed and whether the contribution made the step. A
// pure function of its arguments — AllReduce resolves every device through
// it, so a caller holding the fault and the policy knows a step's Retries
// and Failed without running it.
func (p Policy) Arrival(delay int, sent bool) (attempts int, arrives bool) {
	budget := p.TimeoutTicks
	for (!sent || delay > budget) && attempts < p.MaxRetries {
		attempts++
		budget += p.TimeoutTicks + p.BackoffTicks*attempts
	}
	return attempts, sent && delay <= budget
}

// arrival resolves device d's virtual arrival for iteration iter: the tick
// its contribution lands at, and sent=false if it never arrives (the fault
// removes the device).
func (g *Group) arrival(d, iter int) (delay int, sent bool) {
	f := g.faults[d]
	if !f.ActiveAt(iter) {
		return 0, true
	}
	switch f.Effect() {
	case fault.EffectDelays:
		return f.DelayTicks, true
	case fault.EffectRemoves:
		return 0, false
	}
	return 0, true
}

// AllReduce averages the per-device gradient contributions grads[d] (one
// tensor slice per device, congruent shapes) into the root device's
// tensors and reports what happened (in the Group's buffers, see
// ReduceStep). Quarantined devices are skipped;
// armed faults delay, drop, or corrupt contributions. The reduction is
// deterministic: contributions accumulate in ascending device order into
// the lowest arriving device, then scale by 1/len(arrived). On Hang no
// tensor is mutated.
func (g *Group) AllReduce(iter int, grads [][]*tensor.Tensor) ReduceStep {
	step := ReduceStep{Iteration: iter, Root: -1, Arrived: g.arrived[:0]}

	// Arrival phase: each missing contribution is retried with linear
	// backoff until it lands inside the budget or retries are exhausted.
	for d := 0; d < g.n; d++ {
		if g.quarantined[d] {
			continue
		}
		attempts, arrives := g.policy.Arrival(g.arrival(d, iter))
		step.Retries += attempts
		if !arrives {
			if step.Failed == nil {
				step.Failed = g.failed[:0]
			}
			step.Failed = append(step.Failed, d)
			continue
		}
		step.Arrived = append(step.Arrived, d)
	}
	if (len(step.Failed) > 0 && !g.policy.Exclude) || len(step.Arrived) == 0 {
		step.Hang = true
		return step
	}

	// Corruption phase: faults mutate the contributions they own before
	// the reduction reads them, exactly where link SDC and stuck-at
	// datapaths strike in hardware.
	for _, d := range step.Arrived {
		if f := g.faults[d]; f != nil {
			step.CorruptElems += f.CorruptContribution(iter, grads[d])
		}
	}

	// Reduce into the lowest arriving device, ascending order, then
	// rescale by the number of survivors (degraded-mode averaging).
	root := step.Arrived[0]
	step.Root = root
	if g.collectSigs {
		step.Sigs = g.sigRows(len(grads[root]))
	}

	// Elastic weighted mode: pre-scale each arrived contribution by its
	// shard weight and accumulate without the uniform rescale. Gradients
	// are consumed (and zeroed) this iteration, so in-place scaling is
	// safe; signatures then reflect the weighted contributions, which stay
	// mutually comparable because shard sizes differ by at most one.
	wTotal := 0
	if g.shards != nil {
		for _, d := range step.Arrived {
			wTotal += g.shards[d]
		}
	}
	if wTotal > 0 {
		for _, d := range step.Arrived {
			w := float32(g.shards[d]) / float32(wTotal)
			for _, t := range grads[d] {
				t.Scale(w)
			}
		}
	}

	inv := 1 / float32(len(step.Arrived))
	for pi, acc := range grads[root] {
		if g.collectSigs {
			sig := step.Sigs[pi]
			clear(sig)
			sig[root] = acc.AbsMax()
			for _, d := range step.Arrived[1:] {
				sig[d] = acc.AddInPlaceAbsMax(grads[d][pi])
			}
		} else {
			for _, d := range step.Arrived[1:] {
				acc.AddInPlace(grads[d][pi])
			}
		}
		if wTotal == 0 {
			acc.Scale(inv)
		}
	}
	return step
}

// sigRows returns the Group's rows of signatures for tensors tensors, n
// floats each, grown only past the largest count seen.
func (g *Group) sigRows(tensors int) [][]float32 {
	if len(g.sigBuf) < tensors*g.n {
		g.sigBuf = make([]float32, tensors*g.n)
		g.sigs = make([][]float32, tensors)
	}
	rows := g.sigs[:tensors]
	for pi := range rows {
		rows[pi] = g.sigBuf[pi*g.n : (pi+1)*g.n]
	}
	return rows
}
