package fault

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/numerics"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// DeviceFaultKind classifies the system-level failure modes of a
// data-parallel training group. Where Injection models a transient bit flip
// inside one accelerator's datapath (Sec 3.2.1), a DeviceFault models the
// device or its reduction link misbehaving as a unit: the scenarios a
// production collective layer must survive rather than merely observe.
type DeviceFaultKind int

// Device-fault kinds. The zero value means "no device fault", so a zero
// DeviceFault in a campaign record denotes an ordinary FF-flip experiment.
const (
	// DeviceFaultNone: no system-level fault armed.
	DeviceFaultNone DeviceFaultKind = iota
	// DeviceLinkSDC: a transient bit flip in the device's reduction
	// traffic — silent data corruption on the interconnect. One-shot, like
	// the FF flips: only the onset iteration's contribution is corrupted.
	DeviceLinkSDC
	// DeviceStuckAt: a permanent stuck-at-1 datapath lane. Every gradient
	// contribution from the onset iteration onward has the stuck bit forced
	// in the elements produced by the faulty MAC unit (flat index ≡ Lane
	// mod accel.MACUnits), until (if ever) RepairIter.
	DeviceStuckAt
	// DeviceStraggler: the device's contribution arrives DelayTicks of
	// virtual time late every iteration from the onset — slow enough to eat
	// into the collective's timeout+retry budget, possibly exhausting it.
	DeviceStraggler
	// DeviceCrash: the device stops contributing entirely from the onset
	// iteration — a hang or hard crash. Without mitigation the collective
	// can only time out and abort (group hang).
	DeviceCrash
	numDeviceFaultKinds
)

// String implements fmt.Stringer.
func (k DeviceFaultKind) String() string {
	switch k {
	case DeviceFaultNone:
		return "none"
	case DeviceLinkSDC:
		return "link-sdc"
	case DeviceStuckAt:
		return "stuck-at"
	case DeviceStraggler:
		return "straggler"
	case DeviceCrash:
		return "crash"
	}
	return fmt.Sprintf("device-fault(%d)", int(k))
}

// AllDeviceFaultKinds returns the injectable device-fault kinds (the zero
// "none" kind excluded), in declaration order.
func AllDeviceFaultKinds() []DeviceFaultKind {
	return []DeviceFaultKind{DeviceLinkSDC, DeviceStuckAt, DeviceStraggler, DeviceCrash}
}

// DeviceFaultKindByName resolves a kind from its String form ("" and "none"
// both map to DeviceFaultNone); ok is false for unknown names.
func DeviceFaultKindByName(name string) (DeviceFaultKind, bool) {
	switch name {
	case "", "none":
		return DeviceFaultNone, true
	case "link-sdc":
		return DeviceLinkSDC, true
	case "stuck-at":
		return DeviceStuckAt, true
	case "straggler":
		return DeviceStraggler, true
	case "crash":
		return DeviceCrash, true
	}
	return DeviceFaultNone, false
}

// DeviceEffect is what a device fault does to the collective, the one
// distinction the layers above it act on: the collective's arrival phase
// (comm.Group), and the campaign's test for a fault that can change no value
// (package experiment).
type DeviceEffect int

// Device-fault effects.
const (
	// EffectNone: no fault.
	EffectNone DeviceEffect = iota
	// EffectCorrupts: the device's contributions arrive on time with wrong
	// values (DeviceLinkSDC, DeviceStuckAt).
	EffectCorrupts
	// EffectRemoves: the device's contributions never arrive (DeviceCrash).
	EffectRemoves
	// EffectDelays: the device's contributions arrive DelayTicks late with
	// the right values (DeviceStraggler) — whether they make the step is the
	// collective policy's decision, not the fault's.
	EffectDelays
)

// DeviceFault fully describes one system-level fault experiment. All fields
// are plain comparable values so a DeviceFault can be journaled and
// replayed exactly like an Injection.
type DeviceFault struct {
	// Kind selects the failure mode; DeviceFaultNone disables the fault.
	Kind DeviceFaultKind
	// Device is the faulty replica index.
	Device int
	// Iteration is the onset: the first global iteration the fault is
	// active in.
	Iteration int
	// BitPos is the corrupted bit (0..31) for the data-corrupting kinds:
	// the flipped bit for DeviceLinkSDC, the stuck-at-1 bit for
	// DeviceStuckAt.
	BitPos uint
	// Lane is the faulty MAC lane for DeviceStuckAt: elements at flat
	// index ≡ Lane (mod accel.MACUnits) are corrupted.
	Lane int
	// Flips is how many gradient elements DeviceLinkSDC flips at the onset.
	Flips int
	// DelayTicks is the extra virtual-time arrival delay per collective for
	// DeviceStraggler.
	DelayTicks int
	// RepairIter, when positive, is the iteration the fault heals (the
	// device is rebooted or replaced) — from RepairIter onward the device
	// behaves normally and a hot-rejoin can succeed. Zero means permanent.
	RepairIter int
	// Seed drives the random corruption sites of DeviceLinkSDC, so
	// replaying the same DeviceFault reproduces identical corruption.
	Seed rng.Seed
}

// ActiveAt reports whether the fault affects iteration iter.
func (f *DeviceFault) ActiveAt(iter int) bool {
	if f == nil || f.Kind == DeviceFaultNone || iter < f.Iteration {
		return false
	}
	if f.RepairIter > 0 && iter >= f.RepairIter {
		return false
	}
	return true
}

// Effect classifies the fault by its kind (EffectNone for a nil fault).
func (f *DeviceFault) Effect() DeviceEffect {
	if f == nil {
		return EffectNone
	}
	switch f.Kind {
	case DeviceLinkSDC, DeviceStuckAt:
		return EffectCorrupts
	case DeviceCrash:
		return EffectRemoves
	case DeviceStraggler:
		return EffectDelays
	}
	return EffectNone
}

// Describe returns a compact human-readable summary.
func (f *DeviceFault) Describe() string {
	if f == nil || f.Kind == DeviceFaultNone {
		return "none"
	}
	s := fmt.Sprintf("%s device=%d iter=%d", f.Kind, f.Device, f.Iteration)
	switch f.Kind {
	case DeviceLinkSDC:
		s += fmt.Sprintf(" bit=%d flips=%d", f.BitPos, f.Flips)
	case DeviceStuckAt:
		s += fmt.Sprintf(" bit=%d lane=%d", f.BitPos, f.Lane)
	case DeviceStraggler:
		s += fmt.Sprintf(" delay=%d", f.DelayTicks)
	}
	if f.RepairIter > 0 {
		s += fmt.Sprintf(" repair=%d", f.RepairIter)
	}
	return s
}

// CorruptContribution applies the fault's data corruption to the device's
// gradient contribution for iteration iter, before it enters the
// reduction. Only the data-corrupting kinds mutate anything: DeviceLinkSDC
// flips BitPos in Flips randomly chosen elements at the onset iteration
// only; DeviceStuckAt forces BitPos to 1 in every element of the faulty MAC
// lane, every active iteration. Mutated tensors are marked dirty so fused
// statistics are recomputed. Returns the number of corrupted elements.
func (f *DeviceFault) CorruptContribution(iter int, grads []*tensor.Tensor) int {
	if !f.ActiveAt(iter) {
		return 0
	}
	switch f.Kind {
	case DeviceLinkSDC:
		if iter != f.Iteration {
			return 0
		}
		total := 0
		for _, t := range grads {
			total += len(t.Data)
		}
		if total == 0 {
			return 0
		}
		r := rng.New(f.Seed)
		flips := f.Flips
		if flips < 1 {
			flips = 1
		}
		n := 0
		for k := 0; k < flips; k++ {
			idx := r.Intn(total)
			for _, t := range grads {
				if idx < len(t.Data) {
					t.Data[idx] = numerics.FlipBit32(t.Data[idx], f.BitPos%32)
					t.MarkDirty()
					n++
					break
				}
				idx -= len(t.Data)
			}
		}
		return n
	case DeviceStuckAt:
		lane := f.Lane % accel.MACUnits
		if lane < 0 {
			lane += accel.MACUnits
		}
		n := 0
		for _, t := range grads {
			for i := lane; i < len(t.Data); i += accel.MACUnits {
				t.Data[i] = numerics.SetBit32(t.Data[i], f.BitPos%32)
				n++
			}
			if lane < len(t.Data) {
				t.MarkDirty()
			}
		}
		return n
	}
	return 0
}

// SampleDeviceFault draws one random device fault from kinds for a group of
// the given size, with onset uniform in [0, maxIter). Mirroring
// Sampler.Sample, every micro-parameter is drawn unconditionally so the
// random stream (and thus every later sample) does not depend on the kind
// drawn. The corruption bit is biased toward the upper exponent half the
// time — the bits whose flips actually matter (Sec 4.3.1) — and crashes are
// repairable half the time, modeling node reboot or replacement, so the
// hot-rejoin path is exercised.
func SampleDeviceFault(r *rng.Rand, devices, maxIter int, kinds []DeviceFaultKind) DeviceFault {
	if maxIter < 1 {
		maxIter = 1
	}
	f := DeviceFault{
		Kind:       kinds[r.Intn(len(kinds))],
		Device:     r.Intn(devices),
		Iteration:  r.Intn(maxIter),
		Lane:       r.Intn(accel.MACUnits),
		Flips:      1 + r.Intn(8),
		DelayTicks: 1 + r.Intn(600),
	}
	if r.Intn(2) == 1 {
		f.BitPos = uint(29 + r.Intn(2))
	} else {
		f.BitPos = uint(r.Intn(29))
	}
	repairable := r.Intn(2) == 1
	repairDelay := 4 + r.Intn(8)
	if f.Kind == DeviceCrash && repairable {
		f.RepairIter = f.Iteration + repairDelay
	}
	f.Seed = rng.Seed{State: r.Uint64(), Stream: r.Uint64() >> 1}
	return f
}
