package experiment

// Seams for the external test package, which — unlike this one — may import
// internal/record and so compare records as the journal lines they encode to.

import (
	"repro/internal/comm"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/train"
)

// PrepareGoldenWithCheck is PrepareGolden recording the cross-replica
// schedule with the given thresholds.
func PrepareGoldenWithCheck(cfg Config, check *detect.GroupCheck) *Golden {
	return prepareGolden(cfg, check)
}

// SampleFaults returns the campaign's pre-drawn population: injections for an
// FF campaign, device faults for a device-fault one.
func (g *Golden) SampleFaults(cfg Config) ([]fault.Injection, []fault.DeviceFault) {
	cfg = cfg.withDefaults()
	if cfg.DeviceFaults {
		return nil, sampleDeviceFaults(cfg, g.maxInjectIter)
	}
	return sampleInjections(cfg, g.numLayers, g.maxInjectIter), nil
}

// ByConstruction is what Resume's dispatcher does with one pending
// experiment: the predicate and, where it holds, the synthesized record.
func (g *Golden) ByConstruction(cfg Config, inj fault.Injection, df fault.DeviceFault, p comm.Policy) (Record, bool) {
	cfg = cfg.withDefaults()
	proof, ok := g.provablyGolden(cfg, inj, df, p)
	if !ok {
		return Record{}, false
	}
	return g.goldenRecord(cfg, inj, df, proof), true
}

// NewPooledEngine builds an engine the way a campaign worker does.
func (g *Golden) NewPooledEngine(cfg Config) *train.Engine {
	return g.w.NewEngine(rng.Seed{State: uint64(cfg.Seed), Stream: 77})
}

// Execute runs one experiment on a pooled engine: the executors Resume
// dispatches everything the predicate does not hold for to.
func (g *Golden) Execute(e *train.Engine, cfg Config, inj fault.Injection, df fault.DeviceFault) Record {
	cfg = cfg.withDefaults()
	if cfg.DeviceFaults {
		rec, _, _, _ := runDeviceFault(g, e, df, cfg)
		return rec
	}
	rec, _, _, _, _ := runOne(g, e, inj, cfg)
	return rec
}

// Horizon is the per-experiment iteration budget.
func (g *Golden) Horizon() int { return g.horizon }

// Finite reports whether the golden run completed without INF/NaN.
func (g *Golden) Finite() bool { return g.digests != nil }

// WithoutGroupSchedule returns a copy of g that recorded no cross-replica
// schedule, as a Golden prepared before the schedule existed would be.
func (g *Golden) WithoutGroupSchedule() *Golden {
	c := *g
	c.groupAlarms = nil
	return &c
}

// GroupAlarms counts the golden run's cross-replica alarms.
func (g *Golden) GroupAlarms() int {
	n := 0
	for _, a := range g.groupAlarms {
		if a {
			n++
		}
	}
	return n
}

// SiteFires reports whether the engine has a tensor to corrupt at inj's site.
func (g *Golden) SiteFires(inj fault.Injection) bool {
	_, fires, _ := g.site(&inj)
	return fires
}

// DetectorAlarms counts the iterations the static-bounds detector alarms on
// the golden run.
func (g *Golden) DetectorAlarms() int {
	n := 0
	for _, a := range g.alarms {
		if a {
			n++
		}
	}
	return n
}
