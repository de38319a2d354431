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

// SampleFaults returns the campaign's sampled records: each experiment's
// injection, or its device fault in a device-fault campaign, over the record
// it starts from.
func (g *Golden) SampleFaults(cfg Config) []Record {
	return g.sample(cfg.withDefaults())
}

// Sampled is the record a campaign of cfg starts an experiment with the given
// fault from: an injection, or a device fault when df has a kind.
func Sampled(cfg Config, inj fault.Injection, df fault.DeviceFault) Record {
	rec := cfg.withDefaults().blankRecord()
	rec.Injection, rec.DeviceFault = inj, df
	return rec
}

// ByConstruction is what Resume's dispatcher does with one pending sampled
// record: the predicate and, where it holds, the synthesized record.
func (g *Golden) ByConstruction(cfg Config, rec Record, p comm.Policy) (Record, bool) {
	cfg = cfg.withDefaults()
	proof, ok := g.provablyGolden(cfg, &rec, p)
	if !ok {
		return Record{}, false
	}
	return g.goldenRecord(rec, proof), true
}

// NewPooledEngine builds an engine the way a campaign worker does.
func (g *Golden) NewPooledEngine(cfg Config) *train.Engine {
	return g.w.NewEngine(rng.Seed{State: uint64(cfg.Seed), Stream: 77})
}

// Execute runs one sampled record on a pooled engine: the executors Resume
// dispatches everything the predicate does not hold for to.
func (g *Golden) Execute(e *train.Engine, cfg Config, rec Record) Record {
	cfg = cfg.withDefaults()
	if cfg.DeviceFaults {
		rec, _ = runDeviceFault(g, e, rec, cfg)
		return rec
	}
	rec, _ = runOne(g, e, rec, cfg)
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

// Shared is the read-only 32-experiment campaign the aggregate tests share.
var Shared = shared

// DeviceFaultConfig and ShardTestConfig are the small device-fault and
// sharded campaigns of this package's tests.
var (
	DeviceFaultConfig = deviceFaultConfig
	ShardTestConfig   = shardTestConfig
)
