package experiment

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/recovery"
	"repro/internal/telemetry"
)

// TestRecoveryStrategiesHeadToHead is the campaign-level proof of the
// strategy seam: one crash-only fault population, forked from a single
// shared golden reference (the golden cache is strategy-independent), runs
// unmitigated and under every recovery strategy. Unmitigated, every
// effective crash hangs the group; under each mitigated strategy, nothing
// hangs, and the per-record recovery fields are populated. ci.sh runs this
// under -race.
func TestRecoveryStrategiesHeadToHead(t *testing.T) {
	base := deviceFaultConfig(t)
	base.DeviceFaultKinds = []fault.DeviceFaultKind{fault.DeviceCrash}
	base.Quarantine = false

	g := PrepareGolden(base)

	cu := RunWithGolden(base, g)
	if cu.Tally.Counts[outcome.GroupHang] == 0 {
		t.Fatal("unmitigated crash-only campaign produced no group hangs")
	}
	for i := range cu.Records {
		r := &cu.Records[i]
		if r.RecoveryStrategy != recovery.StrategyNone.String() || r.TimeToRecoverIters != -1 {
			t.Fatalf("unmitigated record %d carries recovery state: %q ttr=%d",
				i, r.RecoveryStrategy, r.TimeToRecoverIters)
		}
	}

	for _, s := range recovery.Strategies {
		t.Run(s.String(), func(t *testing.T) {
			cfg := base
			cfg.Recovery = s // alone selects the strategy; Quarantine stays off
			c := RunWithGolden(cfg, g)
			if n := c.Tally.Counts[outcome.GroupHang]; n != 0 {
				t.Fatalf("strategy %s still hung %d experiments", s, n)
			}
			quarantined, recovered := 0, 0
			var sum telemetry.Counts // the mitigation counts, summed over the records
			for i := range c.Records {
				r := &c.Records[i]
				sum.JITSnapshots, sum.Resizes, sum.Readmits = sum.JITSnapshots+r.JITSnapshots, sum.Resizes+r.Resizes, sum.Readmits+r.Readmits
				sum.Quarantines, sum.Rejoins = sum.Quarantines+r.Quarantines, sum.Rejoins+r.Rejoins
				sum.DegradedIters, sum.CommRetries = sum.DegradedIters+r.DegradedIters, sum.CommRetries+r.CommRetries
				if r.RecoveryStrategy != s.String() {
					t.Fatalf("record %d tagged %q, want %q", i, r.RecoveryStrategy, s)
				}
				if r.Quarantines > 0 {
					quarantined++
				}
				if r.TimeToRecoverIters >= 0 {
					recovered++
					if r.QuarantineIter < 0 {
						t.Fatalf("record %d recovered (ttr=%d) without a quarantine iter", i, r.TimeToRecoverIters)
					}
				}
				switch s {
				case recovery.StrategyJIT:
					if r.Quarantines > 0 && r.JITSnapshots == 0 {
						t.Fatalf("jit record %d quarantined without a snapshot", i)
					}
					if r.Resizes != 0 {
						t.Fatalf("jit record %d counted %d resizes", i, r.Resizes)
					}
				case recovery.StrategyElastic:
					if r.Quarantines > 0 && r.Resizes == 0 {
						t.Fatalf("elastic record %d quarantined without a resize", i)
					}
					if r.JITSnapshots != 0 {
						t.Fatalf("elastic record %d counted %d jit snapshots", i, r.JITSnapshots)
					}
				case recovery.StrategyDegraded:
					if r.TimeToRecoverIters >= 0 {
						t.Fatalf("degraded record %d recovered to full strength (ttr=%d)", i, r.TimeToRecoverIters)
					}
				}
			}
			if quarantined == 0 {
				t.Fatalf("strategy %s quarantined nothing", s)
			}
			if c.Quarantines != sum.Quarantines || c.Rejoins != sum.Rejoins || c.DegradedIters != sum.DegradedIters ||
				c.CommRetries != sum.CommRetries || c.JITSnapshots != sum.JITSnapshots || c.Resizes != sum.Resizes || c.Readmits != sum.Readmits {
				t.Fatalf("ledger counts %+v, records sum to %+v", c.Counts, sum)
			}
			rs := c.RecoveryStats()
			if rs.Strategy != s.String() || rs.Records != cfg.Experiments || rs.Recovered != recovered ||
				rs.Quarantines != sum.Quarantines || rs.Rejoins != sum.Rejoins || rs.DegradedIters != sum.DegradedIters ||
				rs.CommRetries != sum.CommRetries || rs.JITSnapshots != sum.JITSnapshots || rs.Resizes != sum.Resizes || rs.Readmits != sum.Readmits {
				t.Fatalf("RecoveryStats %+v inconsistent with records (recovered %d, sums %+v)", rs, recovered, sum)
			}
			if (s == recovery.StrategyJIT || s == recovery.StrategyElastic) && recovered == 0 {
				t.Fatalf("strategy %s re-admitted nothing across the population", s)
			}
		})
	}
}

// TestRecoveryCampaignDeterministic: the JIT and elastic campaign flavors
// keep the exactness contract — Records and Tally byte-identical to the
// cold-start campaign across worker counts and snapshot strides, like every
// other campaign flavor. ci.sh runs this under -race, covering the background
// JIT restore and elastic re-partition under the pooled parallel runner.
func TestRecoveryCampaignDeterministic(t *testing.T) {
	for _, s := range []recovery.Strategy{recovery.StrategyJIT, recovery.StrategyElastic} {
		t.Run(s.String(), func(t *testing.T) {
			base := deviceFaultConfig(t)
			base.DeviceFaultKinds = []fault.DeviceFaultKind{fault.DeviceCrash}
			base.Recovery = s

			cold := base
			cold.SnapshotStride = -1
			cold.Workers = 1
			want := Run(cold)

			warm := base
			warm.SnapshotStride = 5
			warm.Workers = 3
			got := Run(warm)
			assertCampaignsIdentical(t, s.String(), want, got)
		})
	}
}
