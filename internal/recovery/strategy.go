package recovery

import "fmt"

// Strategy selects the recovery pipeline a GroupGuard runs when a device
// fault is detected. The four mitigated strategies reproduce the
// system-level recovery axis the paper's fleet data motivates (Sec 5.2)
// plus the two post-failure techniques that dominate real fleets:
//
//   - StrategyReexec: the paper's baseline — quarantine the faulty device,
//     roll back two iterations via the ReExecutor ring on corruption, and
//     hot-rejoin repaired devices from a root peer. Periodic snapshot cost
//     every iteration, two-iteration rollback on detection.
//   - StrategyJIT: just-in-time checkpointing (open-jitc): no periodic
//     snapshot at all. On quarantine, image a healthy peer's replica state
//     (weights + BN statistics) into the lost rank — data-parallel ranks
//     hold identical weights, so the donor's state IS the lost rank's
//     checkpoint — and re-admit the rank with the current weights when its
//     fault repairs. Zero steady-state cost, zero rollback.
//   - StrategyElastic: elastic group resize (Oobleck/ReCycle): on
//     quarantine, re-partition the global batch across the surviving
//     devices (per-device batch grows; gradient averaging stays exact over
//     the new partition via shard-weighted AllReduce) and re-admit repaired
//     devices with a re-partition back to full strength.
//   - StrategyDegraded: quarantine-only — keep training on the shrunken
//     group at reduced effective batch, never re-admit. (Corrupt-quarantine
//     rollback is retained; crash quarantines need none.)
//
// StrategyNone is the zero value and means "unmitigated": the caller runs
// the engine directly without a GroupGuard, so a crash hangs the
// collective — the paper's do-nothing baseline.
type Strategy int

const (
	StrategyNone Strategy = iota
	StrategyReexec
	StrategyJIT
	StrategyElastic
	StrategyDegraded
)

// strategyNames maps each Strategy to its flag/journal spelling.
var strategyNames = map[Strategy]string{
	StrategyNone:     "none",
	StrategyReexec:   "reexec",
	StrategyJIT:      "jit",
	StrategyElastic:  "elastic",
	StrategyDegraded: "degraded",
}

// Strategies lists the mitigated strategies in head-to-head display order.
var Strategies = []Strategy{StrategyReexec, StrategyJIT, StrategyElastic, StrategyDegraded}

// String returns the flag/journal spelling of s.
func (s Strategy) String() string {
	if name, ok := strategyNames[s]; ok {
		return name
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// StrategyByName parses a flag/journal spelling back into a Strategy.
func StrategyByName(name string) (Strategy, bool) {
	for s, n := range strategyNames {
		if n == name {
			return s, true
		}
	}
	return StrategyNone, false
}
