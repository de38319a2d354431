package experiment

// Campaign identity. Every description of a campaign — `repro
// campaign`'s flags, dist.CampaignSpec, a Config literal — resolves to one Spec, and
// everything that must tell two campaigns apart reads that: Fingerprint
// hashes it, the journal header (internal/record) embeds it whole and
// reports a mismatch field by field.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
)

// Spec is a campaign's resolved identity: the values that determine its
// records bit for bit, defaults applied and knobs of disabled features
// dropped. It holds nothing that only steers execution (Workers, the
// snapshot cache, ScrubWorkspaces), so a journal written under one
// execution configuration resumes under any other (TestCrossConfigResume)
// and a merged distributed journal carries the same header as a local one.
// Spec is derived (Config.Spec), never set; TestConfigFieldsClassified
// fails on a Config field that is neither execution-only nor visible here.
type Spec struct {
	Workload       string  `json:"workload"`
	Iters          int     `json:"iters"`
	Devices        int     `json:"devices"`
	PerDeviceBatch int     `json:"per_device_batch"`
	Experiments    int     `json:"experiments"`
	Seed           int64   `json:"seed"`
	HorizonMult    float64 `json:"horizon_mult"`
	InjectFrac     float64 `json:"inject_frac"`
	// BiasKinds / BiasPasses are the importance-sampling lists, by name.
	BiasKinds  []string `json:"bias_kinds,omitempty"`
	BiasPasses []string `json:"bias_passes,omitempty"`
	// Fault is the campaign flavor: "ff" bit flips or "device" faults.
	Fault string `json:"fault"`
	// DeviceFaultKinds is the sampled kind list in sampling order (the full
	// list when Config leaves it empty) and Recovery the resolved strategy
	// ("none" = unmitigated); both are set for device-fault campaigns only.
	DeviceFaultKinds []string `json:"device_fault_kinds,omitempty"`
	Recovery         string   `json:"recovery,omitempty"`

	Dedup             bool    `json:"dedup,omitempty"`
	EarlyExit         bool    `json:"early_exit,omitempty"`
	EarlyExitStride   int     `json:"early_exit_stride,omitempty"`
	ConvergedTail     bool    `json:"converged_tail,omitempty"`
	ConvergedTol      float64 `json:"converged_tol,omitempty"`
	ConvergedPatience int     `json:"converged_patience,omitempty"`
}

// Spec resolves cfg to its identity. It is the only code that reads Config
// fields for identity.
func (cfg Config) Spec() Spec {
	cfg = cfg.withDefaults()
	s := Spec{
		Workload:       cfg.Workload.Name,
		Iters:          cfg.Workload.Iters,
		Devices:        cfg.Workload.Devices,
		PerDeviceBatch: cfg.Workload.PerDeviceBatch,
		Experiments:    cfg.Experiments,
		Seed:           cfg.Seed,
		HorizonMult:    cfg.HorizonMult,
		InjectFrac:     cfg.InjectFrac,
		BiasKinds:      names(cfg.BiasKinds),
		BiasPasses:     names(cfg.BiasPasses),
		Fault:          "ff",
		Dedup:          cfg.Dedup,
		EarlyExit:      cfg.EarlyExit,
		ConvergedTail:  cfg.ConvergedTail,
	}
	if cfg.DeviceFaults {
		s.Fault = "device"
		s.DeviceFaultKinds = names(cfg.deviceFaultKinds())
		s.Recovery = cfg.recoveryStrategy().String()
	}
	if cfg.EarlyExit {
		s.EarlyExitStride = cfg.EarlyExitStride
	}
	if cfg.ConvergedTail {
		s.ConvergedTol, s.ConvergedPatience = cfg.ConvergedTol, cfg.ConvergedPatience
	}
	return s
}

// names renders an enum list by name (nil for an empty list, so a Spec
// decoded from a journal header compares equal to a resolved one).
func names[T fmt.Stringer](xs []T) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x.String())
	}
	return out
}

// Fingerprint is the campaign identity as a short token: the first 128 bits
// of SHA-256 over the canonical JSON of cfg.Spec(). Distributed workers and
// their coordinator compare it to detect drifted binaries.
func (cfg Config) Fingerprint() string {
	b, err := json.Marshal(cfg.Spec())
	if err != nil {
		// Only a non-finite float can fail here, and every input surface
		// (dist.CampaignSpec.Config) rejects those.
		panic("experiment: campaign spec does not encode: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// WorkerCount is the campaign's worker-pool size: Workers, or GOMAXPROCS
// when unset.
func (cfg Config) WorkerCount() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}
