package experiment

import (
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/recovery"
)

// The two tables below classify every field of Config. A campaign's identity
// is what a journal header binds: Fingerprint plus EfficiencyBinding. A field
// that can change a record's bytes must move it, or a resume would silently
// mix incompatible records; a field that only steers execution must not, or
// journals would stop being portable across it. Each entry is a change to
// the field, applied to identityBase.

// recordBytesFields: the fields that determine record bytes.
var recordBytesFields = map[string]func(*Config){
	"Workload": func(c *Config) {
		w := *c.Workload
		w.Iters++
		c.Workload = &w
	},
	"Experiments":       func(c *Config) { c.Experiments++ },
	"Seed":              func(c *Config) { c.Seed++ },
	"HorizonMult":       func(c *Config) { c.HorizonMult = 3 },
	"InjectFrac":        func(c *Config) { c.InjectFrac = 0.5 },
	"BiasKinds":         func(c *Config) { c.BiasKinds = []accel.FFKind{accel.GlobalG1} },
	"BiasPasses":        func(c *Config) { c.BiasPasses = []fault.Pass{fault.Forward} },
	"DeviceFaults":      func(c *Config) { c.DeviceFaults = false },
	"DeviceFaultKinds":  func(c *Config) { c.DeviceFaultKinds = []fault.DeviceFaultKind{fault.DeviceCrash} },
	"Quarantine":        func(c *Config) { c.Quarantine = false },
	"Degraded":          func(c *Config) { c.Degraded = true },
	"Recovery":          func(c *Config) { c.Recovery = recovery.StrategyJIT },
	"Dedup":             func(c *Config) { c.Dedup = true },
	"EarlyExit":         func(c *Config) { c.EarlyExit = false },
	"EarlyExitStride":   func(c *Config) { c.EarlyExitStride = 3 },
	"ConvergedTail":     func(c *Config) { c.ConvergedTail = false },
	"ConvergedTol":      func(c *Config) { c.ConvergedTol = 0.5 },
	"ConvergedPatience": func(c *Config) { c.ConvergedPatience = 9 },
}

// executionOnlyFields: the fields records are byte-identical across
// (TestForkedCampaignEquivalence, TestCrossConfigResume,
// TestScrubWorkspacesEquivalence, train's device-parallel tests).
var executionOnlyFields = map[string]func(*Config){
	"Workers":           func(c *Config) { c.Workers = 7 },
	"SnapshotStride":    func(c *Config) { c.SnapshotStride = -1 },
	"SnapshotMemBudget": func(c *Config) { c.SnapshotMemBudget = 1 },
	"DeviceParallel":    func(c *Config) { c.DeviceParallel = true },
	"ScrubWorkspaces":   func(c *Config) { c.ScrubWorkspaces = true },
}

// identityBase turns on every gate behind which Fingerprint and
// EfficiencyBinding read further fields. Resume would refuse the combination;
// nothing here runs it.
func identityBase(t *testing.T) Config {
	cfg := resumeTestConfig(t)
	cfg.DeviceFaults = true
	cfg.Quarantine = true
	cfg.EarlyExit = true
	cfg.ConvergedTail = true
	return cfg
}

func TestConfigFieldsClassified(t *testing.T) {
	identity := func(c Config) string { return c.Fingerprint() + "|" + c.EfficiencyBinding() }
	base := identityBase(t)
	want := identity(base)

	typ := reflect.TypeOf(Config{})
	fields := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		change, semantic := recordBytesFields[name]
		stay, exec := executionOnlyFields[name]
		switch {
		case semantic == exec:
			t.Errorf("Config.%s must be listed in exactly one of recordBytesFields and executionOnlyFields", name)
		case semantic:
			c := base
			change(&c)
			if identity(c) == want {
				t.Errorf("Config.%s determines record bytes but neither Fingerprint nor EfficiencyBinding covers it", name)
			}
		default:
			c := base
			stay(&c)
			if identity(c) != want {
				t.Errorf("Config.%s only steers execution but changes the campaign identity", name)
			}
		}
	}
	for _, table := range []map[string]func(*Config){recordBytesFields, executionOnlyFields} {
		for name := range table {
			if !fields[name] {
				t.Errorf("table entry %q names no field of Config", name)
			}
		}
	}
}
