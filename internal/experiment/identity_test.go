package experiment_test

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/record"
	"repro/internal/recovery"
	"repro/internal/workloads"
)

// The two tables below classify every field of Config. A campaign's identity
// is its Spec, which Fingerprint hashes and the journal header embeds. A
// field that can change a record's bytes must move it, or a resume would
// silently mix incompatible records; a field that only steers execution
// must not, or journals would stop being portable across it.

// move is one change to a Config, applied to identityBase, and the Spec
// fields (by JSON name) it must move — those and no others.
type move struct {
	change func(*experiment.Config)
	spec   []string
}

func withWorkload(change func(*workloads.Workload)) func(*experiment.Config) {
	return func(c *experiment.Config) {
		w := *c.Workload
		change(&w)
		c.Workload = &w
	}
}

// recordBytesFields: the fields that determine record bytes.
var recordBytesFields = map[string][]move{
	"Workload": {
		{withWorkload(func(w *workloads.Workload) { w.Name = "other" }), []string{"workload"}},
		{withWorkload(func(w *workloads.Workload) { w.Iters++ }), []string{"iters"}},
		{withWorkload(func(w *workloads.Workload) { w.Devices++ }), []string{"devices"}},
		{withWorkload(func(w *workloads.Workload) { w.PerDeviceBatch++ }), []string{"per_device_batch"}},
	},
	"Experiments": {{func(c *experiment.Config) { c.Experiments++ }, []string{"experiments"}}},
	"Seed":        {{func(c *experiment.Config) { c.Seed++ }, []string{"seed"}}},
	"HorizonMult": {{func(c *experiment.Config) { c.HorizonMult = 3 }, []string{"horizon_mult"}}},
	"InjectFrac":  {{func(c *experiment.Config) { c.InjectFrac = 0.5 }, []string{"inject_frac"}}},
	"BiasKinds": {{func(c *experiment.Config) { c.BiasKinds = []accel.FFKind{accel.GlobalG1} },
		[]string{"bias_kinds"}}},
	// Switching a feature off takes its knobs out of the identity with it.
	"DeviceFaults": {{func(c *experiment.Config) { c.DeviceFaults = false },
		[]string{"fault", "device_fault_kinds", "recovery"}}},
	"DeviceFaultKinds": {{func(c *experiment.Config) { c.DeviceFaultKinds = []fault.DeviceFaultKind{fault.DeviceCrash} },
		[]string{"device_fault_kinds"}}},
	"Quarantine": {{func(c *experiment.Config) { c.Quarantine = false }, []string{"recovery"}}},
	"Recovery":   {{func(c *experiment.Config) { c.Recovery = recovery.StrategyJIT }, []string{"recovery"}}},
	"Dedup":      {{func(c *experiment.Config) { c.Dedup = true }, []string{"dedup"}}},
	"EarlyExit":  {{func(c *experiment.Config) { c.EarlyExit = false }, []string{"early_exit"}}},
}

// executionOnlyFields: the fields records are byte-identical across
// (TestForkedCampaignEquivalence, TestCrossConfigResume,
// TestScrubWorkspacesEquivalence). EarlyExitStride's one setting Resume
// accepts, 1, is the cadence it has unset.
var executionOnlyFields = map[string]func(*experiment.Config){
	"Workers":         func(c *experiment.Config) { c.Workers = 7 },
	"SnapshotStride":  func(c *experiment.Config) { c.SnapshotStride = -1 },
	"ScrubWorkspaces": func(c *experiment.Config) { c.ScrubWorkspaces = true },
	"EarlyExitStride": func(c *experiment.Config) { c.EarlyExitStride = 1 },
}

// identityBase turns on every gate behind which Spec reads further fields.
// Resume would refuse the combination; nothing here runs it.
func identityBase(t *testing.T) experiment.Config {
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	return experiment.Config{Workload: w, Experiments: 8, Seed: 3, HorizonMult: 2, InjectFrac: 0.8,
		DeviceFaults: true, Quarantine: true, EarlyExit: true}
}

// specFieldNames lists Spec's fields by JSON name, failing on one the
// canonical encoding would skip.
func specFieldNames(t *testing.T) []string {
	var names []string
	typ := reflect.TypeOf(experiment.Spec{})
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if !typ.Field(i).IsExported() || name == "" || name == "-" {
			t.Errorf("Spec.%s is outside the canonical encoding", typ.Field(i).Name)
		}
		names = append(names, name)
	}
	return names
}

// TestConfigFieldsClassified is the campaign-identity guard. Every Config
// field is classified; an execution-only field leaves Fingerprint alone; a
// semantic field changes it, and a journal written before the change is
// refused by OpenJournal with an error naming exactly the Spec fields the
// change moves. Every Spec field is reached that way and reaches the hash.
func TestConfigFieldsClassified(t *testing.T) {
	base := identityBase(t)
	want := base.Fingerprint()
	specNames := specFieldNames(t)
	path := filepath.Join(t.TempDir(), "base.jsonl")
	j, err := record.CreateJournal(path, base, "digest")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// resume reopens the base journal under c and returns the refusal, if
	// any, with the Spec fields it names.
	resume := func(c experiment.Config) (named []string, err error) {
		j, _, err := record.OpenJournal(path, c, "digest")
		if err == nil {
			return nil, j.Close()
		}
		for _, name := range specNames {
			if strings.Contains(err.Error(), " "+name+": journal=") {
				named = append(named, name)
			}
		}
		sort.Strings(named)
		return named, err
	}

	moved := map[string]bool{}
	typ := reflect.TypeOf(experiment.Config{})
	fields := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		moves, semantic := recordBytesFields[name]
		stay, exec := executionOnlyFields[name]
		switch {
		case semantic == exec:
			t.Errorf("Config.%s must be listed in exactly one of recordBytesFields and executionOnlyFields", name)
		case semantic:
			for _, m := range moves {
				c := base
				m.change(&c)
				if c.Fingerprint() == want {
					t.Errorf("Config.%s determines record bytes but Spec does not cover it", name)
				}
				wantNamed := append([]string(nil), m.spec...)
				sort.Strings(wantNamed)
				if got, err := resume(c); !reflect.DeepEqual(got, wantNamed) {
					t.Errorf("Config.%s changed: the journal refusal names %v, want %v (%v)", name, got, wantNamed, err)
				}
				for _, s := range m.spec {
					moved[s] = true
				}
			}
		default:
			c := base
			stay(&c)
			if c.Fingerprint() != want {
				t.Errorf("Config.%s only steers execution but changes the campaign identity", name)
			}
			if _, err := resume(c); err != nil {
				t.Errorf("Config.%s only steers execution but its journal is refused: %v", name, err)
			}
		}
	}
	for name := range recordBytesFields {
		if !fields[name] {
			t.Errorf("table entry %q names no field of Config", name)
		}
	}
	for name := range executionOnlyFields {
		if !fields[name] {
			t.Errorf("table entry %q names no field of Config", name)
		}
	}

	// Every Spec field is derived from some Config field, and a change to it
	// alone changes the bytes Fingerprint hashes.
	baseBytes, _ := json.Marshal(base.Spec())
	for i, name := range specNames {
		if !moved[name] {
			t.Errorf("no Config change in recordBytesFields moves Spec field %q", name)
		}
		s := base.Spec()
		f := reflect.ValueOf(&s).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Slice:
			f.Set(reflect.Append(f, reflect.ValueOf("x")))
		default:
			t.Fatalf("Spec.%s has kind %s; teach this test to change it", name, f.Kind())
		}
		if b, _ := json.Marshal(s); string(b) == string(baseBytes) {
			t.Errorf("Spec field %q does not reach the fingerprint", name)
		}
	}

	// Spec drops the knobs of a feature that is off, so two descriptions of
	// one campaign that differ only there share a fingerprint and a journal
	// header; and Quarantine is exactly "Recovery unset ⇒ reexec".
	plain := identityBase(t)
	plain.DeviceFaults, plain.Quarantine, plain.EarlyExit = false, false, false
	knobs := plain
	knobs.DeviceFaultKinds = []fault.DeviceFaultKind{fault.DeviceCrash}
	knobs.Quarantine = true
	knobs.Recovery = recovery.StrategyJIT
	if knobs.Fingerprint() != plain.Fingerprint() {
		t.Errorf("knobs of disabled features move the identity: %+v vs %+v", knobs.Spec(), plain.Spec())
	}

	df := identityBase(t)
	df.Quarantine, df.Recovery = true, recovery.StrategyNone
	reexec := identityBase(t)
	reexec.Quarantine, reexec.Recovery = false, recovery.StrategyReexec
	if df.Fingerprint() != reexec.Fingerprint() {
		t.Error("Quarantine with Recovery unset is not the reexec campaign")
	}
	jit := identityBase(t)
	jit.Quarantine, jit.Recovery = false, recovery.StrategyJIT
	if got := jit.Spec().Recovery; got != "jit" {
		t.Errorf("Recovery: jit without Quarantine resolves to %q", got)
	}
}
