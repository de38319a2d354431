package experiment

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/recovery"
	"repro/internal/workloads"
)

func deviceFaultConfig(t *testing.T) Config {
	t.Helper()
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 20 // shrink for test speed; mechanics are unchanged
	return Config{
		Workload: w, Experiments: 10, Seed: 5,
		HorizonMult: 2, InjectFrac: 0.8,
		DeviceFaults: true, Quarantine: true,
	}
}

// TestDeviceFaultCampaignDeterministic is the exactness proof for the
// system-level campaign flavor: a device-fault campaign with quarantine
// mitigation produces byte-identical Records and Tally to the cold-start
// campaign across worker counts and snapshot strides. ci.sh runs this under
// -race, so the pooled group-mitigation path can never silently diverge.
func TestDeviceFaultCampaignDeterministic(t *testing.T) {
	base := deviceFaultConfig(t)

	cold := base
	cold.SnapshotStride = -1
	cold.Workers = 1
	want := Run(cold)

	cases := []struct {
		label   string
		stride  int
		workers int
	}{
		{"stride1-1worker", 1, 1},
		{"stride5-3workers", 5, 3},
		{"auto-2workers", 0, 2},
		{"stride5-2workers", 5, 2},
	}
	for _, tc := range cases {
		cfg := base
		cfg.SnapshotStride = tc.stride
		cfg.Workers = tc.workers
		got := Run(cfg)
		assertCampaignsIdentical(t, tc.label, want, got)
	}
}

// TestDeviceFaultMitigationPreventsHangs contrasts the two campaign modes
// on a crash-only fault population: unmitigated, every effective crash
// hangs the synchronous group; with quarantine, no experiment hangs — the
// crashed device is excluded after the timeout+retry budget and training
// completes degraded.
func TestDeviceFaultMitigationPreventsHangs(t *testing.T) {
	base := deviceFaultConfig(t)
	base.DeviceFaultKinds = []fault.DeviceFaultKind{fault.DeviceCrash}

	unmitigated := base
	unmitigated.Quarantine = false
	cu := Run(unmitigated)
	if cu.Tally.Counts[outcome.GroupHang] == 0 {
		t.Fatal("crash-only campaign without mitigation produced no group hangs")
	}

	mitigated := base
	mitigated.Recovery = recovery.StrategyDegraded
	cm := Run(mitigated)
	if n := cm.Tally.Counts[outcome.GroupHang]; n != 0 {
		t.Fatalf("mitigated campaign still hung %d times", n)
	}
	var quarantines int
	for i := range cm.Records {
		quarantines += cm.Records[i].Quarantines
		if cm.Records[i].CommRetries == 0 && cm.Records[i].Quarantines > 0 {
			t.Fatalf("record %d: quarantine without any retry attempts", i)
		}
	}
	if quarantines == 0 {
		t.Fatal("mitigated crash campaign quarantined nothing")
	}
}

// TestDeviceFaultResumeRejectsForeignPrior: a prior record whose device
// fault does not match the campaign's deterministic sampling is rejected
// loudly instead of being adopted.
func TestDeviceFaultResumeRejectsForeignPrior(t *testing.T) {
	cfg := deviceFaultConfig(t)
	c := Run(cfg)
	bad := c.Records[0]
	bad.DeviceFault.Device++
	_, err := Resume(cfg, RunOptions{Prior: map[int]Record{0: bad}})
	if err == nil || !strings.Contains(err.Error(), "device fault") {
		t.Fatalf("foreign device-fault prior not rejected: %v", err)
	}
}

// TestDeviceFaultKindsRefuseNone: a device-fault campaign samples real
// device faults only. A DeviceFaultNone in the kind list would write records
// a journal cannot tell from FF records, so Resume refuses it before running.
func TestDeviceFaultKindsRefuseNone(t *testing.T) {
	cfg := deviceFaultConfig(t)
	cfg.Experiments = 2
	cfg.DeviceFaultKinds = []fault.DeviceFaultKind{fault.DeviceStraggler, fault.DeviceFaultNone}
	if _, err := Resume(cfg, RunOptions{}); err == nil || !strings.Contains(err.Error(), "DeviceFaultKinds") {
		t.Fatalf("a DeviceFaultNone kind was not refused: %v", err)
	}
}

// TestDeviceFaultReportRenders: the campaign report includes the group
// mitigation summary for device-fault campaigns.
func TestDeviceFaultReportRenders(t *testing.T) {
	cfg := deviceFaultConfig(t)
	c := Run(cfg)
	var sb strings.Builder
	c.Report(&sb)
	if !strings.Contains(sb.String(), "group mitigation:") {
		t.Fatalf("report missing mitigation summary:\n%s", sb.String())
	}
}
