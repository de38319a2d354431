package main

import (
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/dist"
)

// parseFlags runs args through the campaign-shaping flags alone.
func parseFlags(t *testing.T, args ...string) dist.CampaignSpec {
	t.Helper()
	var spec dist.CampaignSpec
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	campaignFlags(fs, &spec)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %v: %v", args, err)
	}
	return spec
}

// TestFlagsDescribeTheSpecCampaign: a flag set and the JSON a client would
// POST to campaignd for the same campaign resolve to one identity, so the
// local journal and the merged distributed one are interchangeable.
func TestFlagsDescribeTheSpecCampaign(t *testing.T) {
	for _, tc := range []struct {
		args []string
		json string
	}{
		{nil, `{"workload":"resnet","experiments":100,"seed":1}`},
		{[]string{"-workload", "transformer", "-n", "24", "-seed", "9", "-iters", "12"},
			`{"workload":"transformer","experiments":24,"seed":9,"iters":12,"shard_size":5}`},
		{[]string{"-n", "24", "-dedup", "-early-exit"},
			`{"workload":"resnet","experiments":24,"seed":1,"dedup":true,"early_exit":true,"early_exit_stride":1}`},
		{[]string{"-n", "24", "-early-exit", "-early-exit-stride", "3"},
			`{"workload":"resnet","experiments":24,"seed":1,"early_exit":true,"early_exit_stride":3}`},
		{[]string{"-n", "24", "-converged-tail", "-converged-tol", "0.01", "-converged-patience", "7"},
			`{"workload":"resnet","experiments":24,"seed":1,"converged_tail":true,"converged_tol":0.01,"converged_patience":7}`},
		{[]string{"-n", "40", "-seed", "7", "-device-faults", "all"},
			`{"workload":"resnet","experiments":40,"seed":7,"device_faults":"link-sdc,stuck-at,straggler,crash"}`},
		{[]string{"-n", "40", "-seed", "7", "-device-faults", "all", "-recovery", "reexec"},
			`{"workload":"resnet","experiments":40,"seed":7,"device_faults":"all","recovery":"reexec"}`},
		{[]string{"-n", "20", "-seed", "11", "-device-faults", "crash", "-recovery", "jit"},
			`{"workload":"resnet","experiments":20,"seed":11,"device_faults":"crash","recovery":"jit"}`},
		{[]string{"-n", "20", "-device-faults", "all", "-recovery", "jit", "-early-exit"},
			`{"workload":"resnet","experiments":20,"seed":1,"device_faults":"all","recovery":"jit","early_exit":true}`},
	} {
		fromFlags, err := parseFlags(t, tc.args...).Config()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		var spec dist.CampaignSpec
		if err := json.Unmarshal([]byte(tc.json), &spec); err != nil {
			t.Fatal(err)
		}
		fromJSON, err := spec.Config()
		if err != nil {
			t.Fatalf("%s: %v", tc.json, err)
		}
		if a, b := fromFlags.Fingerprint(), fromJSON.Fingerprint(); a != b {
			t.Errorf("%v resolves to %+v,\n%s to %+v", tc.args, fromFlags.Spec(), tc.json, fromJSON.Spec())
		}
	}
}

// TestBadFlagsFailInTheSpecValidator: inputs the CLI's own validator used
// to let through (a panic after the golden run, an empty campaign reported
// as a result, a silently ignored length, an unchecked stride) are refused
// by CampaignSpec.Config, which main calls before any golden run.
func TestBadFlagsFailInTheSpecValidator(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-1"}, "experiments > 0"},
		{[]string{"-n", "0"}, "experiments > 0"},
		{[]string{"-iters", "-3"}, "iters must be >= 0"},
		{[]string{"-early-exit-stride", "-2"}, "early_exit_stride must be >= 1"},
		{[]string{"-device-faults", "all", "-dedup"}, "apply only to FF campaigns"},
		{[]string{"-device-faults", "all", "-converged-tail"}, "apply only to FF campaigns"},
	} {
		if _, err := parseFlags(t, tc.args...).Config(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
