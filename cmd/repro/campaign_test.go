package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
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

// TestCampaignRefusesBadFlagsBeforeRunning: a flag the spec validator
// refuses and the flag combinations no single journal or report can hold
// exit 1 with a message, before any golden run.
func TestCampaignRefusesBadFlagsBeforeRunning(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-1"}, "experiments > 0"},
		{[]string{"-worker", "http://127.0.0.1:1", "-journal", "j.jsonl"}, "-worker runs shards"},
		{[]string{"-worker", "http://127.0.0.1:1", "-json", "c.json"}, "-worker runs shards"},
		{[]string{"-journal", "j.jsonl", "-all"}, "cannot be combined with -all"},
		{[]string{"-device-faults", "crash", "-recovery", "all", "-json", "c.json"}, "-recovery all replays"},
	} {
		code, stdout, stderr := runRepro(t, append([]string{"campaign"}, tc.args...)...)
		if code != 1 || !strings.HasPrefix(stderr, "campaign: ") || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 1 and %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// TestResumeUnderAChangedFlagNamesTheField: a journal refuses a resume
// whose spec differs, naming the field that moved.
func TestResumeUnderAChangedFlagNamesTheField(t *testing.T) {
	j := filepath.Join(t.TempDir(), "run.jsonl")
	args := []string{"campaign", "-workload", "resnet", "-n", "8", "-iters", "12", "-seed", "5", "-journal", j}
	if code, _, stderr := runRepro(t, args...); code != 0 {
		t.Fatalf("journaled run: exit %d: %s", code, stderr)
	}
	code, _, stderr := runRepro(t, append(args, "-resume", "-early-exit")...)
	if code != 1 || !strings.Contains(stderr, "early_exit: journal=false, run=true") {
		t.Fatalf("resume under -early-exit: exit %d, stderr %q; want 1 naming early_exit", code, stderr)
	}
}

// TestFastPathsReportTheExhaustiveTally: -dedup -early-exit print the same
// outcome tally as the exhaustive campaign, plus the equivalence line that
// shows the fast paths fired.
func TestFastPathsReportTheExhaustiveTally(t *testing.T) {
	tally := regexp.MustCompile(`(?s)\nworkload .*unexpected-total[^\n]*\n`)
	args := []string{"campaign", "-workload", "resnet", "-n", "24", "-iters", "12", "-seed", "6"}
	_, exhaustive, _ := runRepro(t, args...)
	code, fast, stderr := runRepro(t, append(args, "-dedup", "-early-exit")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if a, b := tally.FindString(exhaustive), tally.FindString(fast); a == "" || a != b {
		t.Errorf("fast-path tally differs from the exhaustive one:\n%s\nvs\n%s", b, a)
	}
	if !strings.Contains(fast, "  equivalence: ") {
		t.Errorf("no equivalence line:\n%s", fast)
	}
}

// TestJITRecoveryCampaign: under -recovery jit a crashed device never hangs
// the group, the journal carries the v4 recovery fields, and the report
// prints the strategy's summary.
func TestJITRecoveryCampaign(t *testing.T) {
	j := filepath.Join(t.TempDir(), "jit.jsonl")
	code, stdout, stderr := runRepro(t, "campaign", "-workload", "resnet", "-n", "20", "-iters", "12", "-seed", "11",
		"-device-faults", "crash", "-recovery", "jit", "-journal", j)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if strings.Contains(stdout, "GroupHang") || !strings.Contains(stdout, "recovery [jit]:") {
		t.Errorf("report has a GroupHang or no JIT summary:\n%s", stdout)
	}
	raw, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"record_schema":"campaign-record-v4"`, `"recovery_strategy":"jit"`, `"time_to_recover_iters":`, `"jit_snapshots":`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("journal lacks %s", want)
		}
	}
}

// TestDocsNameOnlyCampaignFlags is the flag-drift gate: every flag README.md
// and DESIGN.md give on a `repro campaign` command line (continuation lines
// included), and every backticked `-flag` in their prose and tables, is a
// flag of `repro campaign` — except go's -race / -tags and faultsim's -inj /
// -out.
func TestDocsNameOnlyCampaignFlags(t *testing.T) {
	_, _, help := runRepro(t, "campaign", "-h")
	have := map[string]bool{}
	for f := range helpFlags(help) {
		name, _, _ := strings.Cut(f, " ")
		have[name] = true
	}
	var (
		backticked = regexp.MustCompile("(?:^|[ (|/])`-([a-z][a-z-]*)")
		command    = regexp.MustCompile("(?:^|[ /`\"])campaign +-")
		flagWord   = regexp.MustCompile(`^-([a-z][a-z-]*)`)
		pipe       = regexp.MustCompile(` [|>]`)
		notOurs    = map[string]bool{"race": true, "tags": true, "inj": true, "out": true}
	)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		named := map[string]bool{}
		cont := false
		for _, line := range strings.Split(string(raw), "\n") {
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				if !notOurs[m[1]] {
					named[m[1]] = true
				}
			}
			s := ""
			if cont {
				s = line
			} else if loc := command.FindStringIndex(line); loc != nil {
				s = line[loc[1]-1:]
			}
			cont = s != "" && strings.HasSuffix(line, `\`)
			if loc := pipe.FindStringIndex(s); loc != nil {
				s = s[:loc[0]]
			}
			for _, w := range strings.Fields(s) {
				if m := flagWord.FindStringSubmatch(w); m != nil {
					named[m[1]] = true
				}
			}
		}
		if len(named) == 0 {
			t.Errorf("%s names no campaign flag; the gate reads nothing", doc)
		}
		for f := range named {
			if !have[f] {
				t.Errorf("%s names -%s, which repro campaign does not have", doc, f)
			}
		}
	}
}
