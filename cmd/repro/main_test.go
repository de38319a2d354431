package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/record"
	"repro/internal/workloads"
)

// runRepro runs the binary in-process with args.
func runRepro(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	code = run(context.Background(), args, &out, &errs)
	return code, out.String(), errs.String()
}

// helpFlags reads a FlagSet.PrintDefaults listing into "name type" →
// default; a flag without a "(default …)" suffix maps to "".
func helpFlags(help string) map[string]string {
	flags := map[string]string{}
	def := regexp.MustCompile(`\(default (.*)\)$`)
	var cur string
	for _, line := range strings.Split(help, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ := strings.Cut(rest, "\t") // one-letter bools keep their usage on this line
			cur = strings.TrimSpace(name)
			flags[cur] = ""
		}
		if m := def.FindStringSubmatch(line); m != nil && cur != "" {
			flags[cur] = m[1]
		}
	}
	return flags
}

// TestSubcommandsKeepTheReplacedBinariesFlags: each subcommand's -h lists
// exactly the flags of the binary it replaces (testdata/parent-help holds
// that binary's -h output), with the same name, type and default.
func TestSubcommandsKeepTheReplacedBinariesFlags(t *testing.T) {
	for _, c := range commands {
		want, err := os.ReadFile(filepath.Join("testdata", "parent-help", c.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		code, _, help := runRepro(t, c.name, "-h")
		if code != 0 {
			t.Fatalf("%s -h: exit %d", c.name, code)
		}
		got, parent := helpFlags(help), helpFlags(string(want))
		if len(parent) == 0 {
			t.Fatalf("%s: no flags in the parent's help", c.name)
		}
		for f, d := range parent {
			if g, ok := got[f]; !ok || g != d {
				t.Errorf("repro %s: flag %q default %q, want present with default %q", c.name, f, g, d)
			}
		}
		for f := range got {
			if _, ok := parent[f]; !ok {
				t.Errorf("repro %s: flag %q is new", c.name, f)
			}
		}
	}
}

func TestUnknownSubcommandListsTheValidOnes(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}} {
		code, _, stderr := runRepro(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		for _, c := range commands {
			if !strings.Contains(stderr, "  "+c.name+" ") {
				t.Errorf("%v: usage does not list %s:\n%s", args, c.name, stderr)
			}
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"report"},
		{"campaign", "-no-such-flag"},
		{"ffstats", "-validate", "many"},
	} {
		if code, _, stderr := runRepro(t, args...); code != 2 || stderr == "" {
			t.Errorf("%v: exit %d, stderr %q; want 2 and a message", args, code, stderr)
		}
	}
}

func TestFFStatsListsTheWorkloads(t *testing.T) {
	code, stdout, _ := runRepro(t, "ffstats", "-workloads")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	zoo := workloads.All()
	if len(zoo) != 10 || len(lines) != 1+len(zoo) {
		t.Fatalf("%d workloads in %d lines, want 10 under a header:\n%s", len(zoo), len(lines), stdout)
	}
	for i, w := range zoo {
		if !strings.HasPrefix(lines[1+i], w.Name+" ") {
			t.Errorf("line %d = %q, want workload %s", 1+i, lines[1+i], w.Name)
		}
	}
}

// TestNamesInTheHelpParse: every FF kind and pass the faultsim help names
// resolves, in any case, through the journal's resolvers — the one name
// table — and an unknown name fails its subcommand with exit 1, naming the
// input.
func TestNamesInTheHelpParse(t *testing.T) {
	_, _, help := runRepro(t, "faultsim", "-h")
	kindsHelp := regexp.MustCompile(`FF kind: (.*) \(default`).FindStringSubmatch(help)
	passHelp := regexp.MustCompile(`\t(forward \| .*) \(default`).FindStringSubmatch(help)
	if kindsHelp == nil || passHelp == nil {
		t.Fatalf("faultsim -h names no kinds or passes:\n%s", help)
	}
	var kinds []string
	for _, k := range strings.Split(kindsHelp[1], ", ") {
		if k == "g1..g10" {
			kinds = append(kinds, "g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8", "g9", "g10")
		} else {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) != len(accel.Kinds()) {
		t.Errorf("help names %d FF kinds, the accelerator has %d", len(kinds), len(accel.Kinds()))
	}
	passes := strings.Split(passHelp[1], " | ")
	for _, list := range []string{strings.Join(kinds, ","), strings.ToUpper(strings.Join(kinds, ", "))} {
		if got, err := parseNames(list, record.KindFromName); err != nil || len(got) != len(kinds) {
			t.Errorf("kinds %q: %v, %v", list, got, err)
		}
	}
	for _, list := range []string{strings.Join(passes, ","), strings.ToUpper(strings.Join(passes, ", "))} {
		if got, err := parseNames(list, record.PassFromName); err != nil || len(got) != 3 {
			t.Errorf("passes %q: %v, %v", list, got, err)
		}
	}

	for _, args := range [][]string{
		{"faultsim", "-kind", "g11"},
		{"faultsim", "-pass", "sideways"},
		{"outcomesearch", "-kinds", "g1,g11"},
		{"outcomesearch", "-passes", "forward,sideways"},
	} {
		bad := args[2][strings.LastIndex(args[2], ",")+1:]
		if code, _, stderr := runRepro(t, args...); code != 1 || !strings.Contains(stderr, `"`+bad+`"`) {
			t.Errorf("%v: exit %d, stderr %q; want 1 naming %q", args, code, stderr, bad)
		}
	}
}
