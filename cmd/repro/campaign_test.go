package main

import (
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
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
			`{"workload":"resnet","experiments":24,"seed":1,"dedup":true,"early_exit":true}`},
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
// as a result, a silently ignored length) are refused by
// CampaignSpec.Config, which main calls before any golden run.
func TestBadFlagsFailInTheSpecValidator(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-1"}, "experiments > 0"},
		{[]string{"-n", "0"}, "experiments > 0"},
		{[]string{"-iters", "-3"}, "iters must be >= 0"},
		{[]string{"-device-faults", "all", "-dedup"}, "dedup applies only to FF campaigns"},
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
// Outcomes table as the exhaustive campaign, plus the equivalence line that
// shows the fast paths fired.
func TestFastPathsReportTheExhaustiveTally(t *testing.T) {
	args := []string{"campaign", "-workload", "resnet", "-n", "24", "-iters", "12", "-seed", "6"}
	_, exhaustive, _ := runRepro(t, args...)
	code, fast, stderr := runRepro(t, append(args, "-dedup", "-early-exit")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if a, b := table(exhaustive, "Outcomes"), table(fast, "Outcomes"); a == "" || a != b {
		t.Errorf("fast-path tally differs from the exhaustive one:\n%s\nvs\n%s", b, a)
	}
	if !strings.Contains(fast, "\n  equivalence: ") {
		t.Errorf("no equivalence line:\n%s", fast)
	}
}

// TestJITRecoveryCampaign: under -recovery jit a crashed device never hangs
// the group, the journal carries the recovery fields, and the report
// carries the strategy's recovery account.
func TestJITRecoveryCampaign(t *testing.T) {
	j := filepath.Join(t.TempDir(), "jit.jsonl")
	code, stdout, stderr := runRepro(t, "campaign", "-workload", "resnet", "-n", "20", "-iters", "12", "-seed", "11",
		"-device-faults", "crash", "-recovery", "jit", "-journal", j)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	rows := table(stdout, "Recovery — strategy jit")
	if strings.Contains(stdout, "GroupHang") || !strings.Contains(rows, "| group hangs | 0/20 (0.0 %) |") ||
		!regexp.MustCompile(`\| JIT snapshots \| [1-9][0-9]* \|`).MatchString(rows) {
		t.Errorf("report has a GroupHang or no JIT recovery account:\n%s", stdout)
	}
	raw, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"record_schema":"campaign-record-v5"`, `"recovery_strategy":"jit"`, `"time_to_recover_iters":`, `"jit_snapshots":`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("journal lacks %s", want)
		}
	}
}

// TestDocsNameOnlyCampaignFlags is the flag-drift gate: every flag README.md,
// DESIGN.md and the verify skill's run recipe give on a `repro campaign`
// command line (continuation lines included), and every backticked `-flag`
// in their prose and tables, is a flag of `repro campaign` — except go's
// -race / -tags / -bench / -o / -h, faultsim's -inj / -out and campaignd's
// -addr.
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
		notOurs    = map[string]bool{"race": true, "tags": true, "bench": true, "o": true, "h": true,
			"inj": true, "out": true, "addr": true}
	)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
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

// TestDocsNameOnlyDeclaredIdentifiers is the identifier-drift gate: every
// backticked `pkg.Name` or `internal/pkg.Name` in README.md, DESIGN.md and
// the verify skill, pkg an internal/* package, is declared in that package (at top level, or as a
// method or field of one of its types), and every backticked `Type.Member`,
// Type a type declared in the module's non-test Go, is a field or method of
// it or of a struct it embeds. A chain whose head is neither (a variable, a
// file name) and a snake_case name (a metric or JSON key) are not read.
func TestDocsNameOnlyDeclaredIdentifiers(t *testing.T) {
	d := parseDecls(t, filepath.Join("..", "..", "repro.go"), filepath.Join("..", "..", "internal"), filepath.Join("..", "..", "cmd"))
	var (
		span  = regexp.MustCompile("`([^`\n]+)`")
		chain = regexp.MustCompile(`(?:^|[^\w./-])(?:internal/)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:[^\w/]|$)`)
		file  = regexp.MustCompile(`\.(go|s|md|json|jsonl|txt|sh|mod|csv)$`)
		key   = regexp.MustCompile(`^[a-z0-9]+(_[a-z0-9]+)+$`)
	)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range span.FindAllStringSubmatch(string(raw), -1) {
			for _, m := range chain.FindAllStringSubmatch(sp[1], -1) {
				if file.MatchString(m[1]) {
					continue
				}
				parts := strings.Split(m[1], ".")
				if key.MatchString(parts[1]) {
					continue
				}
				switch pkg, ok := d.pkgs[parts[0]]; {
				case ok:
					checked++
					if !pkg[parts[1]] && !d.memberOfPackage(parts[0], parts[1]) {
						t.Errorf("%s names `%s`: package %s declares no %s", doc, m[1], parts[0], parts[1])
					} else if len(parts) > 2 && d.types[parts[1]] != nil && !d.member(parts[0], parts[1], parts[2]) {
						t.Errorf("%s names `%s`: %s.%s has no member %s", doc, m[1], parts[0], parts[1], parts[2])
					}
				case d.types[parts[0]] != nil:
					checked++
					if !d.member("", parts[0], parts[1]) {
						t.Errorf("%s names `%s`: no type %s has a member %s", doc, m[1], parts[0], parts[1])
					}
				}
			}
		}
	}
	t.Logf("%d references checked", checked)
	if checked == 0 {
		t.Error("the docs name no identifier; the gate reads nothing")
	}
}

// decls is what the module's non-test Go declares: the top-level names of
// every internal/* package, and every named type's fields, methods and
// embedded types.
type decls struct {
	pkgs  map[string]map[string]bool
	types map[string][]*typeDecl
}

type typeDecl struct {
	pkg      string
	members  map[string]bool
	embedded [][2]string // package, type
}

// member reports whether a type named typ (in package pkg, or in any
// package when pkg is empty) has the field or method name, directly or
// promoted from an embedded type.
func (d *decls) member(pkg, typ, name string) bool {
	seen := map[[2]string]bool{}
	var find func(pkg, typ string) bool
	find = func(pkg, typ string) bool {
		for _, td := range d.types[typ] {
			if pkg != "" && td.pkg != pkg || seen[[2]string{td.pkg, typ}] {
				continue
			}
			seen[[2]string{td.pkg, typ}] = true
			if td.members[name] {
				return true
			}
			for _, e := range td.embedded {
				if find(e[0], e[1]) {
					return true
				}
			}
		}
		return false
	}
	return find(pkg, typ)
}

// memberOfPackage reports whether some type of package pkg has the field or
// method name.
func (d *decls) memberOfPackage(pkg, name string) bool {
	for _, tds := range d.types {
		for _, td := range tds {
			if td.pkg == pkg && td.members[name] {
				return true
			}
		}
	}
	return false
}

// parseDecls parses every non-test .go file under roots.
func parseDecls(t *testing.T, roots ...string) *decls {
	t.Helper()
	d := &decls{pkgs: map[string]map[string]bool{}, types: map[string][]*typeDecl{}}
	typeOf := map[[2]string]*typeDecl{}
	get := func(pkg, name string) *typeDecl {
		k := [2]string{pkg, name}
		if typeOf[k] == nil {
			typeOf[k] = &typeDecl{pkg: pkg, members: map[string]bool{}}
			d.types[name] = append(d.types[name], typeOf[k])
		}
		return typeOf[k]
	}
	// base strips pointers and type arguments off a type expression and
	// returns its package qualifier (pkg when unqualified) and name.
	var base func(pkg string, e ast.Expr) (string, string)
	base = func(pkg string, e ast.Expr) (string, string) {
		switch e := e.(type) {
		case *ast.StarExpr:
			return base(pkg, e.X)
		case *ast.IndexExpr:
			return base(pkg, e.X)
		case *ast.IndexListExpr:
			return base(pkg, e.X)
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok {
				return x.Name, e.Sel.Name
			}
		case *ast.Ident:
			return pkg, e.Name
		}
		return "", ""
	}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := f.Name.Name
			if strings.Contains(filepath.ToSlash(path), "/internal/") {
				if d.pkgs[pkg] == nil {
					d.pkgs[pkg] = map[string]bool{}
				}
			}
			top := d.pkgs[pkg]
			declare := func(name string) {
				if top != nil {
					top[name] = true
				}
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						declare(decl.Name.Name)
					} else if _, recv := base(pkg, decl.Recv.List[0].Type); recv != "" {
						get(pkg, recv).members[decl.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								declare(n.Name)
							}
						case *ast.TypeSpec:
							declare(spec.Name.Name)
							td := get(pkg, spec.Name.Name)
							var fields *ast.FieldList
							switch ty := spec.Type.(type) {
							case *ast.StructType:
								fields = ty.Fields
							case *ast.InterfaceType:
								fields = ty.Methods
							}
							if fields == nil {
								continue
							}
							for _, fl := range fields.List {
								for _, n := range fl.Names {
									td.members[n.Name] = true
								}
								if len(fl.Names) == 0 {
									epkg, ename := base(pkg, fl.Type)
									td.members[ename] = true
									td.embedded = append(td.embedded, [2]string{epkg, ename})
								}
							}
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestReportDerivesTheCampaignRows: `repro report` reads a `-json` archive
// into the rows `repro campaign` prints for the same campaign — Table 4,
// Sec 4.3.1 and detection, row for row. The campaign's latent and
// short-term outcomes carry overflowed (+Inf) condition values in two
// outcome classes, which Table 4 ranges per class and clamps to the float32
// maximum.
func TestReportDerivesTheCampaignRows(t *testing.T) {
	archive := filepath.Join(t.TempDir(), "run.json")
	code, campaign, stderr := runRepro(t, "campaign", "-workload", "resnet_sgd", "-n", "64", "-iters", "20", "-seed", "3", "-json", archive)
	if code != 0 {
		t.Fatalf("campaign: exit %d: %s", code, stderr)
	}
	raw, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"+Inf"`) {
		t.Fatal("the archive holds no overflowed condition value; the clamp is not exercised")
	}
	code, report, stderr := runRepro(t, "report", "-in", archive)
	if code != 0 {
		t.Fatalf("report: exit %d: %s", code, stderr)
	}
	for _, title := range []string{"Table 4", "Sec 4.3.1", "Detection"} {
		want, got := table(campaign, title), table(report, title)
		if want == "" || got != want {
			t.Errorf("%s rows: report\n%s\ncampaign\n%s", title, got, want)
		}
	}
	if !strings.Contains(table(report, "Table 4"), "| LowTestAccuracy \\|mvar\\| | 3.4e+38-3.4e+38 (n=1) |") {
		t.Errorf("Table 4 does not range LowTestAccuracy on its own, clamped:\n%s", table(report, "Table 4"))
	}
}

// TestCampaignPrintsTheReportDocument: `repro campaign` prints, byte for
// byte, the document `repro report` writes from the campaign's -json
// archive, with one latency row when an alarm fired — for an FF campaign
// and a JIT-recovered device-fault campaign, whose crashes raise no alarm.
func TestCampaignPrintsTheReportDocument(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		latencies int
	}{
		{[]string{"-workload", "resnet_sgd", "-n", "64", "-iters", "20", "-seed", "3"}, 1},
		{[]string{"-workload", "resnet", "-n", "20", "-iters", "12", "-seed", "11", "-device-faults", "crash", "-recovery", "jit"}, 0},
	} {
		archive := filepath.Join(t.TempDir(), "run.json")
		code, campaign, stderr := runRepro(t, append(append([]string{"campaign"}, tc.args...), "-json", archive)...)
		if code != 0 {
			t.Fatalf("%v: campaign exit %d: %s", tc.args, code, stderr)
		}
		code, report, stderr := runRepro(t, "report", "-in", archive)
		if code != 0 {
			t.Fatalf("%v: report exit %d: %s", tc.args, code, stderr)
		}
		if !strings.HasPrefix(report, "# Fault-injection campaign: ") || !strings.Contains(campaign, report) {
			t.Errorf("%v: campaign output does not hold the report\n%s\ncampaign:\n%s", tc.args, report, campaign)
		}
		if n := strings.Count(campaign, "latency p50"); n != tc.latencies {
			t.Errorf("%v: %d latency rows, want %d:\n%s", tc.args, n, tc.latencies, campaign)
		}
	}
}

// table returns the rows of the Markdown table under the first heading
// that starts with title.
func table(out, title string) string {
	_, rest, ok := strings.Cut(out, "\n## "+title)
	if !ok {
		return ""
	}
	var rows []string
	for _, line := range strings.Split(rest, "\n")[1:] {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		} else if len(rows) > 0 {
			break
		}
	}
	return strings.Join(rows, "\n")
}
