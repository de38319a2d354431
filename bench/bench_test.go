package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/record"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndQuantile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	xs := []float64{9, 1, 5, 3}
	if got := median(xs); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if xs[0] != 9 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{2, 7, 4}); got != 4 {
		t.Errorf("odd median = %v, want 4", got)
	}
	for q, want := range map[float64]float64{0: 1, 1: 9, 0.25: 2.5, 0.99: 8.88} {
		if got := quantile(xs, q); !near(got, want) {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// statistic the benchmark's acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{8.14, 7.93, 6.76, 7.70, 7.80, 7.85, 7.19}, 7.19, 7.93},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4, 1, 3, 2, 5}, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Name: "a", StartNS: 10, EndNS: 40, Parent: 1},
		{ID: 3, Name: "overlaps a", StartNS: 30, EndNS: 60, Parent: 1},
		{ID: 4, Name: "sticks out", StartNS: 90, EndNS: 130, Parent: 1},
		{ID: 5, Name: "grandchild", StartNS: 15, EndNS: 20, Parent: 2},
		{ID: 6, Name: "orphan", StartNS: 0, EndNS: 7},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100) of the parent: 60 of 100.
	want := map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 40, 5: 5, 6: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

// smokeParams are a workload at test size: 4 experiments of 12 training
// iterations, one timed pass.
func smokeParams(t *testing.T, name string) params {
	t.Helper()
	def, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return params{def: def, seed: 1, population: 4, iters: 12, passes: 1, dir: t.TempDir()}
}

// The Sink decorator must pass records through unchanged: the journal a
// campaign writes through it is byte-identical to one written without.
func TestTracedSinkJournalBytes(t *testing.T) {
	write := func(rec *recorder) []byte {
		l := &local{p: smokeParams(t, "ff-resnet-fastpath")}
		defer l.dropJournal()
		if _, err := l.setup(); err != nil {
			t.Fatal(err)
		}
		if err := l.reference(); err != nil {
			t.Fatal(err)
		}
		res, err := l.pass(rec)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.completed != 4 {
			t.Fatalf("pass completed %d, failed %d", res.completed, res.failed)
		}
		raw, err := os.ReadFile(res.journal)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	rec := newRecorder()
	bare, traced := write(nil), write(rec)
	if !bytes.Equal(bare, traced) {
		t.Errorf("journal through the traced sink differs:\n%s\nvs\n%s", traced, bare)
	}
	if got := len(rec.named("record.append")); got != 4 {
		t.Errorf("recorded %d append spans, want 4", got)
	}
	if len(rec.named("record.flush")) == 0 || len(rec.named("experiment.pass")) != 1 {
		t.Errorf("missing flush or pass span: %+v", rec.all())
	}
	for _, s := range rec.all() {
		if s.Name == "record.append" && s.Parent == 0 {
			t.Errorf("append span %d has no parent", s.ID)
		}
	}
}

// The RoundTripper and handler decorators must pass request and response
// bytes through unchanged, and link the handler's span to the client's.
func TestTracedTransportAndHandlerPassBytes(t *testing.T) {
	var seen []string
	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		seen = append(seen, r.URL.Path+" "+string(body))
		w.WriteHeader(http.StatusAccepted)
		if r.URL.Path == "/lease" {
			io.WriteString(w, `{"lease":{"campaign":"c0001","lo":8,"hi":16}}`)
			return
		}
		w.Write(append([]byte("echo:"), body...))
	})
	rec := newRecorder()
	srv := httptest.NewServer(&tracedHandler{inner: echo, rec: rec})
	defer srv.Close()

	do := func(c *http.Client, path, body string) (int, string) {
		resp, err := c.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	bare := &http.Client{Transport: &http.Transport{}}
	traced := &http.Client{Transport: &tracedTransport{inner: &http.Transport{}, rec: rec, worker: "w0"}}
	for _, req := range [][2]string{{"/lease", `{"worker":"w0"}`}, {"/renew", `{"x":1}`}, {"/complete", `{"lines":["a","b"]}`}} {
		bs, bb := do(bare, req[0], req[1])
		ts, tb := do(traced, req[0], req[1])
		if bs != ts || bb != tb {
			t.Errorf("%s: traced reply %d %q, bare reply %d %q", req[0], ts, tb, bs, bb)
		}
	}
	for i := 0; i < len(seen); i += 2 {
		if seen[i] != seen[i+1] {
			t.Errorf("server saw %q bare but %q traced", seen[i], seen[i+1])
		}
	}

	byName := map[string][]span{}
	for _, s := range rec.all() {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if n := len(byName["dist.handle/lease"]); n != 2 {
		t.Fatalf("handler recorded %d lease spans, want 2 (bare and traced)", n)
	}
	shard := byName["dist.shard"]
	if len(shard) != 1 || shard[0].Shard != "w0:c0001[8,16)" {
		t.Fatalf("shard spans = %+v, want one for w0:c0001[8,16)", shard)
	}
	// The upload and the renewal happen inside the lease; the handler span
	// of a traced request is the child of the client's.
	for _, name := range []string{"dist.rtt/complete", "dist.rtt/renew"} {
		if got := byName[name]; len(got) != 1 || got[0].Parent != shard[0].ID {
			t.Errorf("%s spans = %+v, want one child of the shard span %d", name, got, shard[0].ID)
		}
	}
	client := byName["dist.rtt/complete"][0]
	linked := false
	for _, h := range byName["dist.handle/complete"] {
		linked = linked || h.Parent == client.ID
	}
	if !linked {
		t.Errorf("no handler span names client span %d as its parent: %+v", client.ID, byName["dist.handle/complete"])
	}
}

func TestRouteOf(t *testing.T) {
	for path, want := range map[string]string{
		"/lease":                   "/lease",
		"/campaigns":               "/campaigns",
		"/campaigns/c0007":         "/campaigns/{id}",
		"/campaigns/c0007/journal": "/campaigns/{id}/journal",
	} {
		if got := routeOf(path); got != want {
			t.Errorf("routeOf(%q) = %q, want %q", path, got, want)
		}
	}
}

var metricLine = regexp.MustCompile(`(?m)^metric (\S+)\s+(\S+) (\S+)`)

// checkReport asserts that out names every metric of defs exactly once with
// its unit, ends in a well-formed result line carrying the same metrics, and
// reports no failed experiment.
func checkReport(t *testing.T, out string, defs []metricDef, attempted int) {
	t.Helper()
	seen := map[string]int{}
	for _, m := range metricLine.FindAllStringSubmatch(out, -1) {
		seen[m[1]]++
		for _, d := range defs {
			if d.Name == m[1] && d.Unit != m[3] {
				t.Errorf("metric %s printed with unit %q, want %q", d.Name, m[3], d.Unit)
			}
		}
		if _, err := strconv.ParseFloat(m[2], 64); err != nil {
			t.Errorf("metric %s has value %q", m[1], m[2])
		}
	}
	if len(seen) != len(defs) {
		t.Errorf("printed %d metrics, want %d", len(seen), len(defs))
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
	}
	for _, d := range defs {
		if seen[d.Name] != 1 {
			t.Errorf("metric %s printed %d times, want once", d.Name, seen[d.Name])
		}
		mv, ok := res.Metrics[d.Name]
		if !ok || mv.Unit != d.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("result line metric %s = %+v (present %t), want a finite value in %s", d.Name, mv, ok, d.Unit)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("result line carries %d metrics, want %d", len(res.Metrics), len(defs))
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != attempted {
		t.Errorf("result: correct=%t attempted=%d failed=%d, want true/%d/0", res.Correct, res.Attempted, res.Failed, attempted)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			var out bytes.Buffer
			failed, err := runWorkload(smokeParams(t, def.name), &out)
			if err != nil || failed != 0 {
				t.Fatalf("failed=%d err=%v\n%s", failed, err, out.String())
			}
			checkReport(t, out.String(), endToEnd, 4)
			for _, d := range endToEnd {
				var res result
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				json.Unmarshal([]byte(lines[len(lines)-1]), &res)
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", d.Name, res.Metrics[d.Name].Value)
				}
			}
			if !strings.Contains(out.String(), "records_digest ") {
				t.Error("no records_digest line")
			}
		})
	}
}

// A traced run prints the per-layer metrics and nothing end to end, and
// writes its spans out once.
func TestSmokeTraced(t *testing.T) {
	defer func(n int) { probeCalls = n }(probeCalls)
	probeCalls = 3
	for _, name := range []string{"ff-resnet-fastpath", "devfault-transformer-jit", "dist-resnet"} {
		t.Run(name, func(t *testing.T) {
			p := smokeParams(t, name)
			p.trace, p.passes = true, 2
			p.traceOut = filepath.Join(t.TempDir(), "spans.json")
			var out bytes.Buffer
			failed, err := runWorkload(p, &out)
			if err != nil || failed != 0 {
				t.Fatalf("failed=%d err=%v\n%s", failed, err, out.String())
			}
			checkReport(t, out.String(), perLayer, 8)
			if strings.Contains(out.String(), "metric experiments_per_s") {
				t.Error("a traced run reported an end-to-end metric")
			}
			raw, err := os.ReadFile(p.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("span file: %d spans, err %v", len(spans), err)
			}
			for _, s := range spans {
				if s.EndNS < s.StartNS || s.Name == "" || s.Pass == 0 {
					t.Errorf("malformed span %+v", s)
				}
			}
		})
	}
}

// The reference check must notice a record that differs.
func TestCountDiffering(t *testing.T) {
	want := []string{"a", "b", "c"}
	for _, c := range []struct {
		got []string
		n   int
	}{{[]string{"a", "b", "c"}, 0}, {[]string{"a", "x", "c"}, 1}, {[]string{"a"}, 2}, {[]string{"a", "b", "c", "d"}, 1}} {
		if n := countDiffering(c.got, want); n != c.n {
			t.Errorf("countDiffering(%v) = %d, want %d", c.got, n, c.n)
		}
	}
	// Provenance is ignored only where asked.
	c := &experiment.Campaign{Records: []experiment.Record{{AdoptedFrom: 3, EarlyExitIter: 7}}}
	exact, err1 := encodeRecords(c, false)
	loose, err2 := encodeRecords(c, true)
	bare, err3 := record.EncodeJournalLine(0, experiment.Record{AdoptedFrom: -1, EarlyExitIter: -1})
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if exact[0] == loose[0] || loose[0] != string(bare) {
		t.Errorf("provenance handling: exact %s, loose %s, bare %s", exact[0], loose[0], bare)
	}
}

// BENCHMARK.json is generated from the registry; it must not drift.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var want bytes.Buffer
	if err := describe(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `bench -describe`; regenerate it")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
}

func TestSeedTables(t *testing.T) {
	for _, def := range workloadDefs {
		if len(def.seeds) != 10 {
			t.Errorf("%s has %d matched seeds, want 10", def.name, len(def.seeds))
		}
		for s := int64(-3); s < 25; s++ {
			if def.campaignSeed(s) != def.campaignSeed(s+int64(len(def.seeds))) {
				t.Errorf("%s: seeds %d and %d pick different populations", def.name, s, s+int64(len(def.seeds)))
			}
		}
	}
}
