package record

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/paper"
	"repro/internal/rng"
	"repro/internal/train"
	"repro/internal/workloads"
)

func sampleInjection() fault.Injection {
	return fault.Injection{
		Kind: accel.GlobalG3, LayerIdx: 2, Pass: fault.BackwardInput,
		Iteration: 40, CycleFrac: 0.25, N: 3, Unit: 7, DeltaFrac: 0.6,
		BitPos: 29, Seed: rng.Seed{State: 123, Stream: 456},
	}
}

func TestInjectionJSONRoundTrip(t *testing.T) {
	orig := sampleInjection()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(EncodeInjection(orig)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInjectionJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("round trip changed injection:\n  orig %+v\n  got  %+v", orig, got)
	}
}

func TestInjectionJSONAllKindsAndPasses(t *testing.T) {
	for _, k := range accel.Kinds() {
		for _, p := range []fault.Pass{fault.Forward, fault.BackwardInput, fault.BackwardWeight} {
			inj := sampleInjection()
			inj.Kind, inj.Pass = k, p
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(EncodeInjection(inj)); err != nil {
				t.Fatal(err)
			}
			got, err := ReadInjectionJSON(&buf)
			if err != nil {
				t.Fatalf("kind %v pass %v: %v", k, p, err)
			}
			if got.Kind != k || got.Pass != p {
				t.Fatalf("kind %v pass %v mangled to %v %v", k, p, got.Kind, got.Pass)
			}
		}
	}
}

func TestInjectionJSONRejectsBadNames(t *testing.T) {
	if _, err := ReadInjectionJSON(strings.NewReader(`{"kind":"bogus","pass":"forward"}`)); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if _, err := ReadInjectionJSON(strings.NewReader(`{"kind":"g1","pass":"sideways"}`)); err == nil {
		t.Fatal("bogus pass accepted")
	}
	if _, err := ReadInjectionJSON(strings.NewReader(`{nonsense`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func sampleTrace() *train.Trace {
	tr := train.NewTrace("resnet")
	tr.FaultIter = 3
	tr.TrainLoss = []float64{1.5, 1.2, 0.9, 2.0, 1.8}
	tr.TrainAcc = []float64{0.25, 0.4, 0.6, 0.3, 0.35}
	tr.TestIters = []int{4}
	tr.TestLoss = []float64{1.1}
	tr.TestAcc = []float64{0.5}
	tr.NonFiniteIter = 4
	tr.NonFiniteAt = "loss@device0"
	tr.Completed = 5
	return tr
}

// TestTraceJSONRoundTrip: the JSON writer emits every trace field, which
// encoding/json decodes back unchanged.
func TestTraceJSONRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	var got TraceJSON
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := TraceJSON{
		Workload: "resnet", FaultIter: 3,
		TrainLoss: orig.TrainLoss, TrainAcc: orig.TrainAcc,
		TestIters: orig.TestIters, TestAcc: orig.TestAcc, TestLoss: orig.TestLoss,
		NonFiniteIter: 4, NonFiniteAt: "loss@device0", Completed: 5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSON round trip changed trace:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestTraceTextRoundTrip: every line the text writer emits scans back into
// the trace it was written from, with no field lost or altered.
func TestTraceTextRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTraceText(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got := train.NewTrace("")
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var (
			it        int
			loss, acc float64
			err       error
		)
		switch strings.Fields(line)[0] {
		case "#":
			_, err = fmt.Sscanf(line, "# workload %s fault_iter %d", &got.Workload, &got.FaultIter)
		case "iter":
			if _, err = fmt.Sscanf(line, "iter %d loss %g acc %g", &it, &loss, &acc); err == nil && it != len(got.TrainLoss) {
				err = fmt.Errorf("iter %d out of order", it)
			}
			got.TrainLoss = append(got.TrainLoss, loss)
			got.TrainAcc = append(got.TrainAcc, acc)
			got.Completed = len(got.TrainLoss)
		case "test":
			_, err = fmt.Sscanf(line, "test %d loss %g acc %g", &it, &loss, &acc)
			got.TestIters = append(got.TestIters, it)
			got.TestLoss = append(got.TestLoss, loss)
			got.TestAcc = append(got.TestAcc, acc)
		case "nan":
			_, err = fmt.Sscanf(line, "nan %d %s", &got.NonFiniteIter, &got.NonFiniteAt)
		default:
			err = fmt.Errorf("unknown line kind")
		}
		if err != nil {
			t.Fatalf("line %q: %v\n%s", line, err, buf.String())
		}
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("text round trip changed trace:\ngot  %+v\nwant %+v", got, orig)
	}
}

// TestTraceTextFormat pins the artifact-style text writer's whole output.
func TestTraceTextFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceText(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	const want = `# workload resnet fault_iter 3
iter 0 loss 1.5 acc 0.25
iter 1 loss 1.2 acc 0.4
iter 2 loss 0.9 acc 0.6
iter 3 loss 2 acc 0.3
iter 4 loss 1.8 acc 0.35
test 4 loss 1.1 acc 0.5
nan 4 loss@device0
`
	if got := buf.String(); got != want {
		t.Fatalf("text trace:\n%s\nwant:\n%s", got, want)
	}
}

func miniCampaign(t *testing.T) *experiment.Campaign {
	t.Helper()
	w, err := workloads.ByName("yolo")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 20
	return experiment.Run(experiment.Config{Workload: w, Experiments: 4, Seed: 3, HorizonMult: 1})
}

func TestCampaignJSON(t *testing.T) {
	c := miniCampaign(t)
	var buf bytes.Buffer
	if err := WriteCampaignJSON(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"workload": "yolo"`, `"records"`, `"outcome"`} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign JSON missing %q", want)
		}
	}
}

func TestCampaignCSV(t *testing.T) {
	c := miniCampaign(t)
	var buf bytes.Buffer
	if err := WriteCampaignCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // header + 4 records
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "kind,layer,pass,") {
		t.Fatalf("bad header %q", lines[0])
	}
	for _, line := range lines[1:] {
		if n := strings.Count(line, ","); n != strings.Count(lines[0], ",") {
			t.Fatalf("row has %d commas, header has %d: %q", n, strings.Count(lines[0], ","), line)
		}
	}
}

func TestKindPassNameResolvers(t *testing.T) {
	for _, k := range accel.Kinds() {
		name := kindToName[k]
		got, err := KindFromName(name)
		if err != nil || got != k {
			t.Fatalf("KindFromName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := KindFromName("zzz"); err == nil {
		t.Fatal("bad kind name accepted")
	}
	if _, err := PassFromName("zzz"); err == nil {
		t.Fatal("bad pass name accepted")
	}
}

// TestCampaignJSONRoundTripAndMarkdown: an archive read back with
// ReadCampaignJSON decodes to the campaign's records, and the campaign they
// rebuild renders through the paper package's Markdown writer — the path
// `repro report` takes.
func TestCampaignJSONRoundTripAndMarkdown(t *testing.T) {
	c := miniCampaign(t)
	var buf bytes.Buffer
	if err := WriteCampaignJSON(&buf, c); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCampaignJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Workload != "yolo" || len(loaded.Records) != 4 {
		t.Fatalf("loaded %s with %d records", loaded.Workload, len(loaded.Records))
	}
	rebuilt := &experiment.Campaign{Cfg: c.Cfg, RefAcc: loaded.RefAcc, Records: make([]experiment.Record, len(loaded.Records))}
	for i, rj := range loaded.Records {
		if rebuilt.Records[i], err = DecodeCampaignRecord(rj); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rebuilt.Records[i].Outcome != c.Records[i].Outcome {
			t.Errorf("record %d: outcome %v read back as %v", i, c.Records[i].Outcome, rebuilt.Records[i].Outcome)
		}
		rebuilt.Tally.Add(rebuilt.Records[i].Outcome)
	}
	var md bytes.Buffer
	if err := paper.WriteCampaign(&md, rebuilt); err != nil {
		t.Fatal(err)
	}
	// Four benign records range no condition: Table 4 has no rows and is
	// not printed.
	out := md.String()
	for _, want := range []string{"# Fault-injection campaign: yolo\n", "## Outcomes", "| row | measured |", "| unexpected |", "## Sec 4.3.1"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "## Table 4") {
		t.Errorf("markdown prints a Table 4 without rows:\n%s", out)
	}
}

func TestReadCampaignJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadCampaignJSON(strings.NewReader("{bad")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestOutcomeByName: serialized outcome names resolve, and unknown ones
// error — in a record too, so `repro report` refuses an archive it cannot
// read rather than miscounting it.
func TestOutcomeByName(t *testing.T) {
	if o, err := outcomeFromName("SlowDegrade"); err != nil || o != outcome.SlowDegrade {
		t.Fatalf("SlowDegrade resolved to %v, %v", o, err)
	}
	if _, err := outcomeFromName("Nonsense"); err == nil {
		t.Fatal("bogus outcome resolved")
	}
	if _, err := DecodeCampaignRecord(CampaignRecordJSON{Outcome: "Nonsense", Injection: EncodeInjection(fault.Injection{})}); err == nil {
		t.Fatal("a record with a bogus outcome decoded")
	}
}
