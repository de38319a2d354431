package record

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/outcome"
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
	if err := WriteInjectionJSON(&buf, orig); err != nil {
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
			if err := WriteInjectionJSON(&buf, inj); err != nil {
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

func tracesEqual(a, b *train.Trace) bool {
	if a.Workload != b.Workload || a.FaultIter != b.FaultIter ||
		a.NonFiniteIter != b.NonFiniteIter || a.Completed != b.Completed {
		return false
	}
	if len(a.TrainLoss) != len(b.TrainLoss) || len(a.TestIters) != len(b.TestIters) {
		return false
	}
	for i := range a.TrainLoss {
		if a.TrainLoss[i] != b.TrainLoss[i] || a.TrainAcc[i] != b.TrainAcc[i] {
			return false
		}
	}
	for i := range a.TestIters {
		if a.TestIters[i] != b.TestIters[i] || a.TestAcc[i] != b.TestAcc[i] || a.TestLoss[i] != b.TestLoss[i] {
			return false
		}
	}
	return true
}

func TestTraceJSONRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(orig, got) {
		t.Fatalf("JSON round trip changed trace")
	}
	if got.NonFiniteAt != "loss@device0" {
		t.Fatalf("NonFiniteAt = %q", got.NonFiniteAt)
	}
}

func TestTraceTextRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTraceText(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceText(&buf)
	if err != nil {
		t.Fatalf("parsing:\n%s\n%v", buf.String(), err)
	}
	if !tracesEqual(orig, got) {
		t.Fatalf("text round trip changed trace:\n%s", buf.String())
	}
}

func TestTraceTextFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceText(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# workload resnet fault_iter 3", "iter 0 loss 1.5 acc 0.25", "test 4 loss 1.1 acc 0.5", "nan 4 loss@device0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"bogus line here",
		"iter 0 loss x acc 0.5",
		"test 1 loss 0.5",
		"nan",
	} {
		if _, err := ReadTraceText(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted garbage %q", bad)
		}
	}
}

func TestTraceTextSkipsBlankLines(t *testing.T) {
	in := "# workload x fault_iter -1\n\niter 0 loss 1 acc 0.5\n\n"
	tr, err := ReadTraceText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Completed != 1 || tr.Workload != "x" {
		t.Fatalf("parsed %+v", tr)
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
	var md bytes.Buffer
	if err := RenderMarkdown(&md, loaded); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{"# Fault-injection campaign: yolo", "## Outcomes", "| outcome |", "## Detection", "Necessary-condition"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestReadCampaignJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadCampaignJSON(strings.NewReader("{bad")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestOutcomeByName: serialized outcome names resolve, unknown ones error,
// and the markdown report skips a record whose outcome it cannot resolve.
func TestOutcomeByName(t *testing.T) {
	if o, err := outcomeFromName("SlowDegrade"); err != nil || o != outcome.SlowDegrade {
		t.Fatalf("SlowDegrade resolved to %v, %v", o, err)
	}
	if _, err := outcomeFromName("Nonsense"); err == nil {
		t.Fatal("bogus outcome resolved")
	}
	c := &CampaignJSON{Workload: "yolo", Records: []CampaignRecordJSON{{Outcome: "Nonsense", DetectIter: 3}}}
	var md bytes.Buffer
	if err := RenderMarkdown(&md, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "no latent outcomes") {
		t.Fatalf("an unknown outcome counted as latent:\n%s", md.String())
	}
}
