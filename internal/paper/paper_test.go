package paper

import (
	"bytes"
	"testing"

	"repro/internal/accel"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/outcome"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/workloads"
)

// TestCheapArtefactsAreReproducible: the artefacts that run in well under
// a second, generated twice, give the same JSON bytes — rows come in a
// fixed order from pinned seeds.
func TestCheapArtefactsAreReproducible(t *testing.T) {
	gen := func() []byte {
		var b bytes.Buffer
		if err := WriteJSON(&b, []Artefact{Table1(), Sec323(), Table3(), Alg1(), Sec53(), DeviceCount()}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if a, b := gen(), gen(); !bytes.Equal(a, b) {
		t.Fatalf("two runs differ:\n%s\nvs\n%s", a, b)
	}
}

// TestSec323: Apply reproduces the structural simulator's tile bit for bit
// in every trial of every control kind but the address kinds G4–G6, and
// every kind has trials the hardware does not mask, so no kind's agreement
// is vacuous.
func TestSec323(t *testing.T) {
	a := Sec323()
	for _, kind := range accel.Kinds()[accel.LocalControl:] {
		identical, masked := rowOf(a, kind.String()+" tiles identical").Share, rowOf(a, kind.String()+" trials the hardware masks").Share
		if identical == nil || masked == nil {
			t.Fatalf("%v: no identical-tile or masked row", kind)
		}
		if masked.Successes == masked.Trials {
			t.Errorf("%v: the hardware masked all %d trials", kind, masked.Trials)
		}
		switch kind {
		case accel.GlobalG4, accel.GlobalG5, accel.GlobalG6:
		default:
			if identical.Successes != identical.Trials {
				t.Errorf("%v: %d/%d tiles identical, want all", kind, identical.Successes, identical.Trials)
			}
		}
	}
}

// TestTable2ListsTheWorkloads: Table 2 has a train and a test accuracy row
// for every workload of the zoo, in its order.
func TestTable2ListsTheWorkloads(t *testing.T) {
	a := Table2()
	zoo := workloads.All()
	if len(zoo) != 10 || len(a.Rows) != 2*len(zoo) {
		t.Fatalf("%d rows for %d workloads, want two for each of 10", len(a.Rows), len(zoo))
	}
	for i, w := range zoo {
		if got := a.Rows[2*i].Label; got != w.Name+" train accuracy" {
			t.Errorf("row %d = %q, want workload %s", 2*i, got, w.Name)
		}
	}
}

// TestInferenceCountsNonFiniteLogits: a flip of exponent bit 30 of a logit
// in [1, 2) makes it non-finite, and the inference leg of Table 5 counts
// it; a flip of bit 29 leaves it finite and is not counted. An odd BitPos
// selects bit 30 for the upper-exponent model, an even one bit 29.
func TestInferenceCountsNonFiniteLogits(t *testing.T) {
	x := tensor.New(2, 4)
	for i := range x.Data {
		x.Data[i] = 1.5
	}
	m := nn.NewSequential(nn.NewFlatten())
	for bitPos, want := range map[uint]bool{1: true, 0: false} {
		inj := fault.Injection{Kind: accel.DatapathUpperExponent, BitPos: bitPos}
		corrupted, nonFinite := infer(m, data.Batch{X: x.Clone(), Y: []int{0, 1}}, inj)
		if !corrupted || nonFinite != want {
			t.Errorf("BitPos %d: corrupted %v, non-finite %v; want true, %v", bitPos, corrupted, nonFinite, want)
		}
	}
}

// TestWriteMarkdownClaimsNothingFromNoTrials: an artefact without rows
// renders nothing, and a share of zero trials renders neither a point
// estimate, nor an interval, nor a verdict on the band it cites.
func TestWriteMarkdownClaimsNothingFromNoTrials(t *testing.T) {
	none, some := share("none", 0, 0, 1, fig3Paper["unexpected"]), share("some", 1, 4, 1, fig3Paper["unexpected"])
	if none.Verdict != "" {
		t.Errorf("a share of no trials reads %q", none.Verdict)
	}
	var b bytes.Buffer
	err := WriteMarkdown(&b, []Artefact{{ID: "empty", Title: "Empty"}, {ID: "shares", Title: "Shares", Rows: []Row{none, some}}})
	if err != nil {
		t.Fatal(err)
	}
	want := "## Shares\n\n| row | measured | n | seed | 99 % CI | paper | verdict |\n|---|---|---|---|---|---|---|\n" +
		"| none | no trials | 0 | 1 |  | 9.7–17.7 % |  |\n| some | 1/4 (25.0 %) | 4 | 1 | 3.0–78.2 % | 9.7–17.7 % | inconclusive |\n"
	if b.String() != want {
		t.Fatalf("got\n%s\nwant\n%s", b.String(), want)
	}
}

// TestJudge takes every branch of the verdict rule once.
func TestJudge(t *testing.T) {
	band := &Band{0.45, 0.55}
	for _, c := range []struct {
		name string
		row  Row
		want Verdict
	}{
		{"disjoint", share("r", 0, 1000, 1, cite{"", band}), Contradicts},
		{"narrow overlap", share("r", 500, 1000, 1, cite{"", band}), Consistent},
		{"wide overlap", share("r", 1, 4, 1, cite{"", band}), Inconclusive},
		{"exact inside", value("r", "%.2f", 5.5, 1, 0, percent(5.5, 1)), Consistent},
		{"exact outside", value("r", "%.2f", 9.08, 1, 0, percent(9.8, 1)), Contradicts},
		{"exact on a point band", value("r", "%.0f", 1, 1, 0, cite{"", &Band{1, 1}}), Consistent},
		{"sampled on a point band", share("r", 1000, 1000, 1, cite{"", &Band{1, 1}}), Inconclusive},
		{"class equal", class("r", outcome.SlowDegrade, outcome.SlowDegrade, 1, 0), Consistent},
		{"class unequal", class("r", outcome.SharpSlowDegrade, outcome.SharpDegrade, 1, 0), Contradicts},
		{"range below the lower end", Row{Range: &stats.Range{Min: 1.6, Max: 3.4e38, N: 7}, Band: &Band{2.9e38, 3.0e38}}, Contradicts},
		{"range from inside the band", Row{Range: &stats.Range{Min: 3e38, Max: 3.4e38, N: 2}, Band: &Band{2.9e38, 3.0e38}}, Consistent},
		{"no trials", share("r", 0, 0, 1, cite{"", band}), ""},
		{"empty range", Row{Range: &stats.Range{}, Band: band}, ""},
		{"no band", value("r", "%.2f", 0.5, 1, 0, cite{text: "a major class"}), ""},
	} {
		if got := c.row.Judge(); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

// TestBiasedOutcomesCiteNoBand: an importance-sampled campaign's outcome
// shares are conditional on the kinds it samples, so none of its rows
// cites Sec 4.1's population bands; the population-sampled campaign's
// Benign and unexpected rows do.
func TestBiasedOutcomesCiteNoBand(t *testing.T) {
	for _, biased := range []bool{false, true} {
		cited := 0
		for _, r := range Outcomes(campaign("resnet", 20, 6, 3, biased)) {
			if r.Band != nil {
				cited++
			}
		}
		if want := map[bool]int{false: 2, true: 0}[biased]; cited != want {
			t.Errorf("biased %v: %d rows cite a band, want %d", biased, cited, want)
		}
	}
}

// rowOf returns a's row labelled label, or the zero Row.
func rowOf(a Artefact, label string) Row {
	for _, r := range a.Rows {
		if r.Label == label {
			return r
		}
	}
	return Row{}
}
