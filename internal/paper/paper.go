// Package paper regenerates the paper's evaluation as data: one function per
// table, figure and section (artefacts.go), each returning its rows in a
// fixed order from pinned inputs, so a run writes the same bytes every time.
// A row holds the measured value next to the paper's, cited as a constant,
// with the n, seed and campaign Spec it was measured on and, where the value
// is k of n trials, its 99 % Wilson interval. `repro paper` writes every
// artefact as paper.json and paper.md (checked in under results/);
// `repro campaign` and `repro report` print the campaign rows (Outcomes,
// Conditions, Contribution, Detection) of one campaign through the same
// functions, live or from an archive.
package paper

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/accel"
	"repro/internal/experiment"
	"repro/internal/outcome"
	"repro/internal/stats"
)

// Artefact is one table, figure or section of the paper's evaluation.
type Artefact struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Rows  []Row  `json:"rows"`
}

// Row is one measured line of an artefact.
type Row struct {
	// Label names what the row measures; it is unique within its artefact.
	Label string `json:"label"`
	// Measured is the measurement as the paper would print it: Value at
	// the precision it is read at, an outcome class, or a curve.
	Measured string `json:"measured"`
	// Value is the measured number (0 for a categorical row).
	Value float64 `json:"value"`
	// Series is a sampled curve (Fig 2).
	Series []float64 `json:"series,omitempty"`
	// Range is an observed [min, max] of condition values (Table 4).
	Range *stats.Range `json:"range,omitempty"`
	// Share is set when Value is k of n trials: k, n and the 99 % Wilson
	// interval.
	Share *stats.Proportion `json:"share,omitempty"`
	// N is the number of trials, samples or iterations behind Value.
	N int `json:"n"`
	// Seed is the seed Value was drawn with (0 for an analytic value).
	Seed int64 `json:"seed"`
	// Paper is the paper's value for the same quantity, cited.
	Paper string `json:"paper,omitempty"`
	// Spec is the campaign the row is derived from, if any.
	Spec *experiment.Spec `json:"spec,omitempty"`
}

// Get returns the row labelled label, or the zero Row.
func (a Artefact) Get(label string) Row {
	for _, r := range a.Rows {
		if r.Label == label {
			return r
		}
	}
	return Row{}
}

// share is the row for k of n trials.
func share(label string, k, n int, seed int64, paper string) Row {
	p := stats.WilsonInterval(k, n, 0.99)
	return Row{Label: label, Measured: fmt.Sprintf("%d/%d (%.1f %%)", k, n, 100*p.P),
		Value: p.P, Share: &p, N: n, Seed: seed, Paper: paper}
}

// value is the row for a measured number printed with format.
func value(label, format string, v float64, n int, seed int64, paper string) Row {
	return Row{Label: label, Measured: fmt.Sprintf(format, v), Value: v, N: n, Seed: seed, Paper: paper}
}

// prefixed returns rows with prefix before every label and c's Spec on
// every row.
func prefixed(prefix string, c *experiment.Campaign, rows []Row) []Row {
	spec := c.Cfg.Spec()
	for i := range rows {
		rows[i].Label = prefix + rows[i].Label
		rows[i].Spec = &spec
	}
	return rows
}

// Outcomes is a campaign's Fig-3 breakdown: every outcome class it
// observed as k of n, in outcome.All() order, then the unexpected share.
func Outcomes(c *experiment.Campaign) []Row {
	var rows []Row
	unexpected := 0
	for _, o := range outcome.All() {
		k := c.Tally.Counts[o]
		if k == 0 {
			continue
		}
		if o.IsUnexpected() {
			unexpected += k
		}
		rows = append(rows, share(o.String(), k, c.Tally.Total, c.Cfg.Seed, fig3Paper[o]))
	}
	return append(rows, share("unexpected", unexpected, c.Tally.Total, c.Cfg.Seed, "9.7–17.7 %"))
}

// fig3Paper cites Sec 4.1's masked share.
var fig3Paper = map[outcome.Outcome]string{outcome.Benign: "82.3–90.3 % masked"}

// Conditions is a campaign's Table 4: for every latent or short-term
// outcome it observed, in outcome.All() order, the range of |gradient
// history| and |moving variance| values within two iterations of the fault.
func Conditions(c *experiment.Campaign) []Row {
	ranges := c.ConditionRanges()
	var rows []Row
	for _, o := range outcome.All() {
		cr := ranges[o]
		if cr == nil {
			continue
		}
		for _, v := range []struct {
			name string
			r    stats.Range
		}{{"|grad history|", cr.Hist}, {"|mvar|", cr.Mvar}} {
			rows = append(rows, Row{Label: o.String() + " " + v.name, Measured: v.r.String(),
				Value: v.r.Max, Range: &v.r, N: v.r.N, Seed: c.Cfg.Seed, Paper: table4Paper[o.String()+" "+v.name]})
		}
	}
	return rows
}

// table4Paper cites Table 4's ranges.
var table4Paper = map[string]string{
	"SlowDegrade |grad history|":      "3.6e9–1.1e19",
	"SharpSlowDegrade |grad history|": "2.7e8–1.2e19",
	"SharpDegrade |mvar|":             "6.5e16–1.2e38",
	"LowTestAccuracy |mvar|":          "7.3e17–7.1e37",
	"ShortTermINFNaN |mvar|":          "2.9e38–3.0e38",
}

// Contribution is a campaign's Sec 4.3.1 view: the unexpected outcomes of
// every FF class that caused one, in accel.Kinds() order, then the share of
// all unexpected outcomes the two dominant families caused.
func Contribution(c *experiment.Campaign) []Row {
	var rows []Row
	var control, exponent, total int
	for _, s := range c.FFContribution() {
		total += s.Unexpected
		switch s.Kind {
		case accel.GlobalG1, accel.GlobalG3, accel.LocalControl:
			control += s.Unexpected
		case accel.DatapathUpperExponent:
			exponent += s.Unexpected
		}
		if s.Unexpected > 0 {
			rows = append(rows, share(s.Kind.String()+" injections unexpected", s.Unexpected, s.Total, c.Cfg.Seed, ""))
		}
	}
	return append(rows,
		share("groups 1+3 + local control (9.8 % of FFs): share of unexpected", control, total, c.Cfg.Seed, "55.7–68.5 %"),
		share("upper exponent bits (5.5 % of FFs): share of unexpected", exponent, total, c.Cfg.Seed, "31.9–44.3 %"))
}

// Detection is a campaign's detection coverage: the latent and short-term
// outcomes the bounds check flagged, and the fault-to-alarm latency of
// every alarm. It is empty when the campaign has no such outcome.
func Detection(c *experiment.Campaign) []Row {
	detected, total, _ := c.DetectionCoverage()
	if total == 0 {
		return nil
	}
	ls := c.DetectionLatencyStats()
	return []Row{
		share("latent + short-term outcomes flagged", detected, total, c.Cfg.Seed, "100 %"),
		{Label: "latency p50 / p95 / max (iterations)", Measured: fmt.Sprintf("%.1f / %.1f / %d", ls.P50, ls.P95, ls.Max),
			Value: float64(ls.Max), N: ls.Detected, Seed: c.Cfg.Seed, Paper: "≤ 2"},
	}
}

const (
	table4Title = "Table 4 — necessary-condition ranges within 2 iterations of the fault"
	sec431Title = "Sec 4.3.1 — FF-class contribution to unexpected outcomes"
)

// CampaignViews are the campaign rows `repro campaign` prints after its
// report and `repro report` renders from an archive: Table 4 and Sec 4.3.1
// (FF campaigns only; a device-fault record's per-FF fields are zero) and
// detection.
func CampaignViews(c *experiment.Campaign) []Artefact {
	var out []Artefact
	if !c.Cfg.DeviceFaults {
		out = append(out,
			Artefact{"table4", table4Title, Conditions(c)},
			Artefact{"sec4.3.1", sec431Title, Contribution(c)})
	}
	if rows := Detection(c); rows != nil {
		out = append(out, Artefact{"detection", "Detection — bounds-check coverage and latency", rows})
	}
	return out
}

// WriteJSON writes artefacts as indented JSON.
func WriteJSON(w io.Writer, artefacts []Artefact) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(artefacts)
}

// WriteMarkdown writes each artefact as a Markdown table, followed by the
// specs of the campaigns its rows come from.
func WriteMarkdown(w io.Writer, artefacts []Artefact) error {
	bw := bufio.NewWriter(w)
	for i, a := range artefacts {
		if i > 0 {
			fmt.Fprintln(bw)
		}
		fmt.Fprintf(bw, "## %s\n\n| row | measured | n | seed | 99 %% CI | paper |\n|---|---|---|---|---|---|\n", a.Title)
		var specs []string
		for _, r := range a.Rows {
			ci := ""
			if r.Share != nil {
				ci = fmt.Sprintf("%.1f–%.1f %%", 100*r.Share.Lo, 100*r.Share.Hi)
			}
			fmt.Fprintf(bw, "| %s | %s | %d | %d | %s | %s |\n", cell(r.Label), cell(r.Measured), r.N, r.Seed, ci, cell(r.Paper))
			if r.Spec != nil {
				b, err := json.Marshal(r.Spec)
				if err != nil {
					return err
				}
				if s := "`" + string(b) + "`"; len(specs) == 0 || specs[len(specs)-1] != s {
					specs = append(specs, s)
				}
			}
		}
		if len(specs) > 0 {
			fmt.Fprintf(bw, "\ncampaigns:\n\n- %s\n", strings.Join(specs, "\n- "))
		}
	}
	return bw.Flush()
}

// cell escapes the pipes of |x| in a Markdown table cell.
func cell(s string) string { return strings.ReplaceAll(s, "|", `\|`) }
