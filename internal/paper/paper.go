// Package paper regenerates the paper's evaluation as data: one function per
// table, figure and section (artefacts.go), each returning its rows in a
// fixed order from pinned inputs, so a run writes the same bytes every time.
// A row holds the measured value next to the paper's, cited as a constant,
// with the n, seed and campaign Spec it was measured on and, where the value
// is k of n trials, its 99 % Wilson interval. Where the citation states a
// number for the quantity the row measures, the row carries it as a Band
// and its Verdict on it (Row.Judge). `repro paper` writes every
// artefact as paper.json and paper.md (checked in under results/);
// `repro campaign` and `repro report` print the document of one campaign
// (WriteCampaign: Outcomes, Conditions, Contribution or Recovery, Detection)
// through the same functions, live or from an archive; they are the only
// code that aggregates a campaign's records.
package paper

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/accel"
	"repro/internal/experiment"
	"repro/internal/fault"
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
	// Band is the number Paper states for the quantity the row measures, in
	// the units of Value; nil when Paper states none.
	Band *Band `json:"band,omitempty"`
	// Verdict is the row's reading of Band (Judge); empty when it has none.
	Verdict Verdict `json:"verdict,omitempty"`
	// Spec is the campaign the row is derived from, if any.
	Spec *experiment.Spec `json:"spec,omitempty"`
}

// Band is a number the paper states as the closed interval [Lo, Hi]. A
// point citation is the band of the numbers that print as it ("5.5 %" is
// 5.45–5.55 %), a bound is the band up to it ("up to 500×" is 0–500), and
// a claim such as "100 %" or "all matched" has zero width.
type Band struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Verdict is what a row's measurement says about the paper's number.
type Verdict string

// The verdicts. A sampled row is judged by its 99 % Wilson interval and an
// exact or analytic one by [Value, Value]: Contradicts when the interval
// and the band are disjoint, Consistent when they overlap and the interval
// is at most widthFactor times the band's width, Inconclusive when they
// overlap but the interval is wider, so a zero-width band is never
// Consistent with a sampled row. A class is Consistent when it is the cited
// class and Contradicts otherwise. A Table 4 range Contradicts when its
// minimum lies below the band, because the paper calls the condition
// necessary, and is Consistent otherwise.
const (
	Consistent   Verdict = "consistent"
	Inconclusive Verdict = "inconclusive"
	Contradicts  Verdict = "contradicts"
)

// widthFactor is how many band widths an interval that overlaps the band
// may span and still read Consistent. An interval confirms a band only if it
// is of the band's order of width: a much wider one overlaps the band and
// numbers far outside it alike. Twice the band is the loosest such width;
// the band's own width would take about four times the trials, since a
// Wilson interval narrows as 1/√n. At the checked-in n = 32 Fig 3 panel A's
// intervals span at least 17.2 points against the 8-point band, so they
// read Inconclusive; a Wilson interval near 13 % narrows to 16 points at
// about n = 120.
const widthFactor = 2

// Judge reads r against its Band by the rule the verdicts state. A row
// without a band, a share of no trials and an empty range have no verdict,
// except a class row, whose measured and cited cells are outcome names.
func (r Row) Judge() Verdict {
	b := r.Band
	switch {
	case b == nil:
		if isClass(r.Measured) && isClass(r.Paper) {
			return holds(r.Measured == r.Paper)
		}
		return ""
	case r.Range != nil:
		if r.Range.N == 0 {
			return ""
		}
		return holds(r.Range.Min >= b.Lo)
	case r.Share != nil:
		if r.Share.Trials == 0 {
			return ""
		}
		return b.judge(r.Share.Lo, r.Share.Hi)
	}
	return b.judge(r.Value, r.Value)
}

// judge is the verdict on an interval [lo, hi] against b.
func (b Band) judge(lo, hi float64) Verdict {
	switch {
	case hi < b.Lo || lo > b.Hi:
		return Contradicts
	case hi-lo > widthFactor*(b.Hi-b.Lo):
		return Inconclusive
	}
	return Consistent
}

// holds is Consistent when ok and Contradicts otherwise.
func holds(ok bool) Verdict {
	if ok {
		return Consistent
	}
	return Contradicts
}

// isClass reports whether s names an outcome class.
func isClass(s string) bool {
	return slices.ContainsFunc(outcome.All(), func(o outcome.Outcome) bool { return o.String() == s })
}

// cite is a row's citation of the paper: the words of its paper cell and,
// where they state a number for the quantity the row measures, the band
// that number reads as. The zero cite cites nothing.
type cite struct {
	text string
	band *Band
}

// percent cites the paper's "v %" as the band of the numbers that print as
// v, times scale: 1 for Table 1's percent rows, 0.01 for a share.
func percent(v, scale float64) cite { return cite{printed(v) + " %", point(v, scale)} }

// percents cites the paper's "lo–hi %" range, followed by words, as a band
// of shares.
func percents(lo, hi float64, words string) cite {
	return cite{printed(lo) + "–" + printed(hi) + " %" + words, &Band{lo / 100, hi / 100}}
}

// point is the band of the numbers that print as v, times scale: 5.5 is
// 5.45–5.55, and 41 is 40.5–41.5.
func point(v, scale float64) *Band {
	h := 0.5
	if _, frac, ok := strings.Cut(printed(v), "."); ok {
		h *= math.Pow10(-len(frac))
	}
	return &Band{(v - h) * scale, (v + h) * scale}
}

// printed is v in its shortest decimal form.
func printed(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// cited returns r citing c, with its verdict.
func cited(r Row, c cite) Row {
	r.Paper, r.Band = c.text, c.band
	r.Verdict = r.Judge()
	return r
}

// share is the row for k of n trials; a share of no trials measures
// nothing and says so.
func share(label string, k, n int, seed int64, c cite) Row {
	p := stats.WilsonInterval(k, n, 0.99)
	measured := "no trials"
	if n > 0 {
		measured = fmt.Sprintf("%d/%d (%.1f %%)", k, n, 100*p.P)
	}
	return cited(Row{Label: label, Measured: measured, Value: p.P, Share: &p, N: n, Seed: seed}, c)
}

// value is the row for a measured number printed with format.
func value(label, format string, v float64, n int, seed int64, c cite) Row {
	return cited(Row{Label: label, Measured: fmt.Sprintf(format, v), Value: v, N: n, Seed: seed}, c)
}

// class is the row for an outcome class against the class the paper gives.
func class(label string, got, want outcome.Outcome, n int, seed int64) Row {
	return cited(Row{Label: label, Measured: got.String(), N: n, Seed: seed}, cite{text: want.String()})
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
// The shares of a campaign that importance-samples FF kinds
// (experiment.Config.BiasKinds) are conditional on them, so they cite none
// of Sec 4.1's population rates.
func Outcomes(c *experiment.Campaign) []Row {
	cites := fig3Paper
	if len(c.Cfg.BiasKinds) > 0 {
		cites = nil
	}
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
		rows = append(rows, share(o.String(), k, c.Tally.Total, c.Cfg.Seed, cites[o.String()]))
	}
	return append(rows, share("unexpected", unexpected, c.Tally.Total, c.Cfg.Seed, cites["unexpected"]))
}

// fig3Paper cites Sec 4.1's masked and unexpected shares, by row label.
var fig3Paper = map[string]cite{
	outcome.Benign.String(): percents(82.3, 90.3, " masked"),
	"unexpected":            percents(9.7, 17.7, ""),
}

// Passes is a campaign's Fig 4 view: for every pass a fault was injected
// into, in pass order, every outcome it led to as k of that pass's n.
func Passes(c *experiment.Campaign) []Row {
	var byPass [fault.BackwardWeight + 1]outcome.Tally
	for r := range c.Landed() {
		byPass[r.Injection.Pass].Add(r.Outcome)
	}
	var rows []Row
	for p, t := range byPass {
		for _, o := range outcome.All() {
			if k := t.Counts[o]; k > 0 {
				rows = append(rows, share(fault.Pass(p).String()+" "+o.String(), k, t.Total, c.Cfg.Seed, cite{text: fig4Paper[o]}))
			}
		}
	}
	return rows
}

// Conditions is a campaign's Table 4: for every latent or short-term
// outcome it observed, in outcome.All() order, the range of |gradient
// history| and |moving variance| values within two iterations of the fault.
func Conditions(c *experiment.Campaign) []Row {
	type ranges struct {
		seen       bool
		hist, mvar stats.Range
	}
	byOutcome := make([]ranges, len(outcome.All()))
	for r := range c.Landed() {
		if !conditioned(r.Outcome) {
			continue
		}
		cr := &byOutcome[r.Outcome]
		cr.seen = true
		if h := clampMax(math.Max(r.HistAtT, r.HistAtT1)); h > 0 {
			cr.hist.Observe(h)
		}
		if m := clampMax(math.Max(r.MvarAtT, r.MvarAtT1)); m > 0 {
			cr.mvar.Observe(m)
		}
	}
	var rows []Row
	for _, o := range outcome.All() {
		cr := byOutcome[o]
		if !cr.seen {
			continue
		}
		for _, v := range []struct {
			name string
			r    stats.Range
		}{{"|grad history|", cr.hist}, {"|mvar|", cr.mvar}} {
			label := o.String() + " " + v.name
			rows = append(rows, cited(Row{Label: label, Measured: v.r.String(),
				Value: v.r.Max, Range: &v.r, N: v.r.N, Seed: c.Cfg.Seed}, table4Cite(label)))
		}
	}
	return rows
}

// conditioned reports whether Table 4 and the detection coverage count o:
// the latent outcomes and short-term INF/NaN.
func conditioned(o outcome.Outcome) bool { return o.IsLatent() || o == outcome.ShortTermINFNaN }

// clampMax reads an overflowed history/mvar value (+Inf) as the float32
// maximum — "magnitude very close to the max floating point value" is
// precisely the paper's short-term INF/NaN condition (Sec 4.2.2, Table 4's
// 2.9e38–3.0e38 band).
func clampMax(v float64) float64 {
	if math.IsInf(v, 0) || v > math.MaxFloat32 {
		return math.MaxFloat32
	}
	return v
}

// table4Paper cites Table 4's ranges, by row label.
var table4Paper = map[string]Band{
	"SlowDegrade |grad history|":      {3.6e9, 1.1e19},
	"SharpSlowDegrade |grad history|": {2.7e8, 1.2e19},
	"SharpDegrade |mvar|":             {6.5e16, 1.2e38},
	"LowTestAccuracy |mvar|":          {7.3e17, 7.1e37},
	"ShortTermINFNaN |mvar|":          {2.9e38, 3.0e38},
}

// table4Cite is the citation of the Table 4 row labelled label, printed as
// the paper prints it ("3.6e9–1.1e19"), or none.
func table4Cite(label string) cite {
	b, ok := table4Paper[label]
	if !ok {
		return cite{}
	}
	sci := func(v float64) string {
		return strings.NewReplacer("e+0", "e", "e+", "e").Replace(strconv.FormatFloat(v, 'e', 1, 64))
	}
	return cite{sci(b.Lo) + "–" + sci(b.Hi), &b}
}

// Contribution is a campaign's Sec 4.3.1 view: the unexpected outcomes of
// every FF class that caused one, in accel.Kinds() order, then the share of
// all unexpected outcomes the two dominant families caused.
func Contribution(c *experiment.Campaign) []Row {
	kinds := accel.Kinds()
	injected, unexpected := make([]int, len(kinds)), make([]int, len(kinds))
	for r := range c.Landed() {
		injected[r.Injection.Kind]++
		if r.Outcome.IsUnexpected() {
			unexpected[r.Injection.Kind]++
		}
	}
	var rows []Row
	var control, exponent, total int
	for _, k := range kinds {
		total += unexpected[k]
		switch k {
		case accel.GlobalG1, accel.GlobalG3, accel.LocalControl:
			control += unexpected[k]
		case accel.DatapathUpperExponent:
			exponent += unexpected[k]
		}
		if unexpected[k] > 0 {
			rows = append(rows, share(k.String()+" injections unexpected", unexpected[k], injected[k], c.Cfg.Seed, cite{}))
		}
	}
	return append(rows,
		share("groups 1+3 + local control (9.8 % of FFs): share of unexpected", control, total, c.Cfg.Seed, percents(55.7, 68.5, "")),
		share("upper exponent bits (5.5 % of FFs): share of unexpected", exponent, total, c.Cfg.Seed, percents(31.9, 44.3, "")))
}

// Detection is a campaign's detection account: the latent and short-term
// outcomes the bounds check flagged, when there are any, and the p50 / p95 /
// max fault-to-alarm latency over every alarm, when one fired (linear
// interpolation between closest ranks). It is empty when neither holds.
func Detection(c *experiment.Campaign) []Row {
	var detected, total int
	var lats []float64
	for r := range c.Landed() {
		if r.DetectIter >= 0 {
			lats = append(lats, float64(r.DetectIter-r.FaultIteration()))
		}
		if conditioned(r.Outcome) {
			total++
			if r.DetectIter >= 0 {
				detected++
			}
		}
	}
	var rows []Row
	if total > 0 {
		rows = append(rows, share("latent + short-term outcomes flagged", detected, total, c.Cfg.Seed, cite{"100 %", &Band{1, 1}}))
	}
	if len(lats) > 0 {
		p50, p95, worst := stats.Percentile(lats, 50), stats.Percentile(lats, 95), slices.Max(lats)
		rows = append(rows, cited(Row{Label: "latency p50 / p95 / max (iterations)", Measured: fmt.Sprintf("%.1f / %.1f / %.0f", p50, p95, worst),
			Value: worst, N: len(lats), Seed: c.Cfg.Seed}, cite{"≤ 2", &Band{0, 2}}))
	}
	return rows
}

// Recovery is a device-fault campaign's mitigation account, from its
// records alone (experiment.RecoveryStats): group hangs and recoveries to
// full strength as k of n, the mean time-to-recover and accuracy cost, and
// the totals of every mitigation event.
func Recovery(c *experiment.Campaign) []Row {
	rs := c.RecoveryStats()
	seed := c.Cfg.Seed
	ttr := Row{Label: "mean time-to-recover (iterations)", Measured: "—", Seed: seed}
	if rs.Recovered > 0 {
		ttr = value(ttr.Label, "%.1f", rs.MeanTTR, rs.Recovered, seed, cite{})
	}
	rows := []Row{
		share("group hangs", rs.Hangs, rs.Records, seed, cite{}),
		share("recovered to full strength", rs.Recovered, rs.Records, seed, cite{}),
		ttr,
		value("mean accuracy cost", "%+.3f", rs.MeanAccuracyCost, rs.Records, seed, cite{}),
	}
	for _, t := range []struct {
		label string
		n     int
	}{
		{"quarantines", rs.Quarantines}, {"rejoins", rs.Rejoins}, {"degraded iterations", rs.DegradedIters},
		{"comm retries", rs.CommRetries}, {"JIT snapshots", rs.JITSnapshots}, {"resizes", rs.Resizes},
		{"readmits", rs.Readmits},
	} {
		rows = append(rows, value(t.label, "%.0f", float64(t.n), rs.Records, seed, cite{}))
	}
	return rows
}

const (
	table4Title = "Table 4 — necessary-condition ranges within 2 iterations of the fault"
	sec431Title = "Sec 4.3.1 — FF-class contribution to unexpected outcomes"
)

// CampaignViews are the artefacts of one campaign, the document `repro
// campaign` prints and `repro report` renders from its archive: the
// outcomes, then Table 4 and Sec 4.3.1 (FF campaigns only; a device-fault
// record's per-FF fields are zero) or the recovery account (device-fault
// campaigns only), then detection.
func CampaignViews(c *experiment.Campaign) []Artefact {
	out := []Artefact{{"outcomes", "Outcomes", Outcomes(c)}}
	if c.Cfg.DeviceFaults {
		out = append(out, Artefact{"recovery", "Recovery — strategy " + c.RecoveryStats().Strategy, Recovery(c)})
	} else {
		out = append(out,
			Artefact{"table4", table4Title, Conditions(c)},
			Artefact{"sec4.3.1", sec431Title, Contribution(c)})
	}
	return append(out, Artefact{"detection", "Detection — bounds-check coverage and latency", Detection(c)})
}

// WriteCampaign writes the Markdown document of one campaign: a header
// naming it, then its CampaignViews.
func WriteCampaign(w io.Writer, c *experiment.Campaign) error {
	if _, err := fmt.Fprintf(w, "# Fault-injection campaign: %s\n\n- experiments: %d (seed %d)\n- fault-free reference accuracy: %.3f\n\n",
		c.Cfg.Workload.Name, c.Cfg.Experiments, c.Cfg.Seed, c.RefAcc); err != nil {
		return err
	}
	return WriteMarkdown(w, CampaignViews(c))
}

// WriteJSON writes artefacts as indented JSON.
func WriteJSON(w io.Writer, artefacts []Artefact) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(artefacts)
}

// WriteMarkdown writes each artefact that has rows as a Markdown table,
// followed by the specs of the campaigns its rows come from. A share of no
// trials has no interval and no verdict.
func WriteMarkdown(w io.Writer, artefacts []Artefact) error {
	bw := bufio.NewWriter(w)
	written := 0
	for _, a := range artefacts {
		if len(a.Rows) == 0 {
			continue
		}
		if written++; written > 1 {
			fmt.Fprintln(bw)
		}
		fmt.Fprintf(bw, "## %s\n\n| row | measured | n | seed | 99 %% CI | paper | verdict |\n|---|---|---|---|---|---|---|\n", a.Title)
		var specs []string
		for _, r := range a.Rows {
			ci := ""
			if r.Share != nil && r.Share.Trials > 0 {
				ci = fmt.Sprintf("%.1f–%.1f %%", 100*r.Share.Lo, 100*r.Share.Hi)
			}
			fmt.Fprintf(bw, "| %s | %s | %d | %d | %s | %s | %s |\n", cell(r.Label), cell(r.Measured), r.N, r.Seed, ci, cell(r.Paper), r.Verdict)
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
