package record

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/outcome"
	"repro/internal/stats"
)

// ReadCampaignJSON parses a campaign summary written by WriteCampaignJSON.
// The returned value is the wire structure (the live Campaign cannot be
// reconstructed without re-running — traces are not archived), which is
// what report rendering consumes.
func ReadCampaignJSON(r io.Reader) (*CampaignJSON, error) {
	var j CampaignJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("record: parsing campaign: %w", err)
	}
	return &j, nil
}

// RenderMarkdown writes a human-readable Markdown report of an archived
// campaign: the outcome breakdown with confidence intervals, detection
// statistics, and condition-value extremes. It operates on the wire form so
// reports can be produced long after the campaign ran.
func RenderMarkdown(w io.Writer, c *CampaignJSON) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# Fault-injection campaign: %s\n\n", c.Workload)
	fmt.Fprintf(bw, "- experiments: %d (seed %d)\n", c.Experiments, c.Seed)
	fmt.Fprintf(bw, "- fault-free reference accuracy: %.3f\n\n", c.RefAcc)

	// Outcome breakdown.
	counts := map[string]int{}
	for _, r := range c.Records {
		counts[r.Outcome]++
	}
	var names []string
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(bw, "## Outcomes")
	fmt.Fprintln(bw, "")
	fmt.Fprintln(bw, "| outcome | count | share | 99% CI |")
	fmt.Fprintln(bw, "|---|---|---|---|")
	for _, name := range names {
		p := stats.WilsonInterval(counts[name], len(c.Records), 0.99)
		fmt.Fprintf(bw, "| %s | %d | %.1f%% | %.1f%%–%.1f%% |\n",
			name, counts[name], 100*p.P, 100*p.Lo, 100*p.Hi)
	}

	// Detection statistics.
	var detected, latent int
	maxLat := 0
	for _, r := range c.Records {
		o, err := outcomeFromName(r.Outcome)
		if err == nil && (o.IsLatent() || o == outcome.ShortTermINFNaN) {
			latent++
			if r.DetectIter >= 0 {
				detected++
				fi := r.Injection.Iteration
				if r.DeviceFault != nil {
					fi = r.DeviceFault.Iteration
				}
				if l := r.DetectIter - fi; l > maxLat {
					maxLat = l
				}
			}
		}
	}
	fmt.Fprintln(bw, "\n## Detection")
	if latent > 0 {
		fmt.Fprintf(bw, "\nbounds checks flagged %d/%d latent or short-term outcomes; max latency %d iterations.\n",
			detected, latent, maxLat)
	} else {
		fmt.Fprintln(bw, "\nno latent outcomes in this campaign.")
	}

	// Condition extremes.
	var hist, mvar stats.Range
	for _, r := range c.Records {
		o, err := outcomeFromName(r.Outcome)
		if err != nil || (!o.IsLatent() && o != outcome.ShortTermINFNaN) {
			continue
		}
		if v := maxf(float64(r.HistAtT), float64(r.HistAtT1)); v > 0 {
			hist.Observe(v)
		}
		if v := maxf(float64(r.MvarAtT), float64(r.MvarAtT1)); v > 0 {
			mvar.Observe(v)
		}
	}
	fmt.Fprintln(bw, "\n## Necessary-condition values (within 2 iterations of the fault)")
	fmt.Fprintf(bw, "\n- |gradient history|: %s\n- |moving variance|: %s\n", hist.String(), mvar.String())

	// FF-kind contribution.
	kindUnexpected := map[string]int{}
	for _, r := range c.Records {
		if o, err := outcomeFromName(r.Outcome); err == nil && o.IsUnexpected() {
			kindUnexpected[r.Injection.Kind]++
		}
	}
	if len(kindUnexpected) > 0 {
		fmt.Fprintln(bw, "\n## Unexpected outcomes by FF class")
		fmt.Fprintln(bw, "")
		var kinds []string
		for k := range kindUnexpected {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(bw, "- %s: %d\n", k, kindUnexpected[k])
		}
	}
	return bw.Flush()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
