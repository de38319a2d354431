package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/experiment"
	"repro/internal/paper"
	"repro/internal/record"
	"repro/internal/workloads"
)

// runReport is `repro report`: it renders an archived campaign (the JSON
// `repro campaign -json` writes) as the Markdown document `repro campaign`
// printed for it (paper.WriteCampaign), derived by the same functions from
// the archived records.
//
//	repro campaign -workload resnet -n 200 -json run.json
//	repro report -in run.json > report.md
func runReport(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flagSet("report", stderr)
	var (
		in  = fs.String("in", "", "campaign JSON file (from `campaign -json`)")
		out = fs.String("out", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return usage(err)
	}
	if *in == "" {
		fmt.Fprintln(stderr, "report: -in is required")
		return 2
	}
	c, err := readArchive(*in)
	if err != nil {
		return fail(stderr, "report", err)
	}
	write := func(w io.Writer) error { return paper.WriteCampaign(w, c) }
	if *out == "" {
		err = write(stdout)
	} else {
		err = writeFile(*out, write)
	}
	if err != nil {
		return fail(stderr, "report", err)
	}
	return 0
}

// readArchive rebuilds the campaign a `repro campaign -json` archive
// holds: its records, decoded, and their outcome tally. Traces are not
// archived, so only the per-record views can be derived from it.
func readArchive(path string) (*experiment.Campaign, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	j, err := record.ReadCampaignJSON(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	w, err := workloads.ByName(j.Workload)
	if err != nil {
		return nil, err
	}
	c := &experiment.Campaign{Cfg: experiment.Config{Workload: w, Experiments: j.Experiments, Seed: j.Seed},
		RefAcc: j.RefAcc, Records: make([]experiment.Record, len(j.Records))}
	for i, rj := range j.Records {
		if c.Records[i], err = record.DecodeCampaignRecord(rj); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		c.Cfg.DeviceFaults = c.Cfg.DeviceFaults || rj.DeviceFault != nil
		c.Tally.Add(c.Records[i].Outcome)
	}
	c.Completed = len(c.Records)
	return c, nil
}
