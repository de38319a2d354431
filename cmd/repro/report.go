package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/record"
)

// runReport is `repro report`: it renders an archived campaign (the JSON
// `repro campaign -json` writes) as a Markdown report — outcome breakdown
// with Wilson confidence intervals, detection statistics,
// necessary-condition extremes, and the FF-class contribution table.
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
	f, err := os.Open(*in)
	if err != nil {
		return fail(stderr, "report", err)
	}
	c, err := record.ReadCampaignJSON(f)
	f.Close()
	if err != nil {
		return fail(stderr, "report", err)
	}
	if *out == "" {
		err = record.RenderMarkdown(stdout, c)
	} else {
		err = writeFile(*out, func(w io.Writer) error { return record.RenderMarkdown(w, c) })
	}
	if err != nil {
		return fail(stderr, "report", err)
	}
	return 0
}
