package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/paper"
)

// runPaper is `repro paper`: it regenerates every table and figure of the
// paper's evaluation (package paper) and writes them to -out as paper.json
// and paper.md. The rows come from pinned inputs, so two runs — and a
// -tags purego build — write the same bytes as the copy under results/.
//
//	repro paper -out results
func runPaper(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flagSet("paper", stderr)
	out := fs.String("out", "results", "directory to write paper.json and paper.md into")
	if err := fs.Parse(args); err != nil {
		return usage(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(stderr, "paper", err)
	}
	artefacts := paper.All()
	for _, f := range []struct {
		name  string
		write func(io.Writer, []paper.Artefact) error
	}{{"paper.json", paper.WriteJSON}, {"paper.md", writePaperMarkdown}} {
		path := filepath.Join(*out, f.name)
		if err := writeFile(path, func(w io.Writer) error { return f.write(w, artefacts) }); err != nil {
			return fail(stderr, "paper", err)
		}
		fmt.Fprintln(stdout, "wrote", path)
	}
	return 0
}

// writePaperMarkdown is paper.md: a heading, the count of rows per
// verdict, then every artefact's table.
func writePaperMarkdown(w io.Writer, artefacts []paper.Artefact) error {
	verdicts := map[paper.Verdict]int{}
	for _, a := range artefacts {
		for _, r := range a.Rows {
			verdicts[r.Verdict]++
		}
	}
	fmt.Fprintf(w, "# The paper's evaluation, regenerated\n\n"+
		"Verdicts: %d consistent, %d inconclusive, %d contradicts.\n\n"+
		"Written by `repro paper`; EXPERIMENTS.md interprets it. Absolute numbers come from\n"+
		"laptop-scale stand-ins for the paper's workloads and campaigns of tens of\n"+
		"experiments, so read the 99 %% Wilson intervals before the point values. A row\n"+
		"whose citation states a number carries a verdict on it: `contradicts` when its\n"+
		"99 %% interval (an exact value's is the value) misses the paper's band,\n"+
		"`consistent` when it meets the band and is at most twice as wide, and\n"+
		"`inconclusive` when it meets the band but is wider.\n\n",
		verdicts[paper.Consistent], verdicts[paper.Inconclusive], verdicts[paper.Contradicts])
	return paper.WriteMarkdown(w, artefacts)
}
