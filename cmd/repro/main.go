// Command repro is the reproduction's command-line tool: one binary whose
// subcommands — campaign, faultsim, mitigate, outcomesearch, report and
// paper — are the tasks of the paper's artifact. `repro` alone lists them;
// `repro <subcommand> -h` lists a subcommand's flags.
//
// Only main touches the process. A subcommand reads its flags from args,
// writes to the writers it is handed and returns its exit status — 1 on an
// error, 2 on a usage error, 130 when the context (SIGINT/SIGTERM) cancels
// it — so the tests drive every subcommand in-process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

type command struct {
	name, summary string
	run           func(ctx context.Context, args []string, stdout, stderr io.Writer) int
}

var commands = []command{
	{"campaign", "statistical fault-injection campaign: Fig-3 breakdown, Table-4 ranges, journals, device faults, campaignd worker", runCampaign},
	{"faultsim", "one fault-injection experiment: faulty vs fault-free trace and outcome", runFaultsim},
	{"mitigate", "end-to-end detection and re-execution recovery demo", runMitigate},
	{"outcomesearch", "sweep a workload's injection space and report every unexpected outcome", runOutcomeSearch},
	{"report", "render an archived campaign JSON as a Markdown report", runReport},
	{"paper", "regenerate every table and figure of the paper's evaluation as paper.json and paper.md", runPaper},
}

func main() {
	// SIGINT/SIGTERM cancel the context: a campaign drains its in-flight
	// experiments, flushes its journal and reports partial progress.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run dispatches args[0] to its subcommand.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(ctx, args[1:], stdout, stderr)
			}
		}
		fmt.Fprintf(stderr, "repro: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: repro <subcommand> [flags]; repro <subcommand> -h lists its flags")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-14s %s\n", c.name, c.summary)
	}
	return 2
}

// flagSet returns a subcommand's flag set; usage and parse errors go to
// stderr.
func flagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// usage is the exit status for a failed FlagSet.Parse: 0 after -h, 2
// otherwise, as flag.ExitOnError would have exited.
func usage(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// fail reports a subcommand's error and returns exit status 1.
func fail(stderr io.Writer, name string, err error) int {
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return 1
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
