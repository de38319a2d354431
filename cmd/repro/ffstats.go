package main

import (
	"context"
	"fmt"
	"io"

	"repro"
	"repro/internal/accel"
)

// runFFStats is `repro ffstats`: it prints the modeled accelerator's
// flip-flop inventory (the population view behind Table 1) and runs the
// structural software-fault-model validation of Sec 3.2.3; -workloads
// lists the Table-2 workload zoo instead.
func runFFStats(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flagSet("ffstats", stderr)
	var (
		validate  = fs.Int("validate", 200, "structural validation trials (0 to skip)")
		seed      = fs.Int64("seed", 1, "validation seed")
		workloads = fs.Bool("workloads", false, "list the Table-2 workload zoo instead")
	)
	if err := fs.Parse(args); err != nil {
		return usage(err)
	}

	if *workloads {
		fmt.Fprintf(stdout, "%-18s %-42s %s\n", "name", "paper workload", "optimizer/norm")
		for _, w := range repro.Workloads() {
			norm := "no norm"
			if w.HasNorm {
				norm = fmt.Sprintf("BN momentum %.2f", w.BNMomentum)
			}
			fmt.Fprintf(stdout, "%-18s %-42s %s, %s\n", w.Name, w.Paper, w.NewOptimizer().Name(), norm)
		}
		return 0
	}

	fmt.Fprintln(stdout, "modeled accelerator FF inventory (NVDLA-style, Table 1 populations):")
	fmt.Fprintf(stdout, "  %-22s %10s %9s\n", "FF class", "count", "fraction")
	var total int
	for _, row := range repro.Inventory() {
		fmt.Fprintf(stdout, "  %-22s %10d %8.2f%%\n", row.Kind, row.Count, 100*row.Fraction)
		total += row.Count
	}
	fmt.Fprintf(stdout, "  %-22s %10d\n", "total", total)
	fmt.Fprintf(stdout, "\n  global control FFs: ~%d (%d unique control variables)\n",
		accel.GlobalControlFFCount, accel.UniqueControlVariables)
	fmt.Fprintf(stdout, "  MAC units per cycle: %d; input channels per fetch: %d\n",
		accel.MACUnits, accel.InputChannelsPerCycle)

	if *validate > 0 {
		agree, n := repro.ValidateFaultModels(*validate, *seed)
		fmt.Fprintf(stdout, "\nsoftware-fault-model validation (Sec 3.2.3): %d/%d structural trials agree\n", agree, n)
	}
	return 0
}
