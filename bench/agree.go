package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/experiment"
)

// runAgree checks the benchmark against its own bounds: two sets of k runs
// of every workload with this binary, alternating set A and set B so both
// see the same drift, run i of either set on seed i. It prints, per
// workload and end-to-end metric, both medians, both inter-quartile ranges
// as a share of the median, and how much worse one median is than the
// other, and fails if any difference — or any spread but setup_s's, which
// the acceptance rule leaves out — exceeds the metric's bound.
func runAgree(k, seconds int, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	printHostFacts(out)
	fmt.Fprintf(out, "agree: 2 sets × %d runs × %d workloads, %d s of timed passes each\n", k, len(workloadDefs), seconds)
	fmt.Fprintf(out, "%-26s %-28s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "IQR A", "IQR B", "diff", "bound")
	var over []string
	for _, def := range workloadDefs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*k; i++ {
			res, err := childRun(self, def.name, int64(i/2+1), seconds)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", def.name, i+1, err)
			}
			for name, mv := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], mv.Value)
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			diff := math.Abs(ma-mb) / math.Min(math.Abs(ma), math.Abs(mb))
			sa, sb := iqrShare(a), iqrShare(b)
			fmt.Fprintf(out, "%-26s %-28s %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %5.0f%%\n",
				def.name, d.Name, ma, mb, 100*sa, 100*sb, 100*diff, 100*d.Bound)
			if diff > d.Bound {
				over = append(over, fmt.Sprintf("%s/%s medians differ by %.2f%% (bound %.0f%%)", def.name, d.Name, 100*diff, 100*d.Bound))
			}
			if spread := math.Max(sa, sb); d.Name != "setup_s" && spread > d.Bound {
				over = append(over, fmt.Sprintf("%s/%s spreads %.2f%% (bound %.0f%%)", def.name, d.Name, 100*spread, 100*d.Bound))
			}
		}
		// Every run made, in the order made (A1 B1 A2 B2 …).
		for _, d := range endToEnd {
			fmt.Fprintf(out, "  runs %-24s", d.Name)
			for i := 0; i < 2*k; i++ {
				fmt.Fprintf(out, " %.5g", sets[i%2][d.Name][i/2])
			}
			fmt.Fprintln(out)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("the two sets disagree beyond the bounds:\n  %s", strings.Join(over, "\n  "))
	}
	fmt.Fprintln(out, "agree: every difference and spread is within its bound")
	return nil
}

// childRun runs one untraced benchmark run in a fresh process and parses
// the result line it ends with.
func childRun(self, workload string, seed int64, seconds int) (result, error) {
	var res result
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte{'\n'})
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	if res.Failed > 0 {
		return res, fmt.Errorf("%d of %d experiments failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// scanSeeds prints, for every campaign seed in "lo:hi", the training
// iterations the workload's campaign executes — the machine-independent
// cost of that population. The matched seed tables in seeds.go are the
// seeds of one such scan closest to its median.
func scanSeeds(def workloadDef, span string, population int, out io.Writer) error {
	los, his, ok := strings.Cut(span, ":")
	lo, err1 := strconv.ParseInt(los, 10, 64)
	hi, err2 := strconv.ParseInt(his, 10, 64)
	if !ok || err1 != nil || err2 != nil || lo > hi {
		return fmt.Errorf("-scan-seeds wants lo:hi, got %q", span)
	}
	for s := lo; s <= hi; s++ {
		// A one-entry table makes every benchmark seed resolve to s.
		def.seeds = []int64{s}
		cfg, err := params{def: def, population: population}.config()
		if err != nil {
			return err
		}
		c, err := experiment.Resume(cfg, experiment.RunOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "campaign_seed=%d iters_executed=%d adopted=%d early_exits=%d\n",
			s, c.IterationsExecuted, c.ExperimentsAdopted, c.EarlyExits)
	}
	return nil
}
