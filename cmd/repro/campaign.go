package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dist"
	"repro/internal/experiment"
	"repro/internal/paper"
	"repro/internal/record"
	"repro/internal/recovery"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// campaignFlags registers the flags that describe *which* campaign runs
// directly onto a dist.CampaignSpec: the spec is the one description of a
// campaign and CampaignSpec.Config its one validator, shared with campaignd.
// -recovery additionally accepts "all" (the head-to-head loop in
// runCampaign).
func campaignFlags(fs *flag.FlagSet, spec *dist.CampaignSpec) {
	fs.StringVar(&spec.Workload, "workload", "resnet", "workload to inject into")
	fs.IntVar(&spec.Experiments, "n", 100, "number of fault-injection experiments")
	fs.Int64Var(&spec.Seed, "seed", 1, "campaign seed")
	fs.IntVar(&spec.Iters, "iters", 0, "override the workload's fault-free training length (0 = workload default)")
	fs.StringVar(&spec.DeviceFaults, "device-faults", "", "run a system-level device-fault campaign instead of FF bit flips: \"all\" or a comma-separated subset of link-sdc,stuck-at,straggler,crash")
	fs.StringVar(&spec.Recovery, "recovery", "", "with -device-faults: recovery strategy (reexec, jit, elastic, degraded; unset = unmitigated), or \"all\" to replay the same fault population unmitigated and under every strategy head-to-head")
	fs.BoolVar(&spec.Dedup, "dedup", false, "deduplicate injections with byte-identical effective corruptions: run one owner per equivalence class, adopt its record for the rest (exact; records carry adopted_from provenance)")
	fs.BoolVar(&spec.EarlyExit, "early-exit", false, "terminate an experiment once its state digest matches the golden run's — the remaining iterations are provably identical and are synthesized from the golden trace (exact) — and classify one whose fault provably touches nothing without running it; with -device-faults only the latter applies")
}

// runCampaign is `repro campaign`: it runs a statistical fault-injection
// campaign (Sec 3.3) and prints the document `repro report` writes from the
// campaign's -json archive (paper.WriteCampaign: the Fig-3 outcome
// breakdown, the Table-4 necessary-condition ranges and Sec-4.3.1 FF-class
// contribution or the recovery account, detection coverage and latency),
// then the execution account (Campaign.ForkSummary).
//
// Long campaigns are crash-safe and observable: -journal appends every
// completed experiment to a write-ahead JSONL log (fsync-batched), an
// interrupt drains in-flight workers and flushes before returning, -resume
// continues an interrupted journal byte-identically to an uninterrupted run,
// and -status-addr serves live progress (/status JSON, expvar, pprof).
//
// With -worker it instead attaches to a campaignd coordinator as a
// distributed-campaign worker: it polls for shard leases, runs each shard
// through the same campaign machinery, and uploads the shard's journal
// lines. Campaign parameters then come from the leases, so the local
// campaign-shaping flags are ignored and the journal/report flags rejected.
//
//	repro campaign -workload resnet -n 5000 -journal run.jsonl -status-addr :6070
//	# ... ^C, crash, or OOM ...
//	repro campaign -workload resnet -n 5000 -journal run.jsonl -resume
//	repro campaign -worker http://127.0.0.1:8080 -worker-drain
func runCampaign(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flagSet("campaign", stderr)
	var spec dist.CampaignSpec
	campaignFlags(fs, &spec)
	var (
		all        = fs.Bool("all", false, "run every Table-2 workload")
		csvOut     = fs.String("csv", "", "write per-experiment rows to this CSV file")
		jsonOut    = fs.String("json", "", "write the full campaign record to this JSON file")
		stride     = fs.Int("snapshot-stride", 0, "golden-prefix snapshot stride: 0 = auto (memory-bounded), >0 explicit, <0 disable forking")
		journal    = fs.String("journal", "", "write-ahead journal path: append each completed experiment (crash-safe, fsync-batched)")
		resume     = fs.Bool("resume", false, "continue the campaign recorded in -journal, skipping completed experiments")
		repair     = fs.Bool("repair-journal", false, "truncate a torn final journal line (crash mid-append) before resuming")
		statusAddr = fs.String("status-addr", "", "serve live telemetry on this address (/status, /debug/vars, /debug/pprof)")
		scrubWS    = fs.Bool("scrub-workspaces", false, "NaN-poison pooled engines' kernel scratch buffers between experiments (exact; debugging invariant check for scratch-state leaks)")

		worker      = fs.String("worker", "", "attach to this campaignd coordinator URL (e.g. http://127.0.0.1:8080) as a distributed-campaign worker instead of running a local campaign; campaign parameters come from the coordinator's leases")
		workerID    = fs.String("worker-id", "", "with -worker: worker identity shown in campaignd status views (default worker-<pid>)")
		workerDrain = fs.Bool("worker-drain", false, "with -worker: exit once the coordinator reports every campaign finished, instead of polling for new work")
		workerPoll  = fs.Duration("worker-poll", 500*time.Millisecond, "with -worker: idle polling interval while no shard is available")
	)
	if err := fs.Parse(args); err != nil {
		return usage(err)
	}

	// Worker mode runs shards of coordinator-submitted campaigns; local
	// journals and reports don't exist there, so those flags are a
	// misunderstanding worth rejecting loudly.
	if *worker != "" && (*all || *journal != "" || *resume || *repair || *csvOut != "" || *jsonOut != "") {
		return fail(stderr, "campaign", errors.New("-worker runs shards for a campaignd coordinator; it cannot be combined with -all, -journal, -resume, -repair-journal, -csv, or -json (submit the campaign to the coordinator instead)"))
	}
	if *journal != "" && *all {
		return fail(stderr, "campaign", errors.New("-journal tracks one campaign; it cannot be combined with -all"))
	}
	recoveryAll := spec.Recovery == "all"
	if recoveryAll {
		// The head-to-head mode runs five campaigns over one fault
		// population; a single journal/report file can't describe that.
		if *journal != "" || *csvOut != "" || *jsonOut != "" {
			return fail(stderr, "campaign", errors.New("-recovery all replays the campaign under every strategy; it cannot be combined with -journal, -csv, or -json (run the strategies individually to archive them)"))
		}
		// Validated as a mitigated campaign; runHeadToHead sets each strategy.
		spec.Recovery = recovery.StrategyReexec.String()
	}

	if *statusAddr != "" {
		srv, err := telemetry.Serve(*statusAddr)
		if err != nil {
			return fail(stderr, "campaign", err)
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "telemetry: http://%s/status\n", srv.Addr())
	}

	if *worker != "" {
		dstats := &telemetry.DistStats{}
		telemetry.ActivateDist(dstats)
		err := dist.RunWorker(ctx, dist.WorkerOptions{
			Coordinator: *worker,
			ID:          *workerID,
			Drain:       *workerDrain,
			Poll:        *workerPoll,
			Output:      stdout,
			Stats:       dstats,
		})
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stdout, "worker: interrupted; held leases will expire and be reassigned")
			return 130
		} else if err != nil {
			return fail(stderr, "campaign", err)
		}
		return 0
	}

	// Resolve every campaign before the first golden run, so a bad flag
	// costs nothing.
	names := []string{spec.Workload}
	if *all {
		names = names[:0]
		for _, w := range workloads.All() {
			names = append(names, w.Name)
		}
	}
	var cfgs []experiment.Config
	for _, name := range names {
		spec.Workload = name
		cfg, err := spec.Config()
		if err != nil {
			return fail(stderr, "campaign", err)
		}
		cfg.SnapshotStride = *stride
		cfg.ScrubWorkspaces = *scrubWS
		cfgs = append(cfgs, cfg)
	}

	for _, cfg := range cfgs {
		g := experiment.PrepareGolden(cfg)

		if recoveryAll {
			if err := runHeadToHead(ctx, cfg, g, stdout); errors.Is(err, context.Canceled) {
				fmt.Fprintln(stdout, "\ninterrupted during the head-to-head comparison")
				return 130
			} else if err != nil {
				return fail(stderr, "campaign", err)
			}
			continue
		}

		stats := telemetry.NewCampaignStats(cfg.Workload.Name, cfg.Experiments, cfg.WorkerCount())
		telemetry.Activate(stats)

		var j *record.Journal
		var prior map[int]experiment.Record
		if *journal != "" {
			if *repair {
				removed, err := record.RepairJournal(*journal)
				if err != nil {
					return fail(stderr, "campaign", err)
				}
				if removed > 0 {
					fmt.Fprintf(stdout, "repaired journal %s: truncated %d bytes of torn tail\n", *journal, removed)
				}
			}
			if _, err := os.Stat(*journal); err == nil {
				if !*resume {
					return fail(stderr, "campaign", fmt.Errorf("journal %s already exists; pass -resume to continue it or remove the file", *journal))
				}
				j, prior, err = record.OpenJournal(*journal, cfg, g.Ref().Digest())
				if err != nil {
					return fail(stderr, "campaign", err)
				}
				fmt.Fprintf(stdout, "resuming journal %s: %d/%d experiments already complete\n", *journal, len(prior), cfg.Experiments)
			} else {
				j, err = record.CreateJournal(*journal, cfg, g.Ref().Digest())
				if err != nil {
					return fail(stderr, "campaign", err)
				}
			}
			j.SetStats(stats)
		}

		var sink experiment.Sink
		if j != nil {
			sink = j
		}
		c, runErr := experiment.Resume(cfg, experiment.RunOptions{
			Context: ctx, Golden: g, Prior: prior, Sink: sink, Stats: stats,
		})
		if j != nil {
			if err := j.Close(); err != nil {
				return fail(stderr, "campaign", err)
			}
		}
		if errors.Is(runErr, context.Canceled) {
			fmt.Fprintf(stdout, "\ninterrupted: %d/%d experiments complete", c.Completed, cfg.Experiments)
			if *journal != "" {
				fmt.Fprintf(stdout, " and journaled to %s — rerun with -resume to continue", *journal)
			}
			fmt.Fprintln(stdout)
			return 130
		} else if runErr != nil {
			return fail(stderr, "campaign", runErr)
		}

		if err := paper.WriteCampaign(stdout, c); err != nil {
			return fail(stderr, "campaign", err)
		}
		fmt.Fprintf(stdout, "\n%s\n\n", c.ForkSummary())

		if *csvOut != "" {
			if err := writeFile(*csvOut, func(w io.Writer) error { return record.WriteCampaignCSV(w, c) }); err != nil {
				return fail(stderr, "campaign", err)
			}
			fmt.Fprintln(stdout, "wrote", *csvOut)
		}
		if *jsonOut != "" {
			if err := writeFile(*jsonOut, func(w io.Writer) error { return record.WriteCampaignJSON(w, c) }); err != nil {
				return fail(stderr, "campaign", err)
			}
			fmt.Fprintln(stdout, "wrote", *jsonOut)
		}
	}
	return 0
}

// runHeadToHead replays one device-fault population unmitigated and under
// every recovery strategy, all forking from the same golden reference (the
// golden cache binds workload/seed/horizon only, never the mitigation
// settings), and prints one artefact: each strategy's paper.Recovery rows,
// prefixed with its name, over identical faults.
func runHeadToHead(ctx context.Context, base experiment.Config, g *experiment.Golden, stdout io.Writer) error {
	base.Recovery = recovery.StrategyNone
	a := paper.Artefact{ID: "recovery", Title: fmt.Sprintf("Recovery head-to-head — %s, the same %d device faults under every strategy",
		base.Workload.Name, base.Experiments)}
	for _, s := range append([]recovery.Strategy{recovery.StrategyNone}, recovery.Strategies...) {
		cfg := base
		cfg.Recovery = s
		stats := telemetry.NewCampaignStats(cfg.Workload.Name, cfg.Experiments, cfg.WorkerCount())
		telemetry.Activate(stats)
		c, err := experiment.Resume(cfg, experiment.RunOptions{Context: ctx, Golden: g, Stats: stats})
		if err != nil {
			return err
		}
		name := s.String()
		if s == recovery.StrategyNone {
			name = "unmitigated"
		}
		for _, r := range paper.Recovery(c) {
			r.Label = name + " " + r.Label
			a.Rows = append(a.Rows, r)
		}
	}
	return paper.WriteMarkdown(stdout, []paper.Artefact{a})
}
