package main

// One benchmark run: an untimed reference pass, set-up repetitions spread
// between the timed passes, the timed passes themselves, and — for a
// traced run — half the passes behind span recorders plus the layer probes.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/record"
	"repro/internal/telemetry"
)

// runner is what the run loop needs from a workload.
type runner interface {
	// setup is one repetition of everything that precedes the first
	// experiment; what it prepares serves the next pass.
	setup() (seconds float64, err error)
	// reference runs the untimed oracle pass the timed ones are checked
	// against.
	reference() error
	// pass runs one timed campaign; rec non-nil makes it a traced pass.
	pass(rec *recorder) (passResult, error)
}

// measurement is everything one run observed.
type measurement struct {
	p params
	// setups are the set-up repetitions; goldenPreps the PrepareGolden
	// share of them (the same thing except on dist-resnet, whose set-up is
	// a whole cold service start).
	setups      []float64
	goldenPreps []float64
	untraced    []passResult
	traced      []passResult
	ref         *oracle
	cfg         experiment.Config
	golden      *experiment.Golden
	rec         *recorder
	// allocBytes, gcs and gcShare are the Go runtime's account of the
	// traced passes.
	allocBytes uint64
	gcs        uint32
	gcShare    float64
	// dist is the traced service's final counter snapshot.
	dist telemetry.DistSnapshot
}

// measure runs the workload's passes. Untraced passes are the only source
// of end-to-end numbers; with p.trace every second pass runs traced.
func measure(p params) (*measurement, error) {
	m := &measurement{p: p}
	if p.trace {
		m.rec = newRecorder()
	}
	if p.def.dist {
		return m, m.measureDist()
	}
	l := &local{p: p}
	defer l.dropJournal()
	err := m.loop(l, func(k int) (*recorder, error) {
		if p.trace && k%2 == 1 {
			return m.rec, nil
		}
		return nil, nil
	})
	m.ref, m.cfg, m.golden, m.goldenPreps = l.ref, l.cfg, l.golden, m.setups
	return m, err
}

// loop is the run's skeleton: a cold set-up, the reference pass, one
// set-up before each timed pass, and the remaining set-ups after the last,
// so that a burst of neighbour interference cannot cover them all.
// before(k) runs ahead of pass k and says whether the pass is traced.
func (m *measurement) loop(r runner, before func(k int) (*recorder, error)) error {
	setup := func() error {
		s, err := r.setup()
		m.setups = append(m.setups, s)
		return err
	}
	if err := setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if err := r.reference(); err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	for k := 0; k < m.p.passes; k++ {
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rec, err := before(k)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		if rec != nil {
			rec.pass.Store(int64(k + 1))
			runtime.ReadMemStats(&before)
		}
		res, err := r.pass(rec)
		if err != nil {
			return fmt.Errorf("pass %d: %w", k+1, err)
		}
		if rec != nil {
			runtime.ReadMemStats(&after)
			m.allocBytes += after.TotalAlloc - before.TotalAlloc
			m.gcs += after.NumGC - before.NumGC
			m.gcShare = after.GCCPUFraction
			m.traced = append(m.traced, res)
		} else {
			m.untraced = append(m.untraced, res)
		}
	}
	for len(m.setups) < m.p.def.setupReps() {
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	return nil
}

// measureDist runs dist-resnet. A traced run uses two services in turn, a
// bare one and one behind the span recorders, so idle pollers of one never
// disturb the other.
func (m *measurement) measureDist() error {
	d := &distRun{p: m.p}
	defer d.close()
	service := ""
	err := m.loop(d, func(k int) (*recorder, error) {
		var rec *recorder
		want := "bare"
		if m.p.trace && k >= (m.p.passes+1)/2 {
			rec, want = m.rec, "traced"
		}
		if service != want {
			if err := d.close(); err != nil {
				return nil, err
			}
			service = want
			if err := d.start(want, rec); err != nil {
				return nil, err
			}
		}
		return rec, nil
	})
	m.ref, m.cfg, m.golden, m.goldenPreps = d.ref, d.cfg, d.golden, []float64{d.goldenPrep}
	if d.svc != nil {
		m.dist = d.svc.coord.Stats().Snapshot()
		m.dist.LeaseRetries = d.svc.dstats.Snapshot().LeaseRetries
	}
	if err != nil {
		return err
	}
	return d.close()
}

// attempts counts what the run dispatched in its timed passes and how much
// of it failed.
func (m *measurement) attempts() (attempted, failed int) {
	for _, r := range append(append([]passResult(nil), m.untraced...), m.traced...) {
		attempted += m.p.population
		failed += r.failed
	}
	return attempted, failed
}

func collect(rs []passResult, f func(passResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// itersPerExperiment is the machine-independent cost of one classified
// injection. Dist workers do not expose their counters, so dist-resnet
// reports the in-process oracle pass's: the byte-identical journal proves
// the same experiments ran.
func (m *measurement) itersPerExperiment() float64 {
	c := m.ref.camp
	if !m.p.def.dist {
		c = m.untraced[0].camp
	}
	return float64(c.IterationsExecuted) / float64(c.Completed)
}

// endToEndValues reduces the untraced passes to the end-to-end metrics.
// Throughput and CPU cost are those of the fastest pass: interference from
// the box's other tenants only ever slows a pass, and over 12 runs of each
// workload the fastest pass spread less from run to run than the median pass
// did (README.md has the numbers). Set-up time is the median repetition.
func (m *measurement) endToEndValues() (map[string]float64, map[string]string) {
	rate := collect(m.untraced, passResult.perSecond)
	cpu := collect(m.untraced, passResult.cpuPerExp)
	slowest, fastest := minMax(rate)
	cheapest, dearest := minMax(cpu)
	quickest, longest := minMax(m.setups)
	return map[string]float64{
			"experiments_per_s":          fastest,
			"cpu_s_per_experiment":       cheapest,
			"setup_s":                    median(m.setups),
			"peak_rss_mb":                peakRSSMiB(),
			"train_iters_per_experiment": m.itersPerExperiment(),
		}, map[string]string{
			"experiments_per_s":    fmt.Sprintf("fastest of %d passes, median %.4g slowest %.4g", len(rate), median(rate), slowest),
			"cpu_s_per_experiment": fmt.Sprintf("cheapest of %d passes, median %.4g dearest %.4g", len(cpu), median(cpu), dearest),
			"setup_s":              fmt.Sprintf("median of %d repetitions, min %.4g max %.4g", len(m.setups), quickest, longest),
			"peak_rss_mb":          "VmHWM at exit",
		}
}

// perLayerValues reduces the traced passes, the spans and the probes to the
// per-layer metrics.
func (m *measurement) perLayerValues() (map[string]float64, error) {
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.Name] = 0 // a layer the workload never enters reads zero
	}
	for name, x := range runProbes(m.cfg, m.golden) {
		v[name] = x
	}
	first := m.traced[0]
	passCPU := median(collect(m.traced, func(r passResult) float64 { return r.cpu }))

	// experiment
	c := first.camp
	if c == nil {
		c = m.ref.camp
	}
	v["experiment.pass_s"] = median(collect(m.traced, func(r passResult) float64 { return r.wall }))
	v["experiment.golden_prep_s"] = median(m.goldenPreps)
	v["experiment.golden_prep_cold_s"] = m.goldenPreps[0]
	prior := make(map[int]experiment.Record, len(m.ref.camp.Records))
	for i, rec := range c.Records {
		prior[i] = rec
	}
	var planErr error
	v["experiment.plan_s"] = probe(1, func() {
		if _, err := experiment.Resume(m.cfg, experiment.RunOptions{Golden: m.golden, Prior: prior}); err != nil {
			planErr = err
		}
	})
	if planErr != nil {
		return nil, fmt.Errorf("planning probe: %w", planErr)
	}
	v["experiment.iters_executed"] = float64(c.IterationsExecuted)
	v["experiment.iters_skipped"] = float64(c.IterationsSkipped)
	v["experiment.iters_synthesized"] = float64(c.IterationsSynthesized)
	v["experiment.fork_skip_ratio"] = float64(c.IterationsSkipped) / float64(c.IterationsSkipped+c.IterationsExecuted)
	v["experiment.dedup_adopted"] = float64(c.ExperimentsAdopted)
	v["experiment.early_exits"] = float64(c.EarlyExits)
	v["experiment.warm_restores"] = float64(c.WarmRestores)
	v["experiment.cold_restores"] = float64(c.ColdRestores)
	snaps, snapBytes := m.golden.Snapshots()
	v["experiment.snapshots"] = float64(snaps)
	v["experiment.snapshot_mb"] = float64(snapBytes) / (1 << 20)
	v["experiment.worker_busy_share"] = median(collect(m.traced, passResult.busyShare))

	// comm / recovery: exact counts off the campaign's records.
	rs := c.RecoveryStats()
	for _, rec := range c.Records {
		v["comm.retries"] += float64(rec.CommRetries)
		v["recovery.quarantines"] += float64(rec.Quarantines)
		v["recovery.rejoins"] += float64(rec.Rejoins)
	}
	v["recovery.jit_snapshots"] = float64(rs.JITSnapshots)
	v["recovery.readmits"] = float64(rs.Readmits)
	v["recovery.mean_ttr_iters"] = rs.MeanTTR
	v["recovery.hangs"] = float64(rs.Hangs)

	// record: the Sink decorator's spans, the ledger's counts, and the read
	// and merge paths timed directly.
	if err := m.recordValues(v, first); err != nil {
		return nil, err
	}
	if m.p.def.dist {
		if err := m.distValues(v); err != nil {
			return nil, err
		}
	}

	// runtime, over the traced passes.
	experiments := float64(len(m.traced) * m.p.population)
	v["runtime.alloc_mb_per_experiment"] = float64(m.allocBytes) / (1 << 20) / experiments
	v["runtime.gc_cpu_share"] = m.gcShare
	v["runtime.num_gc"] = float64(m.gcs)

	// trace
	_, untraced := minMax(collect(m.untraced, passResult.perSecond))
	_, traced := minMax(collect(m.traced, passResult.perSecond))
	v["trace.overhead_share"] = 1 - traced/untraced
	v["trace.model_coverage"] = m.modelSeconds(v, c, first) / passCPU
	return v, nil
}

// recordValues fills the record layer's metrics.
func (m *measurement) recordValues(v map[string]float64, first passResult) error {
	if appends := m.rec.named("record.append"); len(appends) > 0 {
		v["record.append_us"] = median(appends) * 1e6
		v["record.append_p99_us"] = quantile(appends, 0.99) * 1e6
		flushes := m.rec.named("record.flush")
		_, worst := minMax(flushes)
		v["record.flush_ms"] = median(flushes) * 1e3
		v["record.flush_max_ms"] = worst * 1e3
	}
	if first.stats != nil {
		snap := first.stats.Snapshot()
		v["record.appends"] = float64(snap.JournalAppends)
		v["record.flushes"] = float64(snap.JournalFlushes)
	}
	if first.journal == "" {
		return nil
	}
	info, err := os.Stat(first.journal)
	if err != nil {
		return err
	}
	v["record.journal_kb"] = float64(info.Size()) / 1024
	digest := m.golden.Ref().Digest()
	var openErr error
	v["record.open_journal_ms"] = 1e3 * probe(1, func() {
		j, _, err := record.OpenJournal(first.journal, m.cfg, digest)
		if err != nil {
			openErr = err
			return
		}
		j.Close()
	})
	return openErr
}

// distValues fills the dist layer's metrics from the RoundTripper and
// handler spans and the coordinator's counters, and times the merge of the
// last campaign's shard journals.
func (m *measurement) distValues(v map[string]float64) error {
	ms := func(name string) (med, worst float64) {
		xs := m.rec.named(name)
		_, worst = minMax(xs)
		return median(xs) * 1e3, worst * 1e3
	}
	v["dist.lease_rtt_ms"], v["dist.lease_rtt_max_ms"] = ms("dist.rtt/lease")
	v["dist.complete_rtt_ms"], v["dist.complete_rtt_max_ms"] = ms("dist.rtt/complete")
	passes := float64(len(m.traced))
	var handling, leased, wall float64
	for _, s := range m.rec.all() {
		switch {
		case strings.HasPrefix(s.Name, "dist.handle"):
			handling += s.dur().Seconds()
		case s.Name == "dist.shard":
			leased += s.dur().Seconds()
		case s.Name == "experiment.pass":
			wall += s.dur().Seconds()
		}
	}
	v["dist.handler_busy_s"] = handling / passes
	v["dist.worker_idle_share"] = 1 - leased/(wall*campaignWorkers)
	v["dist.leases_granted"] = float64(m.dist.LeasesGranted)
	v["dist.shards_merged"] = float64(m.dist.ShardsMerged)
	v["dist.lease_retries"] = float64(m.dist.LeaseRetries)

	// The merge, replayed over the last pass's shard files.
	files := m.traced[len(m.traced)-1].shards
	digest := m.golden.Ref().Digest()
	dst := filepath.Join(m.p.dir, "merge-probe.jsonl")
	var mergeErr error
	v["record.merge_ms"] = 1e3 * probe(1, func() {
		os.Remove(dst)
		if err := record.MergeShardJournals(dst, m.cfg, digest, files); err != nil {
			mergeErr = err
		}
	})
	return mergeErr
}

// modelSeconds is the outside-in cost model of one pass: every probe's cost
// times the number of calls the pass's counters imply. Its share of the
// pass's CPU time says how much of a pass the probes explain.
func (m *measurement) modelSeconds(v map[string]float64, c *experiment.Campaign, first passResult) float64 {
	w := m.cfg.Workload
	iters := float64(c.IterationsExecuted)
	executed := float64(c.Completed - c.ExperimentsAdopted)
	us := iters * v["train.iter_us"]
	us += executed * (v["train.reset_restore_us"] + v["outcome.classify_us"])
	us += campaignWorkers * v["train.engine_build_us"]
	if w.TestEvery > 0 {
		us += iters / float64(w.TestEvery) * v["train.evaluate_us"]
	}
	switch {
	case m.cfg.DeviceFaults:
		us += iters * v["detect.group_check_us"]
		us += v["recovery.jit_snapshots"]*v["train.snapshot_replica_us"] + v["recovery.readmits"]*v["train.restore_replica_us"]
	default:
		checks := iters
		if first.stats != nil {
			checks = float64(first.stats.Snapshot().DetectorChecks)
		}
		us += checks*v["detect.check_engine_us"] + executed*v["fault.apply_us"]
	}
	if m.cfg.EarlyExit {
		us += (iters - executed) * v["train.state_digest_us"]
	}
	us += v["record.appends"]*v["record.append_us"] + 1e3*v["record.flushes"]*v["record.flush_ms"]
	seconds := us/1e6 + v["experiment.plan_s"]
	if m.p.def.dist {
		// Every worker prepares its own golden per campaign.
		seconds += campaignWorkers*v["experiment.golden_prep_s"] + v["dist.handler_busy_s"]
	}
	return seconds
}

// runWorkload measures one workload and prints its metrics. It returns the
// number of failed experiments; the metrics are printed either way.
func runWorkload(p params, out io.Writer) (failed int, err error) {
	dir, err := os.MkdirTemp(".", ".bench_run-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	p.dir = dir

	start := time.Now()
	m, err := measure(p)
	if err != nil {
		return 0, err
	}
	attempted, failed := m.attempts()
	fmt.Fprintf(out, "records_digest %s\n", m.ref.digest())
	for _, set := range []struct {
		kind string
		rs   []passResult
	}{{"timed", m.untraced}, {"traced", m.traced}} {
		for i, r := range set.rs {
			fmt.Fprintf(out, "%s pass %d: %d experiments in %.3f s wall, %.3f s cpu, %.4g 1/s\n",
				set.kind, i+1, r.completed, r.wall, r.cpu, r.perSecond())
		}
	}
	fmt.Fprintf(out, "checked: %d experiments attempted in %d timed passes, %d failed (reference: %s)\n",
		attempted, len(m.untraced)+len(m.traced), failed, referenceKind(p.def))

	defs, values, notes := endToEnd, map[string]float64(nil), map[string]string(nil)
	if p.trace {
		// End-to-end numbers of a traced run are never reported as such.
		defs = perLayer
		if values, err = m.perLayerValues(); err != nil {
			return failed, err
		}
		if p.traceOut != "" {
			if err := m.rec.writeFile(p.traceOut); err != nil {
				return failed, err
			}
		}
		printSpanSummary(out, m.rec.all())
	} else {
		values, notes = m.endToEndValues()
	}
	fmt.Fprintf(out, "run took %.1f s\n", time.Since(start).Seconds())
	return failed, report(out, defs, values, notes, attempted, failed)
}

func referenceKind(d workloadDef) string {
	switch {
	case d.dist:
		return "in-process journal, merged journal compared byte for byte"
	case d.journal:
		return "exhaustive pass, records compared ignoring adoption/early-exit provenance"
	}
	return "same-mode pass, records compared exactly"
}

// printSpanSummary prints, per span name, the count, total and self time.
func printSpanSummary(out io.Writer, spans []span) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	self := selfTimes(spans)
	byName := map[string]*agg{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.dur()
		a.self += self[s.ID]
	}
	for _, name := range sortedKeys(byName) {
		a := byName[name]
		fmt.Fprintf(out, "span %-32s n=%-6d total=%-12v self=%v\n", name, a.n, a.total.Round(time.Microsecond), a.self.Round(time.Microsecond))
	}
}
