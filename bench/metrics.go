package main

// The metric registry: every metric the benchmark prints, with its unit and
// direction. BENCHMARK.json at the repository root is generated from it
// (`bench -describe`), so the two cannot drift apart.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees, with the share of
// the parent's median by which each may get worse before a change counts as
// a regression. README.md records the measured noise behind the bounds.
var endToEnd = []metricDef{
	{"experiments_per_s", "1/s", higher, 0.25},
	{"cpu_s_per_experiment", "s", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.20},
	{"train_iters_per_experiment", "1", lower, 0.02},
}

// perLayer are the single-layer metrics a traced run prints; module names
// are the layers. A layer a workload never enters reads zero there.
// README.md lists which end-to-end metric each should move, and where.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "experiment.pass_s", Unit: "s", Better: lower},
		{Name: "experiment.golden_prep_s", Unit: "s", Better: lower},
		{Name: "experiment.golden_prep_cold_s", Unit: "s", Better: lower},
		{Name: "experiment.plan_s", Unit: "s", Better: lower},
		{Name: "experiment.iters_executed", Unit: "count", Better: lower},
		{Name: "experiment.iters_skipped", Unit: "count", Better: higher},
		{Name: "experiment.iters_synthesized", Unit: "count", Better: higher},
		{Name: "experiment.fork_skip_ratio", Unit: "1", Better: higher},
		{Name: "experiment.dedup_adopted", Unit: "count", Better: higher},
		{Name: "experiment.early_exits", Unit: "count", Better: higher},
		{Name: "experiment.warm_restores", Unit: "count", Better: higher},
		{Name: "experiment.cold_restores", Unit: "count", Better: lower},
		{Name: "experiment.snapshots", Unit: "count", Better: lower},
		{Name: "experiment.snapshot_mb", Unit: "MiB", Better: lower},
		{Name: "experiment.worker_busy_share", Unit: "1", Better: higher},
		{Name: "train.iter_us", Unit: "us", Better: lower},
		{Name: "train.engine_build_us", Unit: "us", Better: lower},
		{Name: "train.reset_restore_us", Unit: "us", Better: lower},
		{Name: "train.snapshot_us", Unit: "us", Better: lower},
		{Name: "train.state_digest_us", Unit: "us", Better: lower},
		{Name: "train.evaluate_us", Unit: "us", Better: lower},
		{Name: "train.snapshot_replica_us", Unit: "us", Better: lower},
		{Name: "train.restore_replica_us", Unit: "us", Better: lower},
	}
	for _, dir := range []string{"fwd", "bwd"} {
		for _, kind := range layerKinds {
			defs = append(defs, metricDef{Name: "nn." + dir + "_us." + kind, Unit: "us", Better: lower})
		}
	}
	for _, size := range []string{"", "_128"} {
		for _, form := range []string{"f32", "ta", "tb", "bf16"} {
			defs = append(defs, metricDef{Name: "tensor.gemm_" + form + size + "_gflops", Unit: "GFLOP/s", Better: higher})
		}
	}
	return append(defs, []metricDef{
		{Name: "tensor.im2col_gbps", Unit: "GB/s", Better: higher},
		{Name: "tensor.col2im_gbps", Unit: "GB/s", Better: higher},
		{Name: "tensor.absmax_gbps", Unit: "GB/s", Better: higher},
		{Name: "tensor.addbias_gbps", Unit: "GB/s", Better: higher},
		{Name: "opt.adam_step_us", Unit: "us", Better: lower},
		{Name: "comm.allreduce_us", Unit: "us", Better: lower},
		{Name: "comm.allreduce_degraded_us", Unit: "us", Better: lower},
		{Name: "comm.retries", Unit: "count", Better: lower},
		{Name: "detect.check_engine_us", Unit: "us", Better: lower},
		{Name: "detect.group_check_us", Unit: "us", Better: lower},
		{Name: "recovery.quarantines", Unit: "count", Better: lower},
		{Name: "recovery.rejoins", Unit: "count", Better: lower},
		{Name: "recovery.jit_snapshots", Unit: "count", Better: lower},
		{Name: "recovery.readmits", Unit: "count", Better: lower},
		{Name: "recovery.mean_ttr_iters", Unit: "iters", Better: lower},
		{Name: "recovery.hangs", Unit: "count", Better: lower},
		{Name: "fault.apply_us", Unit: "us", Better: lower},
		{Name: "outcome.classify_us", Unit: "us", Better: lower},
		{Name: "record.append_us", Unit: "us", Better: lower},
		{Name: "record.append_p99_us", Unit: "us", Better: lower},
		{Name: "record.flush_ms", Unit: "ms", Better: lower},
		{Name: "record.flush_max_ms", Unit: "ms", Better: lower},
		{Name: "record.appends", Unit: "count", Better: lower},
		{Name: "record.flushes", Unit: "count", Better: lower},
		{Name: "record.journal_kb", Unit: "KiB", Better: lower},
		{Name: "record.open_journal_ms", Unit: "ms", Better: lower},
		{Name: "record.merge_ms", Unit: "ms", Better: lower},
		{Name: "dist.lease_rtt_ms", Unit: "ms", Better: lower},
		{Name: "dist.lease_rtt_max_ms", Unit: "ms", Better: lower},
		{Name: "dist.complete_rtt_ms", Unit: "ms", Better: lower},
		{Name: "dist.complete_rtt_max_ms", Unit: "ms", Better: lower},
		{Name: "dist.handler_busy_s", Unit: "s", Better: lower},
		{Name: "dist.leases_granted", Unit: "count", Better: lower},
		{Name: "dist.shards_merged", Unit: "count", Better: lower},
		{Name: "dist.lease_retries", Unit: "count", Better: lower},
		{Name: "dist.worker_idle_share", Unit: "1", Better: lower},
		{Name: "runtime.alloc_mb_per_experiment", Unit: "MiB", Better: lower},
		{Name: "runtime.gc_cpu_share", Unit: "1", Better: lower},
		{Name: "runtime.num_gc", Unit: "count", Better: lower},
		{Name: "trace.overhead_share", Unit: "1", Better: lower},
		{Name: "trace.model_coverage", Unit: "1", Better: higher},
	}...)
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric in defs by name with its unit, then the
// result line. A metric missing from values is a bug in the harness, not a
// zero.
func report(w io.Writer, defs []metricDef, values map[string]float64, notes map[string]string, attempted, failed int) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "metric %-36s %14.6g %-8s %s\n", d.Name, v, d.Unit, notes[d.Name])
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadWhy `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds, so none are written
}

type workloadWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// describe renders BENCHMARK.json from the registry.
func describe(w io.Writer) error {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, d := range workloadDefs {
		f.Workloads = append(f.Workloads, workloadWhy{d.name, d.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(f)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
