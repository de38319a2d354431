// Package repro is the public API of the reproduction of "Understanding and
// Mitigating Hardware Failures in Deep Learning Training Accelerator
// Systems" (He et al., ISCA 2023).
//
// The library provides, built from scratch in pure Go:
//
//   - a DNN training framework with manual forward/backward passes,
//     synchronous multi-device data parallelism, Adam/SGD optimizers, and
//     BatchNorm/LayerNorm normalization (internal/nn, internal/opt,
//     internal/train);
//   - an NVDLA-style accelerator model: FF inventory with the paper's
//     population fractions, a cycle-accurate tile schedule, and a
//     structural MAC-array simulator used to validate the fault models
//     (internal/accel);
//   - the fault-injection framework implementing the Table-1 software
//     fault models plus FIdelity-style datapath models (internal/fault);
//   - the outcome taxonomy and classifier for the six unexpected outcomes,
//     including the four latent outcomes first characterized by the paper
//     (internal/outcome);
//   - the mitigation stack: Algorithm-1 detection bounds and two-iteration
//     re-execution (internal/detect, internal/recovery);
//   - the comparison baselines: ABFT checksums, activation range
//     restriction, gradient clipping, and epoch checkpointing
//     (internal/baseline, internal/recovery);
//   - a workload zoo mirroring Table 2 and a statistical campaign harness
//     (internal/workloads, internal/experiment).
//
// Quick start:
//
//	c, err := repro.RunCampaign("resnet", 100, 1)
//	if err != nil { ... }
//	for r := range c.Landed() { ... } // each experiment's Record
//
// internal/paper aggregates and renders a campaign's records (paper.WriteCampaign
// prints the document `repro campaign` prints).
//
// See the Example functions (go test -run Example -v .) for runnable
// programs, cmd/repro for the command-line tools, and internal/paper (run
// by `repro paper`) for the per-table/figure regeneration.
package repro

import (
	"repro/internal/accel"
	"repro/internal/detect"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/train"
	"repro/internal/workloads"
)

// Version identifies the library release.
const Version = "1.0.0"

// Workload bundles a Table-2 training workload: model builder, optimizer,
// dataset, and distributed-training configuration.
type Workload = workloads.Workload

// Workloads returns the full workload zoo in Table-2 order.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName resolves a workload by its campaign name ("resnet",
// "resnet_nobn", "transformer", ...).
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// Injection fully describes one fault-injection experiment.
type Injection = fault.Injection

// Pass identifies which training computation a fault lands in.
type Pass = fault.Pass

// Injection passes.
const (
	Forward        = fault.Forward
	BackwardInput  = fault.BackwardInput
	BackwardWeight = fault.BackwardWeight
)

// Outcome is a Table-3 training-outcome class.
type Outcome = outcome.Outcome

// Outcome classes.
const (
	Benign            = outcome.Benign
	SlightDegradation = outcome.SlightDegradation
	ImmediateINFNaN   = outcome.ImmediateINFNaN
	ShortTermINFNaN   = outcome.ShortTermINFNaN
	SlowDegrade       = outcome.SlowDegrade
	SharpSlowDegrade  = outcome.SharpSlowDegrade
	SharpDegrade      = outcome.SharpDegrade
	LowTestAccuracy   = outcome.LowTestAccuracy
)

// Trace records one training run's convergence trend.
type Trace = train.Trace

// Campaign is a completed statistical fault-injection campaign.
type Campaign = experiment.Campaign

// CampaignConfig parameterizes a campaign (workload, experiment count,
// seed, parallelism, horizon).
type CampaignConfig = experiment.Config

// RunCampaign runs a statistical fault-injection campaign against the named
// workload with a 1.5× fault-free-run horizon — the top-level entry point
// corresponding to the paper's 2.9M-experiment study, scaled by experiments.
func RunCampaign(workloadName string, experiments int, seed int64) (*Campaign, error) {
	w, err := workloads.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	return experiment.Run(experiment.Config{
		Workload:    w,
		Experiments: experiments,
		Seed:        seed,
		HorizonMult: 1.5,
	}), nil
}

// RunCampaignConfig runs a campaign with full control over the
// configuration.
func RunCampaignConfig(cfg CampaignConfig) *Campaign { return experiment.Run(cfg) }

// SingleInjection reproduces one fault-injection experiment (the
// counterpart of the artifact's reproduce_injections.py): it trains the
// named workload with the given injection armed and returns the faulty
// trace plus the fault-free reference.
func SingleInjection(workloadName string, inj Injection, seed int64) (faulty, ref *Trace, err error) {
	w, err := workloads.ByName(workloadName)
	if err != nil {
		return nil, nil, err
	}
	ref = train.NewTrace(w.Name + "-ref")
	w.NewEngine(rng.Seed{State: uint64(seed), Stream: 77}).Run(0, w.Iters, ref, false)

	e := w.NewEngine(rng.Seed{State: uint64(seed), Stream: 77})
	e.SetInjection(&inj)
	faulty = train.NewTrace(w.Name)
	e.Run(0, w.Iters, faulty, true)
	return faulty, ref, nil
}

// RandomInjection samples a random injection for the named workload.
func RandomInjection(workloadName string, seed int64) (Injection, error) {
	w, err := workloads.ByName(workloadName)
	if err != nil {
		return Injection{}, err
	}
	e := w.NewEngine(rng.Seed{State: uint64(seed), Stream: 77})
	s := fault.NewSampler(accel.NVDLAInventory(), rng.NewFromInt(seed))
	return s.Sample(e.Replica(0).Len(), w.Iters*4/5), nil
}

// Guarded is the full mitigation pipeline: bounds detection plus
// two-iteration re-execution wrapped around a training engine.
type Guarded = recovery.Guarded

// NewGuarded builds the mitigation stack for the named workload, with
// detection bounds derived from the workload's own properties
// (Algorithm 1).
func NewGuarded(workloadName string, seed int64) (*Guarded, *Workload, error) {
	w, err := workloads.ByName(workloadName)
	if err != nil {
		return nil, nil, err
	}
	e := w.NewEngine(rng.Seed{State: uint64(seed), Stream: 77})
	d := detect.ForEngine(e, w.BatchSize(), w.LR, true)
	return recovery.NewGuarded(e, d), w, nil
}

// InventoryRow describes one FF class of the modeled accelerator.
type InventoryRow struct {
	Kind     accel.FFKind
	Count    int
	Fraction float64
}

// Inventory returns the modeled accelerator's FF population (Table 1).
func Inventory() []InventoryRow {
	inv := accel.NVDLAInventory()
	var rows []InventoryRow
	for _, k := range accel.Kinds() {
		rows = append(rows, InventoryRow{Kind: k, Count: inv.Count(k), Fraction: inv.Fraction[k]})
	}
	return rows
}
