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
//	c.Report(os.Stdout)
//
// See the Example functions (go test -run Example -v .) for runnable
// programs, cmd/repro for the command-line tools, and bench_test.go for the
// per-table/figure regeneration harness.
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

// DetectionBounds are the Algorithm-1 thresholds.
type DetectionBounds = detect.Bounds

// DeriveBounds computes detection bounds from workload properties.
func DeriveBounds(cfg detect.Config) DetectionBounds { return detect.Derive(cfg) }

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

// ValidateFaultModels runs the structural fault-model validation
// (Sec 3.2.3): trials control-FF injections into the structural MAC-array
// simulator, each observed corruption checked against the software fault
// model's prediction. It returns (agreeing, total) trial counts.
func ValidateFaultModels(trials int, seed int64) (agree, total int) {
	kinds := accel.Kinds()[accel.GlobalG1:] // the ten global-control groups, G1..G10
	r := rng.NewFromInt(seed)
	const k, ck, w = 36, 9, 7
	for trial := 0; trial < trials; trial++ {
		arr := &accel.MACArray{Weights: accel.NewMatrix(k, ck), Inputs: accel.NewMatrix(ck, w)}
		for i := range arr.Weights.Data {
			arr.Weights.Data[i] = float32(r.NormFloat64())
		}
		for i := range arr.Inputs.Data {
			arr.Inputs.Data[i] = float32(r.NormFloat64())
		}
		clean := arr.Run(nil)
		sched := accel.NewSchedule([]int{k, w}, 0)
		f := &accel.ControlFault{
			Kind:       kinds[r.Intn(len(kinds))],
			StartCycle: r.Intn(sched.Cycles()),
			N:          1 + r.Intn(4),
			Unit:       r.Intn(accel.MACUnits),
			AddrDelta:  1 + r.Intn(w-1),
			SourceCol:  r.Intn(w),
			Rand:       r.Split(uint64(trial)),
		}
		faulty := arr.Run(f)
		pred := accel.PredictCorruption(k, w, f)
		ok := true
		for _, idx := range accel.DiffPositions(clean, faulty) {
			if !pred[idx] {
				ok = false
				break
			}
		}
		total++
		if ok {
			agree++
		}
	}
	return agree, total
}
