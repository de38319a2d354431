package experiment

// Forked campaign execution: the golden-prefix snapshot cache and the
// per-worker engine pool.
//
// Every FI experiment replays the iterations before its injection point,
// and that prefix is bitwise-identical to the fault-free golden run: the
// engine's randomness is a pure function of (seed, iteration, device),
// Loader.Batch(iter) is a pure function of (dataset, seed, iter), and an
// armed injection touches nothing before its iteration. The golden run can
// therefore record train.State snapshots at iteration boundaries, and each
// experiment can restore the nearest snapshot at or before its injection
// iteration and execute only the suffix — skipping, at the default
// InjectFrac=0.8 / HorizonMult=2, about 20% of all campaign iterations
// while producing byte-identical Records and Tally (proved by
// TestForkedCampaignEquivalence, enforced under -race in ci.sh).
//
// Engine pooling compounds the win: Workload.NewEngine (model construction +
// dataset materialization + loader) runs once per campaign worker, not once
// per experiment, and the worker re-arms its engine per experiment through
// Engine.Reset (disarm injections, clear diagnostics) + Engine.Restore
// (reposition weights, optimizer state incl. the Adam step counter, and
// per-device BN moving statistics at the snapshot boundary).

import (
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/workloads"
)

// snapshotMemBudget bounds the auto-stride snapshot cache (256 MiB).
const snapshotMemBudget = 256 << 20

// Golden is the precomputed fault-free side of a campaign: the reference
// trace, its outcome classifier, and the prefix snapshot cache experiments
// fork from. It is immutable after PrepareGolden and safe to share across
// workers and across campaigns (e.g. one Golden serving every per-kind
// biased campaign of a KindSweep).
type Golden struct {
	w   *workloads.Workload
	key GoldenKey

	horizon       int
	maxInjectIter int
	numLayers     int

	ref    *train.Trace
	refAcc float64
	cls    *outcome.Classifier

	// snaps[j] is the engine state with iterations 0..bounds[j]-1 done;
	// bounds is ascending and bounds[0] == 0 (the initial state, which the
	// engine pool needs even when prefix forking is disabled).
	snaps  []*train.State
	bounds []int
	// stride is the boundary spacing actually used (0 = forking disabled,
	// only the initial snapshot is kept).
	stride int
	bytes  int64

	// Equivalence-layer instrumentation (dedup.go / earlyexit.go).
	//
	// digests[i] is the golden engine-state digest after iteration i and
	// alarms[i] whether the static-bounds detector alarms on that state;
	// both are nil when the golden run went non-finite (experiments then
	// stop at that iteration themselves, and no provable golden tail
	// exists — the same fallback that disables prefix forking).
	digests [][16]byte
	alarms  []bool
	// histAbsMax[i] / mvarAbsMax[i] are Engine.HistoryAbsMax / MvarAbsMax of
	// the golden state after iteration i — what an experiment that is the
	// golden run measures at its injection iteration (byconstruction.go).
	// Nil with digests.
	histAbsMax, mvarAbsMax []float64
	// groupAlarms[i] is the cross-replica check's verdict on the golden
	// collective of iteration i, recorded for device-fault campaigns only
	// (nil otherwise, and nil with digests): a mitigated run that is the
	// golden run quarantines whatever this schedule alarms on.
	groupAlarms []bool
	// fwdShapes[l] / bwdShapes[l] / wgtShapes[l] are the device-0 tensor
	// shapes an injection in layer l targets per pass: the layer's forward
	// output, its input gradient (= the previous layer's output shape, or
	// the batch shard for layer 0), and its primary weight gradient
	// (nil for parameter-less layers, where a backward-weight injection
	// never fires). Shapes are static across iterations, so they resolve
	// every injection's corruption program without running anything.
	fwdShapes, bwdShapes, wgtShapes [][]int
}

// Ref returns the golden reference trace.
func (g *Golden) Ref() *train.Trace { return g.ref }

// Snapshots returns the number of cached states and their total footprint.
func (g *Golden) Snapshots() (count int, bytes int64) { return len(g.snaps), g.bytes }

// Stride returns the snapshot boundary spacing (0 = prefix forking off).
func (g *Golden) Stride() int { return g.stride }

// nearest returns the largest snapshot boundary b ≤ iter and its state.
func (g *Golden) nearest(iter int) (int, *train.State) {
	j := sort.SearchInts(g.bounds, iter+1) - 1
	return g.bounds[j], g.snaps[j]
}

// resolveStride picks the snapshot stride: an explicit positive stride is
// taken as-is; a negative stride disables periodic snapshots; zero selects
// the densest stride whose cache footprint fits budget bytes.
func resolveStride(stride int, budget, perSnap int64, maxInjectIter int) int {
	if stride > 0 {
		return stride
	}
	if stride < 0 {
		return 0
	}
	if perSnap <= 0 {
		perSnap = 1
	}
	// Slots left after the always-kept initial snapshot. Useful boundaries
	// are 1..maxInjectIter-1 (an injection iteration is < maxInjectIter).
	extra := budget/perSnap - 1
	if extra < 1 {
		return 0
	}
	want := int64(maxInjectIter - 1)
	if want <= extra {
		return 1
	}
	return int((want + extra - 1) / extra)
}

// PrepareGolden executes the fault-free reference run, recording the trace
// and the prefix snapshot cache. The returned Golden can be passed to
// RunWithGolden any number of times — including with different bias
// settings — as long as workload, seed, horizon, and injection window
// match.
func PrepareGolden(cfg Config) *Golden {
	return prepareGolden(cfg, detect.NewGroupCheck())
}

// prepareGolden is PrepareGolden with the cross-replica check whose verdicts
// the golden schedule records; tests lower its thresholds to force alarms.
func prepareGolden(cfg Config, groupCheck *detect.GroupCheck) *Golden {
	cfg = cfg.withDefaults()
	w := cfg.Workload
	key := cfg.GoldenKey()
	g := &Golden{w: w, key: key, horizon: key.Horizon, maxInjectIter: key.MaxInjectIter}

	refEngine := w.NewEngine(rng.Seed{State: uint64(cfg.Seed), Stream: 77})
	// Signature collection rides the collective's accumulation loop and
	// changes no value (TestSignatureCollectionIsNeutral).
	refEngine.Group().SetCollectSigs(cfg.DeviceFaults)
	g.numLayers = refEngine.Replica(0).Len()

	// The initial state: the fork target of injections before the first
	// periodic boundary, and the rewind point the engine pool always needs.
	init := refEngine.Snapshot(-1)
	g.snaps = append(g.snaps, init)
	g.bounds = append(g.bounds, 0)
	g.stride = resolveStride(cfg.SnapshotStride, snapshotMemBudget, init.Bytes(), g.maxInjectIter)

	// Resolve the per-layer injection-target shapes. Weight-gradient shapes
	// are static model structure; forward-output shapes are observed on
	// device 0 during the first iteration through the (numerically neutral)
	// forward monitor, and input-gradient shapes follow from them: the
	// backward hook at layer l carries dL/d(input_l), whose shape is layer
	// l-1's output (the batch shard for l = 0).
	g.fwdShapes = make([][]int, g.numLayers)
	g.bwdShapes = make([][]int, g.numLayers)
	g.wgtShapes = make([][]int, g.numLayers)
	for li := 0; li < g.numLayers; li++ {
		if ps := refEngine.Replica(0).Layers[li].Layer.Params(); len(ps) > 0 {
			g.wgtShapes[li] = append([]int(nil), ps[0].Grad.Shape...)
		}
	}
	refEngine.ForwardMonitor = func(d, li int, out *tensor.Tensor) {
		if d == 0 && g.fwdShapes[li] == nil {
			g.fwdShapes[li] = append([]int(nil), out.Shape...)
		}
	}

	// The equivalence layer's golden schedules: a per-iteration state
	// digest (the masked-early-exit comparison target) and the detector's
	// alarm verdict on that state. The detector's bounds derive from static
	// model structure only, so one golden schedule is valid for every
	// experiment regardless of fork point.
	det := detect.ForEngine(refEngine, w.BatchSize(), w.LR, true)

	g.ref = train.NewTrace(w.Name + "-ref")
	refEngine.RunWithHook(0, g.horizon, g.ref, false, func(iter int) {
		if iter == 0 {
			refEngine.ForwardMonitor = nil
		}
		g.digests = append(g.digests, refEngine.StateDigest())
		g.alarms = append(g.alarms, det.CheckEngine(refEngine) != nil)
		g.histAbsMax = append(g.histAbsMax, refEngine.HistoryAbsMax())
		g.mvarAbsMax = append(g.mvarAbsMax, refEngine.MvarAbsMax())
		if cfg.DeviceFaults {
			g.groupAlarms = append(g.groupAlarms, groupCheck.Check(refEngine.LastReduce()) != nil)
		}
		b := iter + 1
		if g.stride > 0 && b < g.maxInjectIter && b%g.stride == 0 {
			g.snaps = append(g.snaps, refEngine.Snapshot(iter))
			g.bounds = append(g.bounds, b)
		}
	})
	if g.ref.NonFiniteIter != -1 {
		// A non-finite golden prefix means a cold experiment would stop at
		// that iteration before ever injecting; forking past it would skip
		// the stop. Fall back to replay-from-0 (pooling stays exact: the
		// initial-state restore re-executes everything). Early exit is
		// disabled for the same reason: there is no completed golden tail to
		// synthesize from.
		g.snaps = g.snaps[:1]
		g.bounds = g.bounds[:1]
		g.stride = 0
		g.digests = nil
		g.alarms = nil
		g.histAbsMax, g.mvarAbsMax, g.groupAlarms = nil, nil, nil
	}
	shard := append([]int{w.PerDeviceBatch}, refEngine.Loader().Batch(0).X.Shape[1:]...)
	for li := 0; li < g.numLayers; li++ {
		if li == 0 {
			g.bwdShapes[li] = shard
		} else {
			g.bwdShapes[li] = g.fwdShapes[li-1]
		}
	}
	for _, s := range g.snaps {
		g.bytes += s.Bytes()
	}
	g.refAcc = g.ref.FinalTrainAcc(10)
	g.cls = outcome.NewClassifier(g.ref)
	return g
}

// maxInjectIterFor returns the exclusive upper bound of injection
// iterations for a (defaulted) config.
func maxInjectIterFor(cfg Config) int {
	m := int(float64(cfg.Workload.Iters) * cfg.InjectFrac)
	if m < 1 {
		m = 1
	}
	return m
}

// GoldenKey identifies a golden run: two configs with equal keys prepare
// interchangeable Goldens, whatever else differs between them (population,
// bias, fast paths, recovery strategy, worker count). It is comparable, so
// it keys a cache (internal/dist's workers hold their Goldens under it).
type GoldenKey struct {
	// Workload and Iters name the model, data and fault-free length.
	Workload string
	Iters    int
	Seed     int64
	// Horizon is the per-experiment iteration budget and MaxInjectIter the
	// exclusive upper bound of injection iterations (the snapshot window).
	Horizon, MaxInjectIter int
	// DeviceFaults: the run recorded the cross-replica schedule.
	DeviceFaults bool
}

// GoldenKey resolves the identity of the golden run cfg's campaign forks
// from.
func (cfg Config) GoldenKey() GoldenKey {
	cfg = cfg.withDefaults()
	return GoldenKey{
		Workload:      cfg.Workload.Name,
		Iters:         cfg.Workload.Iters,
		Seed:          cfg.Seed,
		Horizon:       int(float64(cfg.Workload.Iters) * cfg.HorizonMult),
		MaxInjectIter: maxInjectIterFor(cfg),
		DeviceFaults:  cfg.DeviceFaults,
	}
}

// checkCompatible panics when a Golden was prepared for a different
// campaign shape than cfg (programmer error: the fork targets would not be
// on the experiment's trajectory).
func (g *Golden) checkCompatible(cfg Config) {
	if key := cfg.GoldenKey(); g.key != key {
		panic(fmt.Sprintf("experiment: golden prepared for %+v does not match campaign %+v", g.key, key))
	}
}

// withDefaults normalizes the optional knobs.
func (cfg Config) withDefaults() Config {
	if cfg.HorizonMult <= 0 {
		cfg.HorizonMult = 1.0
	}
	if cfg.InjectFrac <= 0 || cfg.InjectFrac > 1 {
		cfg.InjectFrac = 0.8
	}
	return cfg
}

// sample pre-draws every experiment of the campaign into the record it
// starts from: the "observed nothing" skeleton carrying the experiment's
// fault — an injection, or a device fault when cfg.DeviceFaults. Sampling is
// deterministic and independent of worker scheduling; the device-fault stream
// is decoupled from the FF streams so FF and device-fault campaigns with the
// same seed stay independent. The record's DeviceFault.Kind is what tells the
// two flavours apart from here on (Record.device).
func (g *Golden) sample(cfg Config) []Record {
	recs := make([]Record, cfg.Experiments)
	blank := cfg.blankRecord()
	for i := range recs {
		recs[i] = blank
	}
	if cfg.DeviceFaults {
		r := rng.NewFromInt(cfg.Seed ^ 0xdef1ce)
		kinds := cfg.deviceFaultKinds()
		for i := range recs {
			recs[i].DeviceFault = fault.SampleDeviceFault(r, cfg.Workload.Devices, g.maxInjectIter, kinds)
		}
		return recs
	}
	inv := accel.NVDLAInventory()
	sampler := fault.NewSampler(inv, rng.NewFromInt(cfg.Seed))
	biasRand := rng.NewFromInt(cfg.Seed ^ 0x5eed)
	for i := range recs {
		inj := sampler.Sample(g.numLayers, g.maxInjectIter)
		if len(cfg.BiasKinds) > 0 {
			inj.Kind = cfg.BiasKinds[biasRand.Intn(len(cfg.BiasKinds))]
			// The fault duration distribution is a property of the FF
			// class (feedback-loop probability); resample it for the
			// substituted kind.
			inj.N = inv.SampleDuration(inj.Kind, biasRand)
		}
		if len(cfg.BiasPasses) > 0 {
			inj.Pass = cfg.BiasPasses[biasRand.Intn(len(cfg.BiasPasses))]
		}
		recs[i].Injection = inj
	}
	return recs
}

// blankRecord is the record of an experiment that observed nothing: no
// INF/NaN, no alarm, no quarantine, nothing changed, run under the campaign's
// recovery strategy (none for FF campaigns).
func (cfg Config) blankRecord() Record {
	strategy := recovery.StrategyNone
	if cfg.DeviceFaults {
		strategy = cfg.recoveryStrategy()
	}
	return Record{NonFiniteIter: -1, DetectIter: -1, QuarantineIter: -1, AdoptedFrom: -1, EarlyExitIter: -1,
		Masked: true, RecoveryStrategy: strategy.String(), TimeToRecoverIters: -1}
}

// fork is the one fork-point rule: the golden snapshot boundary an
// experiment restores and runs from, and its state. An injection forks from
// the nearest boundary at or before its iteration. A device fault forks from
// the nearest boundary strictly before its onset: the earliest cross-replica
// alarm fires at the onset iteration, and the two-iteration re-execution must
// find the same rollback window a cold-start run would have — which requires
// at least one executed iteration before the alarm.
func (g *Golden) fork(rec *Record) (int, *train.State) {
	if rec.device() {
		return g.nearest(max(rec.DeviceFault.Iteration-1, 0))
	}
	return g.nearest(rec.Injection.Iteration)
}

// classify is the one tail every record ends in: its Table-3 outcome, read
// off trace with the pass the fault entered through, and the summary fields
// the outcome is judged on.
func (g *Golden) classify(rec *Record, trace *train.Trace, pass fault.Pass) {
	rec.Outcome = g.cls.Classify(trace, pass)
	rec.FinalTrainAcc = trace.FinalTrainAcc(10)
	rec.FinalTestAcc = trace.FinalTestAcc()
	rec.NonFiniteIter = trace.NonFiniteIter
	rec.AccuracyCost = g.refAcc - rec.FinalTrainAcc
}

// RunWithGolden executes a campaign against a precomputed Golden. Passing
// the same Golden to several campaigns (different bias settings, repeated
// sweeps) amortizes the reference run and its snapshot cache across all of
// them. It is Resume with no prior records, no sink, and no cancellation —
// the fixed worker pool, per-worker engine reuse, and index-ordered tally
// live there.
func RunWithGolden(cfg Config, g *Golden) *Campaign {
	c, err := Resume(cfg, RunOptions{Golden: g})
	if err != nil {
		// Errors arise from prior records, sinks and cancellation, none of
		// which exist here, or from a Config Resume refuses — a programmer
		// error.
		panic(err)
	}
	return c
}

// ForkSummary renders a one-line account of the campaign's forked
// execution: golden-prefix iterations reused vs suffix iterations actually
// executed, and the snapshot cache that enabled the reuse.
func (c *Campaign) ForkSummary() string {
	total := c.IterationsExecuted + c.IterationsSkipped
	var pct float64
	if total > 0 {
		pct = 100 * float64(c.IterationsSkipped) / float64(total)
	}
	return fmt.Sprintf("forked execution: reused %d/%d experiment iterations (%.1f%%) from %d golden snapshots (stride %d, %.1f MiB), per-worker engine pool",
		c.IterationsSkipped, total, pct, c.Snapshots, c.Stride, float64(c.SnapshotBytes)/(1<<20))
}
