// Package train implements the distributed DNN training engine the
// fault-injection experiments run on: synchronous data-parallel training
// (Sec 2 of the paper) across a configurable number of simulated devices
// (the paper uses 8), with per-iteration metric recording, INF/NaN
// surfacing, fault-injection hooks, and snapshot/restore for the recovery
// technique.
//
// Device semantics matter for fidelity:
//
//   - Every device holds a full model replica. Gradients are averaged
//     across devices after the backward pass, so a faulty gradient produced
//     on one device is attenuated by 1/D before reaching the weights
//     (Sec 4.3.3).
//   - BatchNorm moving statistics are per-device state. A fault that
//     corrupts one device's batch variance corrupts only that device's
//     mvar — "large absolute mvar values on a single training device"
//     (Sec 4.3.3) — and test evaluation on that device exposes it.
//   - All randomness derives from (seed, iteration, device), so any past
//     iteration can be re-executed exactly (Sec 5.2 requirement 3).
package train

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Config parameterizes an Engine.
type Config struct {
	// Devices is the number of synchronous data-parallel replicas.
	Devices int
	// PerDeviceBatch is the mini-batch size each device processes per
	// iteration; the loader's batch size must equal Devices*PerDeviceBatch.
	PerDeviceBatch int
	// Seed drives the engine's randomness: the replicas' weight
	// initialization.
	Seed rng.Seed
	// TestEvery evaluates test accuracy every TestEvery iterations
	// (0 disables periodic evaluation).
	TestEvery int
}

// BuildFunc constructs one model replica. It is called once per device with
// an identical RNG so replicas start with identical weights.
type BuildFunc func(r *rng.Rand) *nn.Sequential

// Engine drives synchronous data-parallel training.
type Engine struct {
	cfg      Config
	replicas []*nn.Sequential
	opt      opt.Optimizer
	loader   *data.Loader
	testSet  *data.Dataset
	testAll  data.Batch // testSet.All(), gathered on the first Evaluate

	// lanes step the healthy devices of an iteration (lanes.go, SetLanes):
	// one by default, on the goroutine calling RunIteration. The healthy
	// devices split into as many contiguous stacks as there are lanes, and a
	// lane steps a stack as one pass over its devices' shards (stackStep),
	// the forward and backward of one stack finishing before the lane's next
	// starts, so one step scratch, loss scratch and workspace set per lane
	// serve every stack it steps. A stack runs on the replica of its first
	// device; bound[d] is the lane whose workspace set replica d's layers
	// hold. work is the job RunIteration hands the lanes, and fixedLo /
	// fixedN the fixed partition's shards, indexed by device.
	lanes           []*lane
	bound           []int
	work            laneWork
	fixedLo, fixedN []int

	injections   []*fault.Injection
	injFired     []bool
	injectDevice int

	// ForwardMonitor, when non-nil, observes every layer output of every
	// device during training forward passes (after any injection): out is
	// the device's rows of the layer's output, shaped as a pass over its
	// shard alone would shape it. It is the attachment point for
	// activation-monitoring baselines such as range restriction (Sec 6). It
	// is called on the goroutine running RunIteration, stack after stack in
	// ascending order and, within a stack, layer by layer, each layer's
	// devices in ascending order: an iteration with a monitor set runs on
	// lane 0 alone, whatever SetLanes asked. out is layer scratch, valid
	// only during the call.
	ForwardMonitor func(device, layer int, out *tensor.Tensor)

	// lastNonFinite is where the latest iteration first saw an INF/NaN.
	lastNonFinite string

	// elastic re-partitions the global batch across the healthy devices
	// whenever part of the group is quarantined (see SetElastic).
	elastic bool

	// digestBuf / digestNames are StateDigest's reused serialization
	// scratch and sorted optimizer-history key cache.
	digestBuf   []byte
	digestNames []string

	// grp is the collective communicator performing gradient averaging;
	// gradViews caches the per-device gradient tensor views it reduces
	// over, and lastReduce the latest collective's report (read by the
	// cross-replica consistency check).
	grp        *comm.Group
	gradViews  [][]*tensor.Tensor
	lastReduce comm.ReduceStep

	// held are RecordTest's two slots, allocated with the engine; evals
	// counts Evaluate calls.
	held  [2]*ReplicaState
	evals int64
}

// New creates an engine. The loader's batch size must equal
// cfg.Devices × cfg.PerDeviceBatch.
func New(cfg Config, build BuildFunc, optimizer opt.Optimizer, loader *data.Loader, testSet *data.Dataset) *Engine {
	if cfg.Devices < 1 {
		panic("train: need at least one device")
	}
	if cfg.Devices > maxLaneCount {
		panic(fmt.Sprintf("train: %d devices, at most %d", cfg.Devices, maxLaneCount))
	}
	if loader.BatchSize() != cfg.Devices*cfg.PerDeviceBatch {
		panic(fmt.Sprintf("train: loader batch %d != devices %d × per-device %d",
			loader.BatchSize(), cfg.Devices, cfg.PerDeviceBatch))
	}
	e := &Engine{cfg: cfg, opt: optimizer, loader: loader, testSet: testSet}
	// The replicas start bound to one scratch set — replica 0's layer
	// workspaces, lane 0's — because a lane steps one stack at a time: a
	// stack's forward and backward finish before the lane's next stack
	// starts, and nothing reads a layer's scratch after its stack step.
	// Each replica keeps its own parameters, gradients, normalization
	// statistics and forward-to-backward layer fields.
	e.replicas = nn.BuildReplicas(cfg.Devices, func() *nn.Sequential {
		// Identical init RNG per replica → identical weights.
		return build(rng.New(cfg.Seed).Split(0xbead))
	})
	e.lanes = []*lane{{ws: e.replicas[0].Workspaces()}}
	e.bound = make([]int, cfg.Devices)
	e.work.wake.L = &e.work.mu
	e.work.out = make([]devStats, 0, cfg.Devices)
	e.work.bounds = make([]int, 0, cfg.Devices+1)
	e.fixedLo, e.fixedN = make([]int, cfg.Devices), make([]int, cfg.Devices)
	for d := range e.fixedLo {
		e.fixedLo[d], e.fixedN[d] = d*cfg.PerDeviceBatch, cfg.PerDeviceBatch
	}
	e.grp = comm.NewGroup(cfg.Devices)
	e.gradViews = make([][]*tensor.Tensor, 0, cfg.Devices)
	for d := 0; d < cfg.Devices; d++ {
		params := e.replicas[d].Params()
		views := make([]*tensor.Tensor, len(params))
		for i, p := range params {
			views[i] = p.Grad
		}
		e.gradViews = append(e.gradViews, views)
	}
	e.held[0], e.held[1] = e.SnapshotReplica(0), e.SnapshotReplica(0)
	return e
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Loader returns the engine's data loader.
func (e *Engine) Loader() *data.Loader { return e.loader }

// Optimizer returns the engine's optimizer.
func (e *Engine) Optimizer() opt.Optimizer { return e.opt }

// Replica returns device d's model.
func (e *Engine) Replica(d int) *nn.Sequential { return e.replicas[d] }

// Group returns the collective communicator: the place to arm device
// faults, set the failure-handling policy, and inspect group health.
func (e *Engine) Group() *comm.Group { return e.grp }

// RootDevice returns the lowest-numbered healthy device — the replica that
// holds the authoritative model state when part of the group is
// quarantined. With a fully healthy group this is device 0, matching the
// pre-collective-layer engine.
func (e *Engine) RootDevice() int { return e.grp.Root() }

// LastReduce reports the most recent collective step (the input of the
// cross-replica gradient-consistency check).
func (e *Engine) LastReduce() *comm.ReduceStep { return &e.lastReduce }

// Quarantine removes device d from the group: it stops stepping, stops
// contributing gradients, and stops receiving broadcasts. Its gradients are
// zeroed so stale corruption cannot leak back on rejoin.
func (e *Engine) Quarantine(d int) {
	e.grp.Quarantine(d)
	e.replicas[d].ZeroGrad()
}

// Rejoin returns a quarantined device to the group by replicating state
// from the healthy root peer — weights (SyncWeights) and the peer's
// normalization statistics (the quarantined device's own statistics are
// stale or corrupted) — the hot-rejoin of the mitigation path. Optimizer
// state needs no copy: it is global, keyed by parameter name, and lives with
// whichever replica is the reduction root. Fails if no healthy peer exists.
func (e *Engine) Rejoin(d int) error {
	if err := e.SyncWeights(d); err != nil {
		return err
	}
	srcBNs := e.replicas[e.grp.Root()].BatchNorms()
	for i, bn := range e.replicas[d].BatchNorms() {
		bn.MovingMean.CopyFrom(srcBNs[i].MovingMean)
		bn.MovingVar.CopyFrom(srcBNs[i].MovingVar)
	}
	e.grp.Rejoin(d)
	return nil
}

// SetInjection arms a single fault injection; it fires on device 0 during
// the iteration recorded in the injection. Pass nil to disarm.
//
// An injection is one-shot: the modeled failures are transient (Sec 1), so
// once the fault has fired it does not recur — in particular, re-executing
// the same iteration during recovery (Sec 5.2) runs clean, exactly like
// re-running a workload on hardware after the transient condition passed.
func (e *Engine) SetInjection(inj *fault.Injection) {
	if inj == nil {
		e.SetInjections(nil)
		return
	}
	e.SetInjections([]fault.Injection{*inj})
}

// SetInjections arms multiple independent one-shot injections — the
// multiple-failure scenario of Sec 4.3.2, and the manifestations of an
// intermittent fault. Each fires at its own iteration on device 0.
func (e *Engine) SetInjections(injs []fault.Injection) {
	e.injections = e.injections[:0]
	e.injFired = e.injFired[:0]
	for i := range injs {
		inj := injs[i]
		e.injections = append(e.injections, &inj)
		e.injFired = append(e.injFired, false)
	}
	e.injectDevice = 0
}

// Reset returns a pooled engine to a neutral, re-armable condition between
// experiments: it disarms all injections and device faults, restores full
// group health and the default collective policy, detaches any forward
// monitor, and clears per-run diagnostics. It deliberately does NOT touch
// weights, optimizer state, or normalization statistics — follow Reset with
// Restore to position the engine at an iteration-boundary snapshot.
// Campaign workers (package experiment) reuse one engine per worker this
// way, eliminating per-experiment model and dataset construction.
func (e *Engine) Reset() {
	e.SetInjections(nil)
	e.ForwardMonitor = nil
	e.lastNonFinite = ""
	e.elastic = false
	e.grp.Reset()
	e.lastReduce = comm.ReduceStep{}
}

// ScrubWorkspaces poisons the engine's cached kernel scratch buffers — every
// lane's workspace set, which is every workspace a replica steps over — with
// NaNs. Scratch contents are undefined between kernel calls, so scrubbing
// must never change results; the campaign workspace-scrub invariant
// (experiment.Config.ScrubWorkspaces) runs it between pooled-engine
// experiments to prove exactly that.
func (e *Engine) ScrubWorkspaces() {
	for _, l := range e.lanes {
		for _, ws := range l.ws {
			ws.Reset()
		}
	}
}

// SetElastic selects elastic batch re-partitioning (off by default): when
// enabled and part of the group is quarantined, RunIteration re-partitions
// the FULL global batch across the healthy devices — near-equal contiguous
// shards, ascending device order — instead of dropping the quarantined
// devices' shards. Per-device batch grows, no example is lost, and
// gradient averaging stays exact over the new partition via shard-weighted
// AllReduce (comm.Group.SetShards). At full strength the legacy fixed
// partition is used bit for bit, so elastic engines are interchangeable
// with plain ones until the first quarantine.
func (e *Engine) SetElastic(on bool) { e.elastic = on }

// stepScratch is a stack step's state: the layer context and the header of
// the stack's batch.
type stepScratch struct {
	ctx nn.Context
	x   tensor.Tensor
}

// chanAxis returns the accelerator channel axis for an activation/gradient
// tensor, per the dataflow compilation plan (accel.PlanFor, Sec 3.1).
func chanAxis(shape []int) int {
	return accel.PlanFor(accel.OpForward, shape).ChanAxis
}

// IterStats reports one training iteration.
type IterStats struct {
	Iteration int
	// Loss is the mean training loss across devices; NaN if corrupted.
	Loss float64
	// TrainAcc is the fraction of correct predictions over the global batch.
	TrainAcc float64
	// NonFinite is true if an INF/NaN was observed anywhere this iteration
	// (losses, logits, weights, or normalization statistics) — the
	// framework's "error message" event (Sec 3.3).
	NonFinite bool
	// NonFiniteAt describes where the first INF/NaN was seen.
	NonFiniteAt string
	// Injected is true if the armed fault fired this iteration.
	Injected bool
	// InjectedElems counts the output elements the fault corrupted.
	InjectedElems int
	// CommRetries counts collective retry attempts this iteration
	// (stragglers and crashes eating into the timeout budget).
	CommRetries int
	// DevicesFailed lists devices that exhausted the collective
	// timeout+retry budget this iteration; under the exclusion policy the
	// engine quarantines them before the weight broadcast.
	DevicesFailed []int
	// GroupHang is true when the collective aborted: the synchronous group
	// cannot make progress and the weights were not updated.
	GroupHang bool
	// DeviceFaultElems counts gradient elements corrupted by armed device
	// faults during the collective.
	DeviceFaultElems int
	// Degraded is true when fewer than Devices replicas contributed.
	Degraded bool
}

// devStats collects the results of one device's forward/backward, merged
// into the iteration's stats in ascending device order.
type devStats struct {
	loss          float64
	correct       int
	examples      int // shard size the device processed
	nonFiniteAt   string
	injected      bool
	injectedElems int
}

// stackStep runs the stack of healthy devices w.healthy[i0:i1] of the job on
// lane l as one pass: the forward over the devices' shards laid one after
// another in device order (with injection and monitoring hooks on each
// device's rows), each device's loss over its own shard, and the backward,
// which lands each device's gradients and statistics in its replica (see
// nn.Stack). The pass runs on the replica of the stack's first device, whose
// weights equal every healthy replica's. Besides lane l's scratch it
// touches the stack's replicas, their slots of w.out and (on the injection
// device only) the injection bookkeeping.
func (e *Engine) stackStep(l *lane, i0, i1 int) {
	w := &e.work
	devs := w.healthy[i0:i1]
	out := w.out[i0:i1]
	st := &l.stack
	st.Devices = devs
	st.Examples = st.Examples[:0]
	inj := -1 // the injection device's index in devs
	for j, d := range devs {
		st.Examples = append(st.Examples, w.n[d])
		out[j] = devStats{examples: w.n[d]}
		if d == e.injectDevice {
			inj = j
		}
	}
	x, y := l.shards(w.batch, w.exLen, devs, w.lo, w.n)

	ctx := &l.step.ctx
	*ctx = nn.Context{Training: true}
	model := e.replicas[devs[0]]
	if e.bound[devs[0]] != l.id {
		model.BindWorkspaces(l.ws)
		e.bound[devs[0]] = l.id
	}

	var fwdHook nn.ForwardHook
	var bwdHook nn.BackwardHook
	// Collect the injections that fire this (iteration, device), grouped
	// by pass. An injection is one-shot: once fired it never recurs, so
	// re-execution during recovery runs clean.
	var fwdInjs, bwdInjs, wgtInjs []int
	if inj >= 0 {
		for i, in := range e.injections {
			if e.injFired[i] || in.Iteration != w.iter {
				continue
			}
			if in.LayerIdx < 0 || in.LayerIdx >= model.Len() {
				panic(fmt.Sprintf("train: injection targets layer %d but model has %d layers", in.LayerIdx, model.Len()))
			}
			switch in.Pass {
			case fault.Forward:
				fwdInjs = append(fwdInjs, i)
			case fault.BackwardInput:
				bwdInjs = append(bwdInjs, i)
			case fault.BackwardWeight:
				wgtInjs = append(wgtInjs, i)
			}
		}
	}
	fire := func(i int, t *tensor.Tensor, axis int) {
		res := e.injections[i].Apply(t, axis)
		e.injFired[i] = true
		out[inj].injected = true
		out[inj].injectedElems += len(res.Indices)
	}
	// fireOn fires the injections of injs armed at layer li on the injection
	// device's rows of t.
	fireOn := func(injs []int, li int, t *tensor.Tensor) {
		for _, i := range injs {
			if e.injections[i].LayerIdx == li && !e.injFired[i] {
				v := l.block(t, inj)
				fire(i, v, chanAxis(v.Shape))
			}
		}
	}
	if len(fwdInjs) > 0 || e.ForwardMonitor != nil {
		fwdHook = func(li int, o *tensor.Tensor) *tensor.Tensor {
			for j, d := range devs {
				if j == inj {
					fireOn(fwdInjs, li, o)
				}
				if e.ForwardMonitor != nil {
					e.ForwardMonitor(d, li, l.block(o, j))
				}
			}
			return nil
		}
	}
	if len(bwdInjs) > 0 {
		bwdHook = func(li int, grad *tensor.Tensor) *tensor.Tensor {
			fireOn(bwdInjs, li, grad)
			return nil
		}
	}

	logits := model.ForwardStack(ctx, x, st, fwdHook)
	if cap(l.res) < len(devs) {
		l.res = make([]nn.LossResult, len(devs))
	}
	l.res = l.res[:len(devs)]
	grad := l.loss.EvalBlocks(logits, y, st.Examples, l.res)
	for j, r := range l.res {
		out[j].loss, out[j].correct = r.Loss, r.Correct
		if math.IsNaN(r.Loss) || math.IsInf(r.Loss, 0) {
			out[j].nonFiniteAt = fmt.Sprintf("loss@device%d", devs[j])
		}
	}
	// Nothing reads the gradient with respect to the model input unless a
	// backward-input injection is armed, so without one it is never formed.
	model.BackwardParams(grad, bwdHook)

	for _, i := range wgtInjs {
		// Corrupt the injection device's primary weight-gradient tensor
		// (the output of the weight-gradient operation on the accelerator,
		// laid out per the transposed Sec-3.1 plan).
		params := e.replicas[e.injectDevice].Layers[e.injections[i].LayerIdx].Layer.Params()
		if len(params) > 0 && !e.injFired[i] {
			plan := accel.PlanFor(accel.OpWeightGrad, params[0].Grad.Shape)
			fire(i, params[0].Grad, plan.ChanAxis)
		}
	}
}

// RunIteration executes global iteration iter: the healthy devices'
// forward/backward in stacks on the engine's lanes (SetLanes; one lane steps
// them all as one stack), their results merged in ascending device order, gradient averaging through the collective layer
// (comm.Group.AllReduce, fixed ascending reduction order), one optimizer
// step on the reduction root, and weight synchronization. Quarantined
// devices are skipped entirely; if the collective hangs (a device failed and
// the policy does not exclude) the weights are left untouched and
// stats.GroupHang is set.
func (e *Engine) RunIteration(iter int) IterStats {
	stats := IterStats{Iteration: iter}
	batch := e.loader.Batch(iter)
	perDev := e.cfg.PerDeviceBatch
	exLen := 1
	for _, s := range batch.X.Shape[1:] {
		exLen *= s
	}

	healthy := e.grp.Healthy()
	global := e.cfg.Devices * perDev

	// Elastic partition: with part of the group quarantined, spread the
	// FULL global batch over the survivors in near-equal contiguous shards
	// (ascending device order, a pure function of the healthy set — the
	// run stays deterministic for a fixed failure schedule). At full
	// strength the fixed partition below is used bit for bit.
	elasticActive := e.elastic && len(healthy) > 0 && len(healthy) < e.cfg.Devices
	eLo, eN := e.fixedLo, e.fixedN // per-device shard, indexed by device
	if elasticActive {
		k := len(healthy)
		base, rem := global/k, global%k
		eLo = make([]int, e.cfg.Devices)
		eN = make([]int, e.cfg.Devices)
		lo := 0
		for i, d := range healthy {
			n := base
			if i < rem {
				n++
			}
			eLo[d], eN[d] = lo, n
			lo += n
		}
	}

	// Step the devices and merge their results in ascending device order.
	// Elastic shards can be unequal, so the elastic merge weights each
	// device's mean loss by its shard size; the fixed partition keeps the
	// legacy formulas bit for bit.
	var totalLoss float64
	var totalCorrect int
	for _, r := range e.stepHealthy(iter, batch, exLen, healthy, eLo, eN) {
		if elasticActive {
			totalLoss += r.loss * float64(r.examples)
		} else {
			totalLoss += r.loss
		}
		totalCorrect += r.correct
		if r.injected {
			stats.Injected = true
			stats.InjectedElems += r.injectedElems
		}
		if !stats.NonFinite && r.nonFiniteAt != "" {
			stats.NonFinite = true
			stats.NonFiniteAt = r.nonFiniteAt
		}
	}
	if elasticActive {
		stats.Loss = totalLoss / float64(global)
		stats.TrainAcc = float64(totalCorrect) / float64(global)
	} else {
		stats.Loss = totalLoss / float64(len(healthy))
		stats.TrainAcc = float64(totalCorrect) / float64(len(healthy)*perDev)
	}

	// Synchronous gradient averaging through the collective layer; the
	// elastic partition installs its shard weights first so averaging is
	// exact over the re-balanced (unequal) shards.
	if elasticActive {
		e.grp.SetShards(eN)
	} else {
		e.grp.SetShards(nil)
	}
	red := e.grp.AllReduce(iter, e.gradViews)
	e.lastReduce = red
	stats.Degraded = red.Degraded(e.cfg.Devices)
	stats.CommRetries = red.Retries
	stats.DeviceFaultElems = red.CorruptElems
	if len(red.Failed) > 0 {
		stats.DevicesFailed = append([]int(nil), red.Failed...)
	}
	if red.Hang {
		// The group cannot make progress: leave weights untouched so a
		// supervisor can decide (abort, or re-run with exclusion).
		stats.GroupHang = true
		for _, d := range healthy {
			e.replicas[d].ZeroGrad()
		}
		e.lastNonFinite = stats.NonFiniteAt
		return stats
	}
	// Devices that exhausted the timeout+retry budget are out of the
	// group from here on (the exclusion policy's contract): they must not
	// receive the broadcast below, or their divergent state would be
	// mistaken for healthy on a later root switch.
	for _, d := range red.Failed {
		e.Quarantine(d)
	}

	root := e.replicas[red.Root].Params()
	e.opt.Step(root)

	// Broadcast updated weights to the other healthy replicas and clear
	// gradients.
	for _, d := range e.grp.Healthy() {
		if d == red.Root {
			continue
		}
		for pi, p := range e.replicas[d].Params() {
			p.Value.CopyFrom(root[pi].Value)
		}
	}
	for _, d := range healthy {
		e.replicas[d].ZeroGrad()
	}

	if !stats.NonFinite {
		if where := e.scanNonFinite(); where != "" {
			stats.NonFinite = true
			stats.NonFiniteAt = where
		}
	}
	e.lastNonFinite = stats.NonFiniteAt
	return stats
}

// scanNonFinite checks the weights for INF/NaN values. Deliberately, it
// does NOT scan optimizer history or normalization statistics: standard
// training frameworks never check those states, which is exactly why the
// paper's latent outcomes are silent — an Inf lodged in Adam's v_t or in a
// BatchNorm moving variance raises no error message while quietly freezing
// weights or ruining test accuracy. (The detection technique in package
// detect is what makes those states visible.) Non-finite weights, in
// contrast, surface as NaN losses within an iteration, so flagging them
// here matches the error messages real frameworks emit.
func (e *Engine) scanNonFinite() string {
	for _, p := range e.replicas[e.grp.Root()].Params() {
		if p.Value.FirstNonFinite() != -1 {
			return "weights:" + p.Name
		}
	}
	return ""
}

// Evaluate computes loss and accuracy of device d's replica on the test
// set, in inference mode (moving statistics active). It runs the set through
// the replica in slices of the examples lane 0's stack holds at full
// strength (evalRows) — the shapes training already holds, so the layers'
// scratch does not grow — and gives the bits
// one forward of the whole set would: every layer works per example in
// inference mode (a GEMM output element sums its k products in ascending
// order whatever the column count), and the loss total is carried from slice
// to slice in example order before the one division. A non-finite output in
// any slice makes the result NaN, 0.
func (e *Engine) Evaluate(d int) (loss, acc float64) {
	e.evals++
	if e.testAll.X == nil {
		e.testAll = e.testSet.All() // datasets are immutable: gather once
	}
	all := e.testAll
	n := len(all.Y)
	exLen := all.X.Len() / n
	l := e.lanes[0]
	sc := &l.step
	sc.ctx = nn.Context{Training: false}
	x := &sc.x
	var total float64
	correct := 0
	rows := e.evalRows()
	for lo := 0; lo < n; lo += rows {
		hi := min(lo+rows, n)
		x.Shape = append(append(x.Shape[:0], hi-lo), all.X.Shape[1:]...)
		x.Data = all.X.Data[lo*exLen : hi*exLen]
		out := e.replicas[d].Forward(&sc.ctx, x, nil)
		if numerics.HasNonFinite(out.Data) != -1 {
			return math.NaN(), 0
		}
		var c int
		total, c = l.loss.Accumulate(total, out, all.Y[lo:hi])
		correct += c
	}
	return total / float64(n), float64(correct) / float64(n)
}

// evalRows is how many examples lane 0's stack holds with every device
// healthy: PerDeviceBatch for each of the first stack's devices.
func (e *Engine) evalRows() int {
	devices := 1
	if e.replicas[0].Stackable() {
		devices = (e.cfg.Devices + len(e.lanes) - 1) / len(e.lanes)
	}
	return devices * e.cfg.PerDeviceBatch
}

// Evaluations returns how many times Evaluate has run on this engine.
func (e *Engine) Evaluations() int64 { return e.evals }

// HistoryAbsMax returns the maximum absolute value over all gradient-history
// tensors of the optimizer (m and v for Adam, velocity for momentum SGD),
// or 0 if the optimizer keeps no history. This is the quantity the
// detection technique bounds (Algorithm 1 Part I).
func (e *Engine) HistoryAbsMax() float64 {
	h := e.opt.History()
	if h == nil {
		return 0
	}
	var m float64
	for _, ts := range h {
		for _, t := range ts {
			v := float64(t.AbsMax())
			if math.IsNaN(v) {
				return math.Inf(1)
			}
			if v > m {
				m = v
			}
		}
	}
	return m
}

// MvarAbsMax returns the maximum absolute moving-variance value across all
// normalization layers of all devices — the quantity bounded by Algorithm 1
// Part II. Returns 0 if the model has no normalization layers.
func (e *Engine) MvarAbsMax() float64 {
	var m float64
	for d := 0; d < e.cfg.Devices; d++ {
		for _, bn := range e.replicas[d].BatchNorms() {
			v := float64(bn.MovingVar.AbsMax())
			if math.IsNaN(v) {
				return math.Inf(1)
			}
			if v > m {
				m = v
			}
		}
	}
	return m
}

// State is a deep snapshot of everything needed to rewind training to an
// iteration boundary: weights, optimizer state, and per-device
// normalization statistics.
type State struct {
	Iteration int
	Params    []*tensor.Tensor
	OptState  map[string][]*tensor.Tensor
	// BNStats[d] holds (movingMean, movingVar) pairs per BatchNorm layer of
	// device d, in layer order.
	BNStats [][]*tensor.Tensor
}

// Snapshot captures the engine state after iteration iter completed.
// Weights come from the reduction root (the authoritative replica when
// part of the group is quarantined); BatchNorm statistics are captured per
// device.
func (e *Engine) Snapshot(iter int) *State {
	s := &State{Iteration: iter, OptState: e.opt.Snapshot()}
	for _, p := range e.replicas[e.grp.Root()].Params() {
		s.Params = append(s.Params, p.Value.Clone())
	}
	for d := 0; d < e.cfg.Devices; d++ {
		var stats []*tensor.Tensor
		for _, bn := range e.replicas[d].BatchNorms() {
			stats = append(stats, bn.MovingMean.Clone(), bn.MovingVar.Clone())
		}
		s.BNStats = append(s.BNStats, stats)
	}
	return s
}

// Bytes returns the approximate in-memory footprint of the snapshot:
// tensor payloads only (headers and map overhead are negligible at the
// sizes a snapshot-cache memory budget guards against).
func (s *State) Bytes() int64 {
	var n int64
	add := func(t *tensor.Tensor) {
		if t != nil {
			n += int64(len(t.Data)) * 4
		}
	}
	for _, p := range s.Params {
		add(p)
	}
	for _, ts := range s.OptState {
		for _, t := range ts {
			add(t)
		}
	}
	for _, dev := range s.BNStats {
		for _, t := range dev {
			add(t)
		}
	}
	return n
}

// Restore rewinds the engine to a snapshot. Restore-then-run is
// self-contained: it repositions the weights of every replica, the full
// optimizer state including the Adam step counter (bias correction resumes
// exactly), the per-device BatchNorm moving statistics, and the per-run
// diagnostics — so RunIteration(s.Iteration+1...) is bitwise-identical to a
// run that never left the snapshot's trajectory. The snapshot itself is
// only read, never aliased: a shared *State may be restored concurrently
// into many engines (the forked-campaign workers do exactly that).
func (e *Engine) Restore(s *State) {
	for d := 0; d < e.cfg.Devices; d++ {
		for pi, p := range e.replicas[d].Params() {
			p.Value.CopyFrom(s.Params[pi])
			p.Grad.Zero()
		}
		for i, bn := range e.replicas[d].BatchNorms() {
			bn.MovingMean.CopyFrom(s.BNStats[d][2*i])
			bn.MovingVar.CopyFrom(s.BNStats[d][2*i+1])
		}
	}
	e.opt.Restore(s.OptState)
	e.lastNonFinite = ""
}

// ReplicaState is a deep copy of a single device's replica — parameter
// values and BatchNorm moving statistics. It is the unit of just-in-time
// checkpointing: data-parallel ranks hold identical weights, so a healthy
// donor's ReplicaState is exactly the checkpoint a lost rank needs, captured
// only after the failure at zero periodic cost. It holds no optimizer
// history: the optimizer is group-global (keyed by parameter name, stepped
// once per iteration on the reduction root), so re-admission keeps it.
type ReplicaState struct {
	// Device is the donor the state was captured from.
	Device int
	// Params holds the parameter values in replica parameter order.
	Params []*tensor.Tensor
	// BNStats holds (movingMean, movingVar) pairs per BatchNorm layer.
	BNStats []*tensor.Tensor
}

// SnapshotReplica deep-copies device d's replica state — the just-in-time
// checkpoint capture. Unlike Snapshot it reads ONLY replica d.
func (e *Engine) SnapshotReplica(d int) *ReplicaState {
	s := &ReplicaState{Device: d}
	for _, p := range e.replicas[d].Params() {
		s.Params = append(s.Params, p.Value.Clone())
	}
	for _, bn := range e.replicas[d].BatchNorms() {
		s.BNStats = append(s.BNStats, bn.MovingMean.Clone(), bn.MovingVar.Clone())
	}
	return s
}

// captureReplica overwrites s with replica d's parameter values and BatchNorm
// statistics, allocating nothing.
func (e *Engine) captureReplica(d int, s *ReplicaState) {
	for i, p := range e.replicas[d].Params() {
		s.Params[i].CopyFrom(p.Value)
	}
	for i, bn := range e.replicas[d].BatchNorms() {
		s.BNStats[2*i].CopyFrom(bn.MovingMean)
		s.BNStats[2*i+1].CopyFrom(bn.MovingVar)
	}
}

// RestoreReplica images replica d from a ReplicaState: parameter values
// and BatchNorm statistics are copied in and gradients zeroed. It writes
// ONLY replica d — no optimizer, group, or loader state.
func (e *Engine) RestoreReplica(d int, s *ReplicaState) {
	dst := e.replicas[d]
	for pi, p := range dst.Params() {
		p.Value.CopyFrom(s.Params[pi])
		p.Grad.Zero()
	}
	for i, bn := range dst.BatchNorms() {
		bn.MovingMean.CopyFrom(s.BNStats[2*i])
		bn.MovingVar.CopyFrom(s.BNStats[2*i+1])
	}
}

// SyncWeights copies the current root replica's parameter values onto
// device d and zeroes its gradients — the weight top-up that brings a
// JIT-restored rank from its checkpoint to the group's present iteration.
// BatchNorm statistics are left as the restore put them (per-device state;
// the checkpoint's statistics are the freshest consistent set the rank
// has). The caller re-admits the device via Group().Rejoin afterwards.
func (e *Engine) SyncWeights(d int) error {
	peer := e.grp.Root()
	if peer == d || e.grp.HealthyCount() == 0 {
		return fmt.Errorf("train: no healthy peer to sync device %d from", d)
	}
	src := e.replicas[peer].Params()
	for pi, p := range e.replicas[d].Params() {
		p.Value.CopyFrom(src[pi].Value)
		p.Grad.Zero()
	}
	return nil
}
