package train

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Lanes: the healthy devices of an iteration split into contiguous stacks,
// as many as there are lanes, each stepped as one pass over its devices'
// shards. A stack's pass touches only its own replicas (parameters,
// gradients, normalization statistics, forward-to-backward layer fields),
// the lane's scratch and the stack's results, and results merge in ascending
// device order. Every per-device sum is formed from the device's own rows
// (nn.Stack), so any split of the devices into stacks — one stack of all of
// them, the default, or one stack a device, SetLanes(Devices) — gives the
// same bits. A lane is a stack stepper with scratch of its own — a step
// scratch, a loss scratch and a layer-workspace set — so lanes can step
// different stacks at once. Lane 0 runs on the goroutine calling
// RunIteration and owns the workspace set New bound every replica to;
// SetLanes starts the others. A model holding a layer that does not form its
// sums per block (nn.Sequential.Stackable) is stepped one device a stack.

// laneSpins bounds how many times an idle lane yields (runtime.Gosched,
// about 120 ns on a 2-vCPU host, so about 1 ms in all) before it parks. The
// gap between two iterations' stack steps — the merge, the collective, the
// optimizer step, the caller's per-iteration checks — is usually shorter, and
// a yielding lane claims the next iteration's stack at once, where a parked
// goroutine took 74–88 µs to wake on the same host, a fifth of a resnet
// device's step, every iteration. Parking at once (laneSpins 0) kept 45–65 % of the
// golden run's gain from lanes there.
const laneSpins = 1 << 13

// The claim word packs the current job: its generation in the high 32 bits,
// whether lanes other than lane 0 may take part (laneOpen), the number of
// stacks it steps (15 bits from bit 16) and the next unclaimed one (the low
// 16 bits). One compare-and-swap both checks that a claim belongs to the
// job a lane saw and takes a stack, so a lane that wakes late claims
// nothing from a later job it has not seen published.
const (
	laneOpen     = 1 << 31
	maxLaneCount = 1<<15 - 1
)

// lane is one stack stepper's scratch.
type lane struct {
	id int
	// step is what a stack's forward/backward needs afresh and nothing
	// reads afterwards, and loss owns the buffers of the loss results; kept
	// so a step allocates none of it.
	step stepScratch
	loss nn.SoftmaxCrossEntropy
	// ws is the lane's layer-workspace set, in VisitLayers order; a replica
	// is bound to it (nn.Sequential.BindWorkspaces) before the lane steps a
	// stack on it.
	ws []*tensor.Workspace
	// stack is the layout of the lane's current pass and res its devices'
	// loss results; view is a device's rows of a layer's output or gradient
	// handed to the hooks, and xbuf and ybuf gather a stack's shards where
	// they are not adjacent in the global batch.
	stack nn.Stack
	res   []nn.LossResult
	view  tensor.Tensor
	xbuf  []float32
	ybuf  []int
}

// shards returns the stack's batch, the shards [lo[d], lo[d]+n[d]) of its
// devices one after another, and their labels: views of batch where the
// shards are adjacent in it, the lane's gather buffers where a quarantined
// device's shard lies between two.
func (l *lane) shards(batch data.Batch, exLen int, devs, lo, n []int) (*tensor.Tensor, []int) {
	first, end, total := lo[devs[0]], lo[devs[0]], 0
	adjacent := true
	for _, d := range devs {
		adjacent = adjacent && lo[d] == end
		end = lo[d] + n[d]
		total += n[d]
	}
	x := &l.step.x
	x.Shape = append(append(x.Shape[:0], total), batch.X.Shape[1:]...)
	if adjacent {
		x.Data = batch.X.Data[first*exLen : end*exLen]
		return x, batch.Y[first:end]
	}
	l.xbuf, l.ybuf = l.xbuf[:0], l.ybuf[:0]
	for _, d := range devs {
		l.xbuf = append(l.xbuf, batch.X.Data[lo[d]*exLen:(lo[d]+n[d])*exLen]...)
		l.ybuf = append(l.ybuf, batch.Y[lo[d]:lo[d]+n[d]]...)
	}
	x.Data = l.xbuf
	return x, l.ybuf
}

// block returns device j of the current stack's rows of t, whose leading
// axis holds the stack's examples in order, shaped [rows, t.Shape[1:]...]:
// the shape a pass over the device's shard alone gives. The view is the
// lane's one header, valid until the next block call.
func (l *lane) block(t *tensor.Tensor, j int) *tensor.Tensor {
	total, lo := 0, 0
	for i, n := range l.stack.Examples {
		if i < j {
			lo += n
		}
		total += n
	}
	per := t.Shape[0] / total
	size := len(t.Data) / t.Shape[0]
	n := l.stack.Examples[j]
	v := &l.view
	v.Data = t.Data[lo*per*size : (lo+n)*per*size]
	v.Shape = append(append(v.Shape[:0], n*per), t.Shape[1:]...)
	return v
}

// laneWork is the job RunIteration hands the lanes and what they need to
// take it: written by RunIteration before it publishes claim, read by a lane
// only after it claimed a stack of that job, and rewritten only once every
// claimed stack is done.
type laneWork struct {
	claim atomic.Uint64
	done  atomic.Int32
	gen   uint32

	iter    int
	batch   data.Batch
	exLen   int
	healthy []int
	// lo/n are each device's shard of the global batch, indexed by device.
	lo, n []int
	// bounds splits healthy into the job's stacks: stack j is
	// healthy[bounds[j]:bounds[j+1]].
	bounds []int
	// out[i] is healthy[i]'s devStats.
	out []devStats

	stop atomic.Bool
	mu   sync.Mutex
	wake sync.Cond
	wg   sync.WaitGroup
}

// SetLanes sets the number of lanes that step the healthy devices of every
// later iteration, clamped to [1, Devices]: the healthy devices split into as
// many contiguous stacks (one a device at most), each stepped as one pass.
// One lane — the default — steps all of them as one stack on the goroutine
// calling RunIteration; n lanes start n−1 goroutines, which wait between
// iterations by yielding for a bounded time, then parking. Results are the
// same bits at any lane count, and SetLanes(Devices) is the step of one
// device at a time. An iteration with a ForwardMonitor set runs its stacks
// on lane 0 alone. The lanes' layers must share no state across replicas
// beyond what the replicas' WorkspaceHolders hold (an ABFT-wrapped model
// does, so it keeps one lane). An engine set to more than one lane must be
// set back to 1 before it is dropped: that stops the goroutines and binds
// every replica to lane 0's workspaces again.
func (e *Engine) SetLanes(n int) {
	n = max(1, min(n, e.cfg.Devices))
	if n == len(e.lanes) {
		return
	}
	w := &e.work
	if len(e.lanes) > 1 {
		w.stop.Store(true)
		w.mu.Lock()
		w.wake.Broadcast()
		w.mu.Unlock()
		w.wg.Wait()
		w.stop.Store(false)
		for d, m := range e.replicas {
			if e.bound[d] != 0 {
				m.BindWorkspaces(e.lanes[0].ws)
				e.bound[d] = 0
			}
		}
		clear(e.lanes[1:])
		e.lanes = e.lanes[:1]
	}
	for id := 1; id < n; id++ {
		l := &lane{id: id, ws: mirrorWorkspaces(e.lanes[0].ws)}
		e.lanes = append(e.lanes, l)
		w.wg.Add(1)
		go e.runLane(l, w.gen)
	}
}

// mirrorWorkspaces returns a set of new workspaces shaped like set: where
// set holds one workspace twice, so does the mirror.
func mirrorWorkspaces(set []*tensor.Workspace) []*tensor.Workspace {
	mirror := make([]*tensor.Workspace, len(set))
	made := make(map[*tensor.Workspace]*tensor.Workspace, len(set))
	for i, ws := range set {
		if made[ws] == nil {
			made[ws] = tensor.NewWorkspace()
		}
		mirror[i] = made[ws]
	}
	return mirror
}

// runLane is a helper lane's goroutine: it steps the stacks it claims of
// every job after seen, until SetLanes stops it.
func (e *Engine) runLane(l *lane, seen uint32) {
	defer e.work.wg.Done()
	for {
		gen, ok := e.work.await(seen)
		if !ok {
			return
		}
		e.stepStacks(l, gen)
		seen = gen
	}
}

// await returns the generation of the first job published after seen, or
// false once the lanes are stopping. It yields up to laneSpins times, then
// parks until RunIteration or SetLanes wakes it.
func (w *laneWork) await(seen uint32) (uint32, bool) {
	for spin := 0; ; spin++ {
		if w.stop.Load() {
			return 0, false
		}
		if gen := uint32(w.claim.Load() >> 32); gen != seen {
			return gen, true
		}
		if spin < laneSpins {
			runtime.Gosched()
			continue
		}
		w.mu.Lock()
		for uint32(w.claim.Load()>>32) == seen && !w.stop.Load() {
			w.wake.Wait()
		}
		w.mu.Unlock()
		spin = 0
	}
}

// take claims the next stack of job gen for lane id and returns its index,
// or false when the job has none left, is no longer current, or is lane 0's
// alone.
func (w *laneWork) take(gen uint32, id int) (int, bool) {
	for {
		c := w.claim.Load()
		if uint32(c>>32) != gen || (id != 0 && c&laneOpen == 0) {
			return 0, false
		}
		next, count := int(c&0xffff), int(c>>16&maxLaneCount)
		if next >= count {
			return 0, false
		}
		if w.claim.CompareAndSwap(c, c+1) {
			return next, true
		}
	}
}

// stepStacks steps the stacks lane l claims of job gen, each into its
// devices' slots of out.
func (e *Engine) stepStacks(l *lane, gen uint32) {
	w := &e.work
	for {
		j, ok := w.take(gen, l.id)
		if !ok {
			return
		}
		e.stackStep(l, w.bounds[j], w.bounds[j+1])
		w.done.Add(1)
	}
}

// stepHealthy steps every healthy device of iteration iter on the lanes and
// returns their devStats in healthy order, once all are done. lo and n give
// each device's shard, indexed by device. The devices split into one stack
// a lane — one a device for a model that is not Stackable — the first
// len(healthy) mod stacks of them a device longer than the rest.
func (e *Engine) stepHealthy(iter int, batch data.Batch, exLen int, healthy, lo, n []int) []devStats {
	w := &e.work
	w.iter, w.batch, w.exLen, w.healthy, w.lo, w.n = iter, batch, exLen, healthy, lo, n
	w.out = w.out[:len(healthy)]
	stacks := len(healthy)
	if e.replicas[0].Stackable() {
		stacks = min(len(e.lanes), len(healthy))
	}
	w.bounds = append(w.bounds[:0], 0)
	for j := range stacks {
		size := len(healthy) / stacks
		if j < len(healthy)%stacks {
			size++
		}
		w.bounds = append(w.bounds, w.bounds[j]+size)
	}
	w.done.Store(0)
	w.gen++
	c := uint64(w.gen)<<32 | uint64(stacks)<<16
	open := len(e.lanes) > 1 && e.ForwardMonitor == nil
	if open {
		c |= laneOpen
	}
	w.claim.Store(c)
	if open {
		w.mu.Lock()
		w.wake.Broadcast()
		w.mu.Unlock()
	}
	e.stepStacks(e.lanes[0], w.gen)
	for int(w.done.Load()) != stacks {
		runtime.Gosched()
	}
	return w.out
}
