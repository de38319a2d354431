package train

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Trace records the convergence trend of one training run: training loss
// and accuracy every iteration, test accuracy every Config.TestEvery
// iterations — the measurements the paper captures in every FI experiment
// (Sec 3.3) and classifies into outcomes (Table 3).
type Trace struct {
	// Workload is a label for reports.
	Workload string
	// FaultIter is the iteration a fault was injected at, or -1 for a
	// fault-free run.
	FaultIter int
	// TrainLoss[i] / TrainAcc[i] are the metrics of iteration i.
	TrainLoss []float64
	TrainAcc  []float64
	// TestIters lists the iterations at which the test set was evaluated;
	// TestAcc/TestLoss are parallel slices.
	TestIters []int
	TestAcc   []float64
	TestLoss  []float64
	// NonFiniteIter is the first iteration an INF/NaN error message was
	// raised, or -1. NonFiniteAt describes the location.
	NonFiniteIter int
	NonFiniteAt   string
	// InjectedElems is the number of tensor elements the fault corrupted
	// (0 until the fault fires).
	InjectedElems int
	// Completed is the number of iterations actually executed.
	Completed int

	// FinalTestOnly marks a trace whose reader consumes only FinalTestAcc, a
	// campaign experiment's: Engine.RecordTest holds each boundary instead
	// of evaluating it and Engine.ResolveTest evaluates the last one. A
	// property of the consumer, never serialized.
	FinalTestOnly bool
	// held[s] is iteration+1 of the boundary in the engine's held slot s, or 0.
	held [2]int
}

// NewTrace creates an empty trace.
func NewTrace(workload string) *Trace {
	return &Trace{Workload: workload, FaultIter: -1, NonFiniteIter: -1}
}

// FinalTrainAcc returns the mean training accuracy over the last k recorded
// iterations (a smoothed "final accuracy"), or 0 if nothing was recorded.
func (t *Trace) FinalTrainAcc(k int) float64 {
	n := len(t.TrainAcc)
	if n == 0 {
		return 0
	}
	if k > n {
		k = n
	}
	var s float64
	for _, a := range t.TrainAcc[n-k:] {
		s += a
	}
	return s / float64(k)
}

// FinalTestAcc returns the last recorded test accuracy, or -1 if the test
// set was never evaluated.
func (t *Trace) FinalTestAcc() float64 {
	if len(t.TestAcc) == 0 {
		return -1
	}
	return t.TestAcc[len(t.TestAcc)-1]
}

// Rewind drops what was recorded for iterations [resume, iter] when a
// rollback resumes at resume: the train entries, and every test point at or
// after resume, recorded or held — re-execution records them again.
func (t *Trace) Rewind(iter, resume int) {
	n := iter - resume + 1
	t.TrainLoss = t.TrainLoss[:len(t.TrainLoss)-n]
	t.TrainAcc = t.TrainAcc[:len(t.TrainAcc)-n]
	t.Completed -= n
	k := len(t.TestIters)
	for k > 0 && t.TestIters[k-1] >= resume {
		k--
	}
	t.TestIters, t.TestAcc, t.TestLoss = t.TestIters[:k], t.TestAcc[:k], t.TestLoss[:k]
	for s, h := range t.held {
		if h > resume {
			t.held[s] = 0
		}
	}
}

// AppendBinary appends a canonical binary serialization of the trace to
// buf and returns the extended slice. The encoding is defined for partial
// runs as well as completed ones — every field is length-prefixed and
// floats are encoded by their IEEE-754 bit patterns — so two traces
// serialize identically iff they are byte-identical, which is what the
// campaign journal's golden-run binding (Digest) relies on.
func (t *Trace) AppendBinary(buf []byte) []byte {
	u64 := func(v uint64) {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	str := func(s string) {
		u64(uint64(len(s)))
		buf = append(buf, s...)
	}
	f64s := func(xs []float64) {
		u64(uint64(len(xs)))
		for _, x := range xs {
			u64(math.Float64bits(x))
		}
	}
	ints := func(xs []int) {
		u64(uint64(len(xs)))
		for _, x := range xs {
			u64(uint64(int64(x)))
		}
	}
	str(t.Workload)
	u64(uint64(int64(t.FaultIter)))
	f64s(t.TrainLoss)
	f64s(t.TrainAcc)
	ints(t.TestIters)
	f64s(t.TestAcc)
	f64s(t.TestLoss)
	u64(uint64(int64(t.NonFiniteIter)))
	str(t.NonFiniteAt)
	u64(uint64(int64(t.InjectedElems)))
	u64(uint64(int64(t.Completed)))
	return buf
}

// Digest returns a hex FNV-64a hash of the trace's canonical binary
// serialization. Because the training engine is bitwise-deterministic, the
// golden reference run's digest identifies the (binary, workload, seed)
// triple: any change to the numeric kernels, the model definitions, or the
// data pipeline changes the digest. The campaign journal stores it so a
// resume under a different binary fails loudly instead of silently mixing
// records from divergent trajectories.
func (t *Trace) Digest() string {
	h := fnv.New64a()
	h.Write(t.AppendBinary(nil))
	return fmt.Sprintf("%016x", h.Sum64())
}

// RecordTest records iteration iter's test point when iter closes a TestEvery
// period; every training loop calls it where its evaluation runs. A trace
// that keeps the whole curve is evaluated in place. For a FinalTestOnly trace
// the evaluation's input — the root replica's parameter values and BatchNorm
// moving statistics; Evaluate reads nothing else but the immutable test set —
// is copied into an engine-owned slot instead, for ResolveTest. The slots
// alternate so that the boundary before one a rollback drops is still held.
func (e *Engine) RecordTest(iter int, trace *Trace) {
	te := e.cfg.TestEvery
	if te <= 0 || (iter+1)%te != 0 {
		return
	}
	if !trace.FinalTestOnly {
		e.appendTest(iter, trace)
		return
	}
	s := (iter + 1) / te & 1
	e.captureReplica(e.RootDevice(), e.held[s])
	trace.held[s] = iter + 1
}

// ResolveTest evaluates the last boundary RecordTest held for trace, unless
// the trace carries a later test point (a golden tail copied over it). Call it
// once, after the run and before reading FinalTestAcc: it images the root
// replica from the held values, so the engine must be restored before it
// trains again — as every campaign experiment's is.
func (e *Engine) ResolveTest(trace *Trace) {
	s := 0
	if trace.held[1] > trace.held[0] {
		s = 1
	}
	iter := trace.held[s] - 1
	if n := len(trace.TestIters); iter < 0 || (n > 0 && trace.TestIters[n-1] >= iter) {
		return
	}
	e.RestoreReplica(e.RootDevice(), e.held[s])
	e.appendTest(iter, trace)
}

// appendTest evaluates the root replica as iteration iter's test point.
func (e *Engine) appendTest(iter int, trace *Trace) {
	tl, ta := e.Evaluate(e.RootDevice())
	trace.TestIters = append(trace.TestIters, iter)
	trace.TestLoss = append(trace.TestLoss, tl)
	trace.TestAcc = append(trace.TestAcc, ta)
}

// Run executes iterations [start, end), recording into trace. When
// stopOnNonFinite is true the run terminates at the first INF/NaN error
// (mirroring the paper's procedure: "continuing to train the DNN until
// either an error message ... is encountered, or until a predefined number
// of training iterations are completed").
func (e *Engine) Run(start, end int, trace *Trace, stopOnNonFinite bool) {
	e.RunWithHook(start, end, trace, stopOnNonFinite, nil)
}

// RunWithHook is Run with a per-iteration observer: hook, when non-nil, is
// invoked after iteration iter's trace bookkeeping completes — the exact
// point where Snapshot(iter) captures a forkable iteration-boundary state.
// The forked FI campaign runner (package experiment) builds its
// golden-prefix snapshot cache through this hook.
func (e *Engine) RunWithHook(start, end int, trace *Trace, stopOnNonFinite bool, hook func(iter int)) {
	for iter := start; iter < end; iter++ {
		st := e.RunIteration(iter)
		trace.TrainLoss = append(trace.TrainLoss, st.Loss)
		trace.TrainAcc = append(trace.TrainAcc, st.TrainAcc)
		if st.Injected {
			trace.FaultIter = iter
			trace.InjectedElems = st.InjectedElems
		}
		e.RecordTest(iter, trace)
		trace.Completed++
		if hook != nil {
			hook(iter)
		}
		if st.NonFinite && trace.NonFiniteIter == -1 {
			trace.NonFiniteIter = iter
			trace.NonFiniteAt = st.NonFiniteAt
			if stopOnNonFinite {
				return
			}
		}
	}
}
