// Persistent kernel worker pool with claim-based dispatch.
//
// Every parallel kernel in this package (matmul row chunks, AbsMax/MinMax
// reductions, bias rows) dispatches its chunks here. At campaign scale —
// thousands of GEMMs per training iteration across many concurrent
// experiment workers — spawning goroutines per call would cost scheduler
// churn on every one of them, so the pool keeps long-lived workers and one
// buffered run queue per worker (a channel receive doubles as the
// park/unpark doorbell).
//
// Dispatch is claim-based: every chunk of a dispatch carries an index into a
// shared claim bitmask, the caller enqueues chunks 1..nc-1 without blocking
// (a full queue runs the chunk inline instead), runs chunk 0 itself, and
// then *steals* unstarted chunks back in reverse order. Whoever wins the
// atomic claim — queue worker or caller — executes the chunk exactly once.
// On a loaded or single-core host the caller therefore finishes the whole
// dispatch inline with zero context switches (the stale queued tasks are
// skipped when a worker eventually drains them).
//
// Scheduling is irrelevant to results: chunks own disjoint index ranges
// (the determinism contract in matmul.go), so which goroutine executes a
// chunk cannot change a single bit of any kernel's output.
//
// Nesting is impossible by construction: chunk bodies are leaf kernel loops
// (gemm*, absMaxBits, addBiasRows) that never dispatch again, so a worker
// never blocks on the pool it serves and the pool cannot deadlock.
package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// kernelDispatch is the shared state of one parallel kernel dispatch: the
// chunk geometry, the claim bitmask, and the completion group for chunks
// 1..nc-1 (chunk 0 always runs on the caller). It is heap-allocated fresh
// per dispatch and never recycled: stale tasks referencing it may sit in
// worker queues after the dispatch completes, and reuse would let them
// corrupt a later dispatch's claims.
type kernelDispatch struct {
	body     func(worker, lo, hi int)
	n, chunk int
	claimed  atomic.Uint64
	wg       sync.WaitGroup
}

// run executes chunk c if the caller wins the claim; a lost claim means the
// chunk already ran (or is running) elsewhere and the task is stale.
func (d *kernelDispatch) run(c int) {
	bit := uint64(1) << uint(c)
	if d.claimed.Or(bit)&bit != 0 {
		return
	}
	lo := c * d.chunk
	hi := lo + d.chunk
	if hi > d.n {
		hi = d.n
	}
	d.body(c, lo, hi)
	d.wg.Done()
}

// kernelTask points a queue worker at one chunk of a dispatch.
type kernelTask struct {
	d *kernelDispatch
	c int
}

// poolQueueDepth is each worker's run-queue capacity. Dispatchers never
// block on a full queue: the chunk runs inline instead.
const poolQueueDepth = 8

// maxChunks bounds the chunks of one dispatch to the claim bitmask width.
const maxChunks = 64

var (
	poolMu     sync.Mutex   // guards pool growth and shutdown
	poolQs     atomic.Value // of []chan kernelTask: per-worker run queues
	poolQuit   chan struct{}
	poolCursor atomic.Uint32 // round-robin dispatch cursor
)

// PoolWorkers returns the number of live pool workers (0 until the first
// pooled dispatch, and again after ClosePool).
func PoolWorkers() int {
	qs, _ := poolQs.Load().([]chan kernelTask)
	return len(qs)
}

// poolQueues returns the worker run queues, lazily growing the pool to at
// least n workers. Workers are spawned on demand and live until ClosePool.
func poolQueues(n int) []chan kernelTask {
	if qs, _ := poolQs.Load().([]chan kernelTask); len(qs) >= n {
		return qs
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	qs, _ := poolQs.Load().([]chan kernelTask)
	if len(qs) >= n {
		return qs
	}
	if poolQuit == nil {
		poolQuit = make(chan struct{})
	}
	grown := make([]chan kernelTask, len(qs), n)
	copy(grown, qs)
	for len(grown) < n {
		q := make(chan kernelTask, poolQueueDepth)
		go poolWorker(q, poolQuit)
		grown = append(grown, q)
	}
	poolQs.Store(grown)
	return grown
}

// poolWorker parks on its run queue (the doorbell) and executes chunks
// until the pool is closed. Stale tasks — chunks the dispatching caller
// already stole back — lose the claim inside run and cost one atomic.
func poolWorker(q chan kernelTask, quit chan struct{}) {
	for {
		select {
		case t := <-q:
			t.d.run(t.c)
		case <-quit:
			return
		}
	}
}

// ClosePool terminates every pool worker for leak-free shutdown. It must
// not be called while kernels are running (same contract as SetWorkers).
// The pool transparently respawns on the next pooled dispatch, so closing
// is safe at any quiescent point — tests do it to assert goroutine counts
// return to baseline.
func ClosePool() {
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolQuit != nil {
		close(poolQuit)
		poolQuit = nil
	}
	poolQs.Store([]chan kernelTask(nil))
}

// parallelInto partitions [0, n) into up to w contiguous chunks and runs
// body(worker, lo, hi) on each, where worker is the chunk index (callers
// use it to write per-chunk partials without sharing). Chunk 0 runs on the
// calling goroutine; the rest are offered round-robin to pool workers.
// Returns the number of chunks used, which may be less than w. Every chunk
// is non-empty, ranges are disjoint and ascending in the chunk index, so
// kernels with disjoint writes stay single-writer and per-chunk reductions
// are exact partials.
func parallelInto(w, n int, body func(worker, lo, hi int)) int {
	if w > n {
		w = n
	}
	if w > maxChunks {
		w = maxChunks
	}
	if w <= 1 {
		body(0, 0, n)
		return 1
	}
	chunk := (n + w - 1) / w
	nc := (n + chunk - 1) / chunk
	if nc <= 1 {
		body(0, 0, n)
		return 1
	}
	if runtime.GOMAXPROCS(0) == 1 {
		// A single-P runtime can never execute a chunk concurrently with the
		// caller: enqueuing would only wake workers to find stolen tasks.
		// Run the chunks inline — same chunk geometry, same body calls, so
		// results (and returned chunk count) are bitwise-identical.
		for c := 0; c < nc; c++ {
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(c, lo, hi)
		}
		return nc
	}
	qs := poolQueues(nc - 1)
	base := poolCursor.Add(uint32(nc - 1))
	d := &kernelDispatch{body: body, n: n, chunk: chunk}
	d.claimed.Store(1) // chunk 0 is the caller's, never claimable
	d.wg.Add(nc - 1)
	for c := 1; c < nc; c++ {
		select {
		case qs[(base+uint32(c))%uint32(len(qs))] <- kernelTask{d: d, c: c}:
		default:
			d.run(c)
		}
	}
	body(0, 0, chunk)
	for c := nc - 1; c >= 1; c-- {
		d.run(c)
	}
	d.wg.Wait()
	return nc
}

// parallelRows partitions [0, m) into at most matmulWorkers contiguous
// chunks and runs body on each through the persistent pool. Row ranges are
// disjoint, so each output element is produced by exactly one goroutine;
// chunk boundaries never change accumulation order within a row.
func parallelRows(m, flops int, body func(lo, hi int)) {
	w := matmulWorkers
	if w > m {
		w = m
	}
	if w <= 1 || flops < parallelFlops {
		body(0, m)
		return
	}
	parallelInto(w, m, func(_, lo, hi int) { body(lo, hi) })
}
