package tensor

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/rng"
)

// TestMain is the package's goroutine-leak guard: after the full test run
// (which exercises the pool heavily), ClosePool must return the process to
// its baseline goroutine count. ci.sh relies on this — a worker leaked by a
// refactor fails the whole package.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	ClosePool()
	// Under -fuzz the testing package's coordinator keeps goroutines of its
	// own (its signal watcher) past m.Run; they are not the pool's.
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	if !fuzzing && !goroutinesSettle(base) && code == 0 {
		fmt.Fprintf(os.Stderr, "tensor: goroutine leak: %d goroutines after ClosePool, baseline %d\n",
			runtime.NumGoroutine(), base)
		code = 1
	}
	os.Exit(code)
}

// goroutinesSettle polls until the live goroutine count drops to at most
// base (worker exit after a quit-channel close is asynchronous).
func goroutinesSettle(base int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

func TestPoolCloseNoLeak(t *testing.T) {
	// A single-P runtime takes the inline fast path and never spawns
	// workers; force two Ps so the dispatch path under test actually runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer forceParallel(4)()
	base := runtime.NumGoroutine()

	r := rng.NewFromInt(31)
	a, b := randMat(r, 32, 24), randMat(r, 24, 16)
	c := MatMul(a, b)
	if PoolWorkers() == 0 {
		t.Fatal("pooled dispatch spawned no workers")
	}
	ClosePool()
	if !goroutinesSettle(base) {
		t.Fatalf("workers did not exit after ClosePool: %d goroutines, baseline %d",
			runtime.NumGoroutine(), base)
	}
	if PoolWorkers() != 0 {
		t.Fatalf("PoolWorkers = %d after ClosePool, want 0", PoolWorkers())
	}

	// The pool must respawn transparently on the next dispatch and keep
	// producing bitwise-identical results.
	c2 := MatMul(a, b)
	bitsEqual(t, "post-close MatMul", c2, c)
	if PoolWorkers() == 0 {
		t.Fatal("pool did not respawn after ClosePool")
	}
	ClosePool()
	if !goroutinesSettle(base) {
		t.Fatalf("respawned workers did not exit: %d goroutines, baseline %d",
			runtime.NumGoroutine(), base)
	}
}

// TestPoolGEMMBitwise pins the pool's contract: chunks dispatched to pool
// workers produce GEMM results bitwise-identical to the serial kernel
// (SetWorkers(1)) for every transpose variant, precision mode, and worker
// count, including worker counts that exceed the row count.
func TestPoolGEMMBitwise(t *testing.T) {
	// A single-P runtime runs every chunk inline; force two Ps so chunks
	// actually travel through the worker queues.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	r := rng.NewFromInt(32)
	workerSet := []int{2, 4, 40}
	for _, mixed := range []bool{false, true} {
		a := randMat(r, 33, 23) // [m, k]
		b := randMat(r, 23, 13) // [k, n]
		at := Transpose2D(a)    // [k, m]
		bt := Transpose2D(b)    // [n, k]

		oldW := SetWorkers(1)
		nnS := matMulBy(a, b, mixed)
		taS := MatMulTA(at, b, mixed)
		tbS := MatMulTB(a, bt, mixed)
		SetWorkers(oldW)

		for _, w := range workerSet {
			restore := forceParallel(w)
			nn := matMulBy(a, b, mixed)
			ta := MatMulTA(at, b, mixed)
			tb := MatMulTB(a, bt, mixed)
			restore()

			tag := fmt.Sprintf("mixed=%v w=%d", mixed, w)
			bitsEqual(t, "pool vs serial NN "+tag, nn, nnS)
			bitsEqual(t, "pool vs serial TA "+tag, ta, taS)
			bitsEqual(t, "pool vs serial TB "+tag, tb, tbS)
		}
	}
}

// matMulBy dispatches MatMul or MatMulMixed by flag (test helper).
func matMulBy(a, b *Tensor, mixed bool) *Tensor {
	if mixed {
		return MatMulMixed(a, b)
	}
	return MatMul(a, b)
}

// TestPoolReductionsBitwise checks the pooled reductions (AbsMax, MinMax,
// AddBiasNCHW) against their serial forms on inputs large enough to cross
// absMaxParallelMin, including NaN handling.
func TestPoolReductionsBitwise(t *testing.T) {
	r := rng.NewFromInt(33)
	n := absMaxParallelMin + 1031 // odd remainder chunks
	v := New(n)
	v.FillNormal(r, 0, 3)
	v.Data[n/2] = 0

	serialAbs := func(t_ *Tensor) float32 {
		old := SetWorkers(1)
		defer SetWorkers(old)
		return t_.AbsMax()
	}
	serialMinMax := func(t_ *Tensor) (float32, float32) {
		old := SetWorkers(1)
		defer SetWorkers(old)
		return t_.MinMax()
	}

	for _, w := range []int{1, 3, 4, runtime.GOMAXPROCS(0)} {
		restore := forceParallel(w)
		gotAbs := v.AbsMax()
		gotLo, gotHi := v.MinMax()
		restore()
		if math.Float32bits(gotAbs) != math.Float32bits(serialAbs(v)) {
			t.Fatalf("w=%d: AbsMax %v != serial %v", w, gotAbs, serialAbs(v))
		}
		wLo, wHi := serialMinMax(v)
		if gotLo != wLo || gotHi != wHi {
			t.Fatalf("w=%d: MinMax (%v,%v) != serial (%v,%v)", w, gotLo, gotHi, wLo, wHi)
		}
	}

	// A NaN anywhere must force (NaN, NaN) from every worker count.
	v.Data[absMaxParallelMin/3] = float32(math.NaN())
	for _, w := range []int{1, 4} {
		restore := forceParallel(w)
		lo, hi := v.MinMax()
		restore()
		if lo == lo || hi == hi { // NaN != NaN
			t.Fatalf("w=%d: MinMax with NaN input = (%v, %v), want NaNs", w, lo, hi)
		}
	}
}

func TestPoolAddBiasNCHWBitwise(t *testing.T) {
	r := rng.NewFromInt(34)
	// 4×8×48×48 = 73728 elements per the rows*spatial gate.
	mk := func() *Tensor {
		x := New(4, 8, 48, 48)
		x.FillNormal(r, 0, 1)
		return x
	}
	bias := New(8)
	bias.FillNormal(r, 0, 1)

	want := mk()
	ref := want.Clone()
	oldW := SetWorkers(1)
	AddBiasNCHW(want, bias)
	SetWorkers(oldW)

	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := ref.Clone()
		restore := forceParallel(w)
		AddBiasNCHW(got, bias)
		restore()
		bitsEqual(t, fmt.Sprintf("AddBiasNCHW w=%d", w), got, want)
	}
}

// TestParallelIntoChunks covers the nc < w case: ceil chunking of 9 rows
// over 4 workers yields 3 chunks, and the returned count must reflect that
// so reduction callers never read uninitialized partials.
func TestParallelIntoChunks(t *testing.T) {
	defer forceParallel(4)()
	seen := make([]bool, 9)
	nc := parallelInto(4, 9, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i] = true
		}
		if worker >= 4 {
			t.Errorf("worker index %d out of range", worker)
		}
	})
	if nc != 3 {
		t.Fatalf("parallelInto(4, 9) used %d chunks, want 3", nc)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("element %d not covered", i)
		}
	}
}
