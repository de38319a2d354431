package experiment

// Durable campaign execution: graceful cancellation, write-ahead record
// sinks, and crash-safe resume.
//
// A campaign's records are a pure function of its resolved identity
// (Config.Spec): every experiment's fault is pre-sampled deterministically
// into the record it starts from (Golden.sample), and every record depends
// only on that sampled record and the shared golden run. Completed records
// are therefore position-independent — a campaign interrupted after any
// subset of its experiments can be resumed by replaying that subset from a
// journal and executing only the complement, and the result is
// byte-identical to an uninterrupted run (TestResumeEquivalence, enforced
// under -race in ci.sh).
//
// The journal itself lives in internal/record (which already depends on
// this package); the Sink interface below is the seam between the two:
// the campaign streams each completed record into the sink from the worker
// pool, and record.Journal implements Sink with fsync-batched JSONL
// appends.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/train"
)

// Sink receives completed experiment records as the campaign produces
// them. Append is called from the campaign's worker goroutines and must be
// safe for concurrent use; records arrive in completion order, not index
// order. Flush is called once, after the worker pool drains (on completion
// or cancellation), and must make every appended record durable.
type Sink interface {
	Append(idx int, rec Record) error
	Flush() error
}

// orderedSink reorders worker-completion appends into a canonical journal
// sequence before forwarding them to the wrapped sink, making journal bytes
// a pure function of the campaign configuration — independent of worker
// count and of dispatch scheduling. The canonical sequence is fixed up front
// (see Resume); out-of-sequence records buffer until the gap before them
// fills, and the contiguous prefix releases in order.
//
// On cancellation, gap-blocked records are dropped rather than flushed out
// of order: the resumed campaign re-executes them, and the merged journal
// ends up in the same canonical order an uninterrupted run writes.
type orderedSink struct {
	inner Sink

	mu   sync.Mutex
	pos  map[int]int // experiment index -> canonical sequence position
	buf  []*Record   // parked records, slot per sequence position
	idxs []int
	next int // first unreleased sequence position
}

// newOrderedSink wraps inner with the canonical append sequence seq (every
// index this run may append, in release order).
func newOrderedSink(inner Sink, seq []int) *orderedSink {
	pos := make(map[int]int, len(seq))
	for p, idx := range seq {
		pos[idx] = p
	}
	return &orderedSink{inner: inner, pos: pos,
		buf: make([]*Record, len(seq)), idxs: make([]int, len(seq))}
}

// Append implements Sink.
func (s *orderedSink) Append(idx int, rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pos[idx]
	if !ok {
		return fmt.Errorf("experiment: record %d is not in the campaign's append sequence", idx)
	}
	s.buf[p] = &rec
	s.idxs[p] = idx
	for s.next < len(s.buf) && s.buf[s.next] != nil {
		if err := s.inner.Append(s.idxs[s.next], *s.buf[s.next]); err != nil {
			return err
		}
		s.buf[s.next] = nil
		s.next++
	}
	return nil
}

// Flush implements Sink. Only the released contiguous prefix is durable;
// gap-blocked records (possible only after cancellation) are dropped.
func (s *orderedSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Flush()
}

// Shard restricts a Resume call to a contiguous slice of the campaign's
// experiment index space — the unit of work a distributed campaign
// (internal/dist) leases to one worker process. An experiment belongs to
// the shard when its dedup-owner index lies in [Lo, Hi): without Dedup
// every experiment owns itself, and with Dedup an adoptee follows its
// owner into the owner's shard regardless of its own index, so owners and
// adoptees are always co-located and adoption never crosses a shard
// boundary. Because owners ascend within every shard exactly as they do in
// a monolithic run, concatenating the shards' canonical append sequences
// in shard order reproduces the monolithic sequence byte for byte
// (TestShardPartitionEquivalence; internal/dist proves the end-to-end
// journal property over HTTP).
type Shard struct {
	// Lo and Hi bound the owner-index range, inclusive-exclusive.
	Lo, Hi int
}

// contains reports whether owner index i belongs to the shard. A nil shard
// contains everything (the monolithic case).
func (s *Shard) contains(i int) bool {
	return s == nil || (i >= s.Lo && i < s.Hi)
}

// validate bounds-checks the shard against the campaign size.
func (s *Shard) validate(experiments int) error {
	if s == nil {
		return nil
	}
	if s.Lo < 0 || s.Hi > experiments || s.Lo >= s.Hi {
		return fmt.Errorf("experiment: shard [%d,%d) is not a non-empty subrange of [0,%d)", s.Lo, s.Hi, experiments)
	}
	return nil
}

// RunOptions extends a campaign run with durability and observability.
// The zero value reproduces Run's behavior exactly.
type RunOptions struct {
	// Context, when non-nil, allows graceful cancellation: on
	// cancellation the campaign stops dispatching new experiments, drains
	// the in-flight ones to completion, flushes the sink, and returns the
	// partial campaign together with the context's error.
	Context context.Context
	// Golden, when non-nil, is a precomputed fault-free reference
	// (PrepareGolden); otherwise one is prepared from the config.
	Golden *Golden
	// Prior maps experiment indexes to records completed by an earlier
	// run of the same campaign (replayed from a journal). They are
	// adopted verbatim — not re-executed — and are validated against the
	// campaign's deterministically re-sampled faults.
	Prior map[int]Record
	// Sink, when non-nil, receives every newly completed record.
	Sink Sink
	// Stats, when non-nil, is the live ledger: every record this call lands,
	// replayed ones included, adds its one entry to it (see package
	// telemetry). The returned Campaign's Counts sum the same entries.
	Stats *telemetry.CampaignStats
	// Shard, when non-nil, restricts this call to the experiments whose
	// dedup-owner index lies in [Shard.Lo, Shard.Hi). Records outside the
	// shard stay zero-valued and are neither executed nor journaled; the
	// Sink sees exactly the monolithic canonical append sequence restricted
	// to the shard. Used by distributed campaigns (internal/dist).
	Shard *Shard
}

// Resume executes the campaign described by cfg, continuing from any prior
// records. It is the durable, cancellable generalization of Run: with zero
// options it behaves identically; with Prior it skips completed
// experiments byte-identically to never having stopped; with a cancelled
// Context it drains in-flight workers, flushes the sink, and returns the
// partial campaign alongside the context error.
//
// Incomplete records are zero-valued in the returned Campaign.Records;
// Campaign.Completed counts the complete ones, and Campaign.Counts sums
// exactly their ledger entries (ledgerEntry) — the same entries, landed
// once each, that reach opts.Stats. A prior record lands as one that ran
// nothing: it counts as Resumed and carries no execution cost.
func Resume(cfg Config, opts RunOptions) (*Campaign, error) {
	cfg = cfg.withDefaults()
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Shard.validate(cfg.Experiments); err != nil {
		return nil, err
	}
	if cfg.EarlyExitStride > 1 {
		return nil, fmt.Errorf("experiment: EarlyExitStride %d: the early exit compares digests at every boundary; leave it unset", cfg.EarlyExitStride)
	}
	if cfg.DeviceFaults && cfg.Dedup {
		// Dedup keys describe one-shot tensor corruptions; device faults
		// carry per-experiment random value streams and stay armed across
		// iterations. EarlyExit does apply: what it can prove about a device
		// fault it proves below, before anything runs.
		return nil, fmt.Errorf("experiment: dedup does not apply to device-fault campaigns")
	}
	if cfg.DeviceFaults && slices.Contains(cfg.DeviceFaultKinds, fault.DeviceFaultNone) {
		// A record's fault kind is what marks it a device-fault record
		// (Record.device); the journal drops a kindless device fault.
		return nil, fmt.Errorf("experiment: DeviceFaultKinds lists DeviceFaultNone, which is no device fault")
	}
	g := opts.Golden
	if g == nil {
		g = PrepareGolden(cfg)
	} else {
		g.checkCompatible(cfg)
	}
	workers := cfg.WorkerCount()

	c := &Campaign{Cfg: cfg, Ref: g.ref, RefAcc: g.refAcc,
		Stride: g.stride, Snapshots: len(g.snaps), SnapshotBytes: g.bytes}
	sampled := g.sample(cfg)
	completed := make([]bool, cfg.Experiments)
	c.Records, c.landed = make([]Record, cfg.Experiments), completed
	for i, rec := range opts.Prior {
		if i < 0 || i >= len(c.Records) {
			return nil, fmt.Errorf("experiment: prior record index %d out of range [0,%d)", i, len(c.Records))
		}
		if s := &sampled[i]; s.device() && rec.DeviceFault != s.DeviceFault {
			return nil, fmt.Errorf("experiment: prior record %d carries device fault %+v but the campaign sampled %+v — the journal belongs to a different campaign configuration",
				i, rec.DeviceFault, s.DeviceFault)
		} else if !s.device() && rec.Injection != s.Injection {
			return nil, fmt.Errorf("experiment: prior record %d carries injection %+v but the campaign sampled %+v — the journal belongs to a different campaign configuration",
				i, rec.Injection, s.Injection)
		}
		c.Records[i] = rec
		completed[i] = true
	}

	// land adds record i's one ledger entry — run is what executing it cost,
	// zero for a record that ran nothing — to the campaign's Counts and
	// Completed, and to the live ledger, on pool worker wk's count. Every
	// return of this call, an early one on a sink error included, sees
	// Completed == Tally.Total.
	var countsMu sync.Mutex
	land := func(wk, i int, run telemetry.Counts) {
		entry := ledgerEntry(&c.Records[i], run)
		countsMu.Lock()
		c.Counts.Add(entry)
		c.Completed++
		countsMu.Unlock()
		opts.Stats.Land(wk, entry)
	}
	for i, done := range completed {
		if done {
			land(-1, i, telemetry.Counts{Resumed: 1})
		}
	}

	// The dedup plan groups experiments by corruption key (dedup.go); only
	// group owners are dispatched, and each owner's record lands its
	// adoptees' immediately after its own. An experiment belongs to this call
	// when its owner (itself without dedup) lies inside the shard, if any.
	var plan *dedupPlan
	if cfg.Dedup {
		plan = newDedupPlan(g, sampled)
	}

	// One index pass over this call's owners fixes the journal's canonical
	// append sequence before anything runs: first the missing adoptees of
	// already-journaled owners (landed up front, in owner order), then every
	// pending owner in ascending index order, each followed by its pending
	// adoptees. This is exactly the order a single-worker index-order run
	// appends naturally; orderedSink holds multi-worker and snapshot-affine
	// runs to the same byte sequence, and a shard-restricted run emits exactly
	// this sequence filtered to its owners — so concatenating shard journals
	// in shard order reproduces the monolithic byte sequence.
	var journaled, pending, head, tail []int
	for i := range completed {
		if plan.ownerOf(i) != i || !opts.Shard.contains(i) {
			continue
		}
		var missing []int
		for _, j := range plan.adopteesOf(i) {
			if !completed[j] {
				missing = append(missing, j)
			}
		}
		if !completed[i] {
			pending = append(pending, i)
			tail = append(append(tail, i), missing...)
		} else if len(missing) > 0 {
			journaled = append(journaled, i)
			head = append(head, missing...)
		}
	}
	sink := opts.Sink
	if sink != nil {
		sink = newOrderedSink(sink, append(head, tail...))
	}

	// complete lands record rec of experiment i, from worker wk: it fills the
	// slot, lands the record's ledger entry (run is what executing it cost),
	// appends it to the sink, and then lands the adoptees of i that are
	// missing. A journaled owner's record is already in place: only its
	// adoptees land. Each index has exactly one owner, so concurrent workers
	// write disjoint slots.
	var complete func(wk, i int, rec Record, run telemetry.Counts) error
	complete = func(wk, i int, rec Record, run telemetry.Counts) error {
		if !completed[i] {
			c.Records[i] = rec
			completed[i] = true
			land(wk, i, run)
			if sink != nil {
				if err := sink.Append(i, rec); err != nil {
					return fmt.Errorf("experiment: journaling record %d: %w", i, err)
				}
			}
		}
		for _, j := range plan.adopteesOf(i) {
			if !completed[j] {
				if err := complete(wk, j, adoptRecord(rec, i, &sampled[j]), telemetry.Counts{}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// A resumed dedup campaign may hold an owner's record from the prior
	// run while the interruption (or a crash between fsync batches) lost
	// some of its adoptees; land those up front, in owner order, so the
	// merged journal is byte-identical to an uninterrupted run.
	for _, i := range journaled {
		if err := complete(0, i, c.Records[i], telemetry.Counts{}); err != nil {
			return c, err
		}
	}

	// Golden by construction (byconstruction.go), under EarlyExit: a pending
	// experiment whose fault provably touches nothing is the golden run; its
	// record is written from the Golden here, before any engine exists, and
	// only the rest are grouped and dispatched. The policy is the one every
	// pooled engine runs under after rearm.
	order := pending[:0]
	for _, i := range pending {
		proof, ok := g.provablyGolden(cfg, &sampled[i], comm.DefaultPolicy())
		if !ok || ctx.Err() != nil {
			order = append(order, i)
			continue
		}
		if err := complete(0, i, g.goldenRecord(sampled[i], proof), telemetry.Counts{GoldenByConstruction: 1}); err != nil {
			return c, err
		}
	}

	// The dispatch order: pending owners in index order, stably regrouped
	// by the golden snapshot boundary they fork from, so consecutive
	// dispatches to one worker usually Restore the snapshot already resident
	// in its caches (warm restores). Scheduling is invisible in results:
	// every experiment is a pure function of its own sampled record and the
	// immutable Golden, and the orderedSink above fixes the journal byte
	// order independently of it.
	bounds := make(map[int]int, len(order))
	for _, i := range order {
		bounds[i], _ = g.fork(&sampled[i])
	}
	sort.SliceStable(order, func(a, b int) bool { return bounds[order[a]] < bounds[order[b]] })

	// Never run more workers than there are experiments left to dispatch
	// (adoptees never dispatch, nor does what was proven golden above).
	if workers > len(order) {
		workers = len(order)
	}

	// Fixed worker pool over a shared index channel (see RunWithGolden for
	// the determinism argument — identical here: each experiment writes
	// only its own Records[i]). Cancellation stops the feeder; workers
	// finish their in-flight experiment and exit on channel close, so
	// every record that reaches the sink is complete.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var sinkErrOnce sync.Once
	var sinkErr error
	failSink := func(err error) {
		sinkErrOnce.Do(func() { sinkErr = err })
		cancel()
	}
	execute := runOne
	if cfg.DeviceFaults {
		execute = runDeviceFault
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			// The pooled engine is built on the worker's first experiment: a
			// worker that is never handed one builds nothing.
			var pooled *train.Engine
			prevBound := -1
			for i := range idxCh {
				if pooled == nil {
					pooled = g.w.NewEngine(rng.Seed{State: uint64(cfg.Seed), Stream: 77}) // same seed as reference
				}
				evals := pooled.Evaluations()
				rec, run := execute(g, pooled, sampled[i], cfg)
				run.Evaluations = pooled.Evaluations() - evals
				if bounds[i] == prevBound {
					run.WarmRestores = 1
				} else {
					run.ColdRestores = 1
				}
				prevBound = bounds[i]
				if err := complete(wk, i, rec, run); err != nil {
					failSink(err)
					return
				}
			}
		}(wk)
	}
feed:
	// order already excludes completed records and adoptees (their owner's
	// worker lands them).
	for _, i := range order {
		select {
		case idxCh <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	if sink != nil {
		if err := sink.Flush(); err != nil {
			failSink(fmt.Errorf("experiment: flushing sink: %w", err))
		}
	}
	if sinkErr != nil {
		return c, sinkErr
	}
	if err := ctx.Err(); err != nil {
		return c, err
	}
	return c, nil
}

// ledgerEntry is a landed record's one entry in the campaign ledger: run is
// what executing it cost (zero for a record that ran nothing), and the
// record supplies its outcome, its provenance and its mitigation counts.
// Adoptees inherit their owner's early-exit provenance, so only executions
// count as exits.
func ledgerEntry(rec *Record, run telemetry.Counts) telemetry.Counts {
	run.Tally.Add(rec.Outcome)
	switch {
	case rec.AdoptedFrom >= 0:
		run.ExperimentsAdopted = 1
	case rec.EarlyExitIter >= 0:
		run.EarlyExits = 1
	}
	if run.IterationsSkipped > 0 {
		run.Forked = 1
	}
	run.Quarantines, run.Rejoins, run.DegradedIters, run.CommRetries = rec.Quarantines, rec.Rejoins, rec.DegradedIters, rec.CommRetries
	run.JITSnapshots, run.Resizes, run.Readmits = rec.JITSnapshots, rec.Resizes, rec.Readmits
	return run
}
