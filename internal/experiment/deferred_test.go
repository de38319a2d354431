package experiment

// Deferred test evaluation against its oracle. runOne and runDeviceFault hand
// the engine a FinalTestOnly trace: boundaries are held and one is evaluated
// after the run. The loops below are the two functions as they stood when
// every boundary was evaluated where it fell — a plain trace, the literal
// TestEvery stanza — and every record the campaign produces must equal
// theirs field for field, FinalTestAcc by bits.

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/train"
	"repro/internal/workloads"
)

// evaluateInPlace is the stanza the five training loops used to carry.
func evaluateInPlace(e *train.Engine, testEvery, iter int, trace *train.Trace) {
	if testEvery > 0 && (iter+1)%testEvery == 0 {
		tl, ta := e.Evaluate(e.RootDevice())
		trace.TestIters = append(trace.TestIters, iter)
		trace.TestAcc = append(trace.TestAcc, ta)
		trace.TestLoss = append(trace.TestLoss, tl)
	}
}

// oracleRunOne is runOne with every boundary evaluated in place.
func oracleRunOne(g *Golden, e *train.Engine, inj fault.Injection, cfg Config) Record {
	w := g.w
	start, snap := g.nearest(inj.Iteration)
	rearm(e, snap, cfg)
	e.SetInjection(&inj)
	det := detect.ForEngine(e, w.BatchSize(), w.LR, true)
	earlyExit := cfg.EarlyExit && g.digests != nil
	rec := Record{Injection: inj, NonFiniteIter: -1, DetectIter: -1, QuarantineIter: -1, Masked: true,
		AdoptedFrom: -1, EarlyExitIter: -1,
		RecoveryStrategy: recovery.StrategyNone.String(), TimeToRecoverIters: -1}
	trace := train.NewTrace(w.Name)
	copyGoldenPrefix(trace, g.ref, start)
	for iter := start; iter < g.horizon; iter++ {
		st := e.RunIteration(iter)
		trace.TrainLoss = append(trace.TrainLoss, st.Loss)
		trace.TrainAcc = append(trace.TrainAcc, st.TrainAcc)
		trace.Completed++
		if st.Injected {
			trace.FaultIter = iter
			rec.InjectedElems = st.InjectedElems
			rec.Masked = st.InjectedElems == 0
		}
		if iter == inj.Iteration {
			rec.HistAtT = e.HistoryAbsMax()
			rec.MvarAtT = e.MvarAbsMax()
		}
		if iter == inj.Iteration+1 {
			rec.HistAtT1 = e.HistoryAbsMax()
			rec.MvarAtT1 = e.MvarAbsMax()
		}
		if rec.DetectIter == -1 && iter >= inj.Iteration {
			if a := det.CheckEngine(e); a != nil {
				rec.DetectIter = iter
			}
		}
		evaluateInPlace(e, w.TestEvery, iter, trace)
		if st.NonFinite && trace.NonFiniteIter == -1 {
			trace.NonFiniteIter = iter
			trace.NonFiniteAt = st.NonFiniteAt
			break
		}
		if iter <= inj.Iteration || iter >= g.horizon-1 {
			continue
		}
		if earlyExit && e.StateDigest() == g.digests[iter] {
			rec.EarlyExitIter = iter
			copyGoldenTail(trace, g, iter)
			if rec.DetectIter == -1 {
				rec.DetectIter = g.alarmAfter(iter)
			}
			break
		}
	}
	rec.Outcome = g.cls.Classify(trace, inj.Pass)
	rec.FinalTrainAcc = trace.FinalTrainAcc(10)
	rec.FinalTestAcc = trace.FinalTestAcc()
	rec.NonFiniteIter = trace.NonFiniteIter
	rec.AccuracyCost = g.refAcc - rec.FinalTrainAcc
	return rec
}

// oracleRunDeviceFault is runDeviceFault with every boundary evaluated in
// place: the unmitigated loop carries the stanza, and GroupGuard.Run is
// handed a plain trace, which it evaluates at each boundary it reaches.
func oracleRunDeviceFault(g *Golden, e *train.Engine, df fault.DeviceFault, cfg Config) Record {
	w := g.w
	preFault := df.Iteration - 1
	if preFault < 0 {
		preFault = 0
	}
	start, snap := g.nearest(preFault)
	rearm(e, snap, cfg)
	e.Group().Arm(df)
	strategy := cfg.recoveryStrategy()
	rec := Record{DeviceFault: df, NonFiniteIter: -1, DetectIter: -1, QuarantineIter: -1,
		AdoptedFrom: -1, EarlyExitIter: -1, Masked: true,
		RecoveryStrategy: strategy.String(), TimeToRecoverIters: -1}
	trace := train.NewTrace(w.Name)
	copyGoldenPrefix(trace, g.ref, start)
	if df.Iteration < g.horizon {
		trace.FaultIter = df.Iteration
	}
	hang := false
	if strategy != recovery.StrategyNone {
		gg := recovery.NewGroupGuard(e)
		gg.Strategy = strategy
		if err := gg.Run(start, g.horizon, trace); err != nil {
			hang = true
		}
		rec.DetectIter = gg.FirstDetectIter()
		rec.QuarantineIter = gg.FirstQuarantineIter()
		rec.Quarantines = gg.Quarantines
		rec.Rejoins = gg.Rejoins
		rec.DegradedIters = gg.DegradedIters
		rec.CommRetries = gg.CommRetries
		rec.InjectedElems = gg.CorruptElems
		rec.TimeToRecoverIters = gg.TimeToRecover()
		rec.JITSnapshots = gg.JITSnapshots
		rec.Resizes = gg.Resizes
		rec.Readmits = gg.Readmits
	} else {
		for iter := start; iter < g.horizon; iter++ {
			st := e.RunIteration(iter)
			rec.CommRetries += st.CommRetries
			rec.InjectedElems += st.DeviceFaultElems
			if st.GroupHang {
				hang = true
				break
			}
			trace.TrainLoss = append(trace.TrainLoss, st.Loss)
			trace.TrainAcc = append(trace.TrainAcc, st.TrainAcc)
			trace.Completed++
			evaluateInPlace(e, w.TestEvery, iter, trace)
			if st.NonFinite && trace.NonFiniteIter == -1 {
				trace.NonFiniteIter = iter
				trace.NonFiniteAt = st.NonFiniteAt
				break
			}
		}
	}
	rec.Masked = rec.InjectedElems == 0 && rec.CommRetries == 0 && rec.Quarantines == 0 && !hang
	if hang {
		rec.Outcome = outcome.GroupHang
	} else {
		rec.Outcome = g.cls.Classify(trace, fault.BackwardWeight)
		if rec.Quarantines > 0 && !rec.Outcome.IsUnexpected() {
			if e.Group().HealthyCount() == e.Config().Devices {
				rec.Outcome = outcome.QuarantinedRecovered
			} else {
				rec.Outcome = outcome.DegradedComplete
			}
		}
	}
	rec.FinalTrainAcc = trace.FinalTrainAcc(10)
	rec.FinalTestAcc = trace.FinalTestAcc()
	rec.NonFiniteIter = trace.NonFiniteIter
	rec.AccuracyCost = g.refAcc - rec.FinalTrainAcc
	return rec
}

// deferredPair runs single experiments through the production function and
// its oracle, each on its own pooled engine — so whatever ResolveTest leaves
// in a replica has to be covered by the next experiment's rearm.
type deferredPair struct {
	cfg          Config
	g            *Golden
	prod, oracle *train.Engine
}

func newDeferredPair(cfg Config) *deferredPair {
	cfg = cfg.withDefaults()
	g := PrepareGolden(cfg)
	seed := rng.Seed{State: uint64(cfg.Seed), Stream: 77}
	return &deferredPair{cfg: cfg, g: g, prod: g.w.NewEngine(seed), oracle: g.w.NewEngine(seed)}
}

func (p *deferredPair) ff(t *testing.T, inj fault.Injection) Record {
	t.Helper()
	before := p.prod.Evaluations()
	got, _ := runOne(p.g, p.prod, Sampled(p.cfg, inj, fault.DeviceFault{}), p.cfg)
	want := oracleRunOne(p.g, p.oracle, inj, p.cfg)
	if !recordsEqual(&want, &got) {
		t.Fatalf("injection %+v:\noracle:   %+v\ndeferred: %+v", inj, want, got)
	}
	if n := p.prod.Evaluations() - before; n > 1 {
		t.Fatalf("injection %+v: %d evaluations for one experiment", inj, n)
	}
	return got
}

func (p *deferredPair) df(t *testing.T, df fault.DeviceFault) Record {
	t.Helper()
	before := p.prod.Evaluations()
	got, _ := runDeviceFault(p.g, p.prod, Sampled(p.cfg, fault.Injection{}, df), p.cfg)
	want := oracleRunDeviceFault(p.g, p.oracle, df, p.cfg)
	if !recordsEqual(&want, &got) {
		t.Fatalf("%+v under %s:\noracle:   %+v\ndeferred: %+v", df, p.cfg.recoveryStrategy(), want, got)
	}
	if n := p.prod.Evaluations() - before; n > 1 {
		t.Fatalf("%+v: %d evaluations for one experiment", df, n)
	}
	return got
}

// assertCampaignMatchesOracle runs cfg as a campaign (worker pool, forking,
// dedup plan) and each of its sampled experiments through the oracle.
// Provenance fields are compared too unless the campaign dedups (an adoptee
// differs from its own execution in AdoptedFrom alone).
func assertCampaignMatchesOracle(t *testing.T, cfg Config) *Campaign {
	t.Helper()
	p := newDeferredPair(cfg)
	c := RunWithGolden(cfg, p.g)
	equal := recordsEqual
	oracleCfg := p.cfg
	if cfg.Dedup {
		equal = recordsEquivalent
		oracleCfg.Dedup = false
	}
	sampled := p.g.sample(p.cfg)
	for i := range c.Records {
		var want Record
		if cfg.DeviceFaults {
			want = oracleRunDeviceFault(p.g, p.oracle, sampled[i].DeviceFault, oracleCfg)
		} else {
			want = oracleRunOne(p.g, p.oracle, sampled[i].Injection, oracleCfg)
		}
		if !equal(&want, &c.Records[i]) {
			t.Fatalf("record %d:\noracle:   %+v\ndeferred: %+v", i, want, c.Records[i])
		}
	}
	if executed := int64(c.Completed - c.ExperimentsAdopted); c.Evaluations > executed {
		t.Fatalf("%d evaluations for %d executed experiments", c.Evaluations, executed)
	}
	return c
}

func shrunk(t *testing.T, name string, iters int) *workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = iters
	return w
}

// TestDeferredEvalRecordsExact is the equivalence proof of deferred test
// evaluation; see the file comment. Horizons are 24 or 30 iterations, so
// the TestEvery = 10 boundaries fall after iterations 9, 19 (and 29).
func TestDeferredEvalRecordsExact(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run("ff/"+w.Name, func(t *testing.T) {
			w.Iters = 12
			assertCampaignMatchesOracle(t, Config{Workload: w, Experiments: 5, Seed: 9, HorizonMult: 2, Workers: 2})
		})
	}

	t.Run("ff/dedup+early-exit", func(t *testing.T) {
		cfg := equivTestConfig(t)
		cfg.Dedup, cfg.EarlyExit = true, true
		c := assertCampaignMatchesOracle(t, cfg)
		if c.ExperimentsAdopted == 0 || c.EarlyExits == 0 {
			t.Fatalf("fast paths did not fire: %d adopted, %d early exits", c.ExperimentsAdopted, c.EarlyExits)
		}
	})

	// An INF/NaN stop one before, at and one after the boundary at 9: runOne
	// records the boundary before it breaks, so the stop at 9 evaluates
	// non-finite weights. (`repro faultsim`'s default injection, in the forward
	// pass of a model with no normalization to absorb it.)
	t.Run("ff/nonfinite-around-boundary", func(t *testing.T) {
		p := newDeferredPair(Config{Workload: shrunk(t, "resnet_nobn", 12), Seed: 9, HorizonMult: 2})
		inj := fault.Injection{Kind: accel.GlobalG1, LayerIdx: 1, Pass: fault.Forward, CycleFrac: 0.3,
			N: 8, Unit: 2, DeltaFrac: 0.5, BitPos: 30, Seed: rng.Seed{State: 2654435761, Stream: 1}}
		for _, iter := range []int{8, 9, 10} {
			inj.Iteration = iter
			if rec := p.ff(t, inj); rec.NonFiniteIter != iter {
				t.Fatalf("injection at %d went non-finite at %d; the population misses the case", iter, rec.NonFiniteIter)
			}
		}
	})

	for _, s := range append([]recovery.Strategy{recovery.StrategyNone}, recovery.Strategies...) {
		t.Run("devfault/"+s.String(), func(t *testing.T) {
			cfg := Config{Workload: shrunk(t, "transformer", 15), Experiments: 8, Seed: 5,
				HorizonMult: 2, DeviceFaults: true, Recovery: s, Workers: 2}
			assertCampaignMatchesOracle(t, cfg)

			// A stuck-at exponent bit on plain SGD, where the corrupt update
			// overflows the weights one iteration after onset: unmitigated,
			// and under jit and elastic (which let the update stand), the run
			// stops non-finite one before, at and one after the boundary at 9
			// — the unmitigated loop records the boundary before it breaks,
			// GroupGuard.Run returns before it. Under reexec and degraded the
			// alarm at 10 rolls back to 9, across the boundary. A crash from
			// 8, 9 or 10 on hangs the unmitigated group around the boundary.
			cfg.Workload = shrunk(t, "resnet_sgd", 12)
			p := newDeferredPair(cfg)
			rollsBack := s == recovery.StrategyReexec || s == recovery.StrategyDegraded
			for _, onset := range []int{7, 8, 9, 10} {
				rec := p.df(t, fault.DeviceFault{Kind: fault.DeviceStuckAt, Device: 3, Iteration: onset, BitPos: 30, Lane: 1})
				if rollsBack && (rec.DetectIter != onset || rec.NonFiniteIter != -1) {
					t.Fatalf("%s: stuck-at from %d detected at %d, non-finite at %d; want a clean rollback from the onset",
						s, onset, rec.DetectIter, rec.NonFiniteIter)
				}
				if !rollsBack && rec.NonFiniteIter != onset+1 {
					t.Fatalf("%s: stuck-at from %d went non-finite at %d, want %d", s, onset, rec.NonFiniteIter, onset+1)
				}
				rec = p.df(t, fault.DeviceFault{Kind: fault.DeviceCrash, Device: 0, Iteration: onset})
				if s == recovery.StrategyNone && rec.Outcome != outcome.GroupHang {
					t.Fatalf("unmitigated crash at %d: outcome %s, want a group hang", onset, rec.Outcome)
				}
			}
		})
	}

	// The whole group lost under a guard: with one device, a crash leaves
	// nothing to reduce over, GroupGuard.Run returns its error, and the held
	// boundary is evaluated on device 0, which Root() falls back to.
	t.Run("devfault/whole-group-hang", func(t *testing.T) {
		w := shrunk(t, "resnet", 12)
		w.Devices = 1
		p := newDeferredPair(Config{Workload: w, Seed: 5, HorizonMult: 2, DeviceFaults: true, Recovery: recovery.StrategyJIT})
		for _, iter := range []int{9, 10, 11} {
			rec := p.df(t, fault.DeviceFault{Kind: fault.DeviceCrash, Device: 0, Iteration: iter})
			if rec.Outcome != outcome.GroupHang {
				t.Fatalf("one-device crash at %d: outcome %s, want a group hang", iter, rec.Outcome)
			}
			if rec.FinalTestAcc < 0 && iter > 9 {
				t.Fatalf("one-device crash at %d: no final test point, want the boundary at 9", iter)
			}
		}
	})
}

// TestCampaignEvaluationsAtMostOnePerExperiment: the runtime counter reads
// at most one evaluation per executed experiment, none for adopted records,
// and none where the horizon ends on a boundary and the golden tail
// therefore supplies every early exit's final point.
func TestCampaignEvaluationsAtMostOnePerExperiment(t *testing.T) {
	w := shrunk(t, "resnet", 10) // horizon 20: the last boundary is the last iteration
	base := Config{Workload: w, Experiments: 24, Seed: 9, HorizonMult: 2}
	exhaustive := Run(base)
	if exhaustive.Evaluations > int64(exhaustive.Completed) || exhaustive.Evaluations == 0 {
		t.Fatalf("exhaustive: %d evaluations for %d experiments", exhaustive.Evaluations, exhaustive.Completed)
	}

	fast := base
	fast.Dedup, fast.EarlyExit = true, true
	c := Run(fast)
	if c.ExperimentsAdopted == 0 || c.EarlyExits == 0 {
		t.Fatalf("fast paths did not fire: %d adopted, %d early exits", c.ExperimentsAdopted, c.EarlyExits)
	}
	toEnd := int64(c.Completed - c.ExperimentsAdopted - c.EarlyExits)
	if c.Evaluations > toEnd {
		t.Fatalf("%d evaluations, but only %d experiments ran to their own end (%d adopted, %d early exits)",
			c.Evaluations, toEnd, c.ExperimentsAdopted, c.EarlyExits)
	}

	df := deviceFaultConfig(t)
	df.Recovery = recovery.StrategyJIT
	if d := Run(df); d.Evaluations > int64(d.Completed) || d.Evaluations == 0 {
		t.Fatalf("device faults: %d evaluations for %d experiments", d.Evaluations, d.Completed)
	}
}
