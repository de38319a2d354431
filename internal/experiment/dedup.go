package experiment

// Campaign-scale injection dedup: the redundancy half of the campaign
// equivalence layer (see earlyexit.go for the convergence half).
//
// Soundness. An experiment's trajectory is a pure function of (golden
// trajectory, effective corruption): the prefix before the injection
// iteration is bitwise-identical to the golden run, so the pre-injection
// tensor contents at a given (pass, layer, iteration) site are the same
// for every experiment, and the corruption applied there is fully
// described by the injection's resolved write-op program
// (fault.CorruptionOps — concrete values for value-forcing models,
// symbolic bit flips and element copies for the data-dependent ones,
// which equal pre-states turn into equal post-states). Two injections
// whose (pass, layer, iteration, op program) keys are equal therefore
// produce byte-identical records — same trace, same necessary-condition
// measurements, same detector verdict, same outcome — and only one of
// them needs to run. The others adopt the owner's record verbatim, with
// their own Injection identity and an AdoptedFrom provenance reference.
//
// A backward-weight injection into a parameter-less layer never fires
// (the engine has no weight-gradient tensor to corrupt); every such
// experiment at the same (pass, iteration) is a pure golden replay of the
// same suffix, so they dedup across layers under a dedicated no-fire key.
// The empty-program case of a firing site keys differently from no-fire:
// a fired injection still sets the trace's fault iteration.

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/accel"
	"repro/internal/fault"
)

// dedupPlan is the precomputed execution-sharing schedule of a campaign:
// owner[i] is the lowest experiment index with experiment i's key (== i
// for experiments that execute themselves), and adoptees[o] lists the
// experiments adopting owner o's record, ascending.
type dedupPlan struct {
	owner    []int
	adoptees map[int][]int
}

// newDedupPlan groups a campaign's pre-sampled injections by corruption
// key. Deterministic: keys are pure functions of the injections and the
// golden run's static shape tables, and ownership is by lowest index — so
// an interrupted dedup campaign re-plans identically on resume.
func newDedupPlan(g *Golden, injections []fault.Injection) *dedupPlan {
	p := &dedupPlan{owner: make([]int, len(injections)), adoptees: map[int][]int{}}
	firstByKey := map[[16]byte]int{}
	for i := range injections {
		key := g.corruptionKey(&injections[i])
		if o, ok := firstByKey[key]; ok {
			p.owner[i] = o
			p.adoptees[o] = append(p.adoptees[o], i)
		} else {
			firstByKey[key] = i
			p.owner[i] = i
		}
	}
	return p
}

// duplicates counts experiments that adopt instead of executing.
func (p *dedupPlan) duplicates() int {
	n := 0
	for _, as := range p.adoptees {
		n += len(as)
	}
	return n
}

// site resolves where an injection strikes, from the golden run's static
// shape tables alone: a tag for the pass, whether the engine has a tensor
// there to corrupt at all — a backward-weight injection into a
// parameter-less layer never fires — and, when it fires, the injection's
// resolved write-op program on that tensor, canonically encoded
// (fault.AppendCorruption). An empty program is a fault that fires and
// writes nothing. corruptionKey hashes the result; provablyGolden reads it
// to tell that an experiment is the golden run.
func (g *Golden) site(inj *fault.Injection) (tag byte, fires bool, program []byte) {
	var shape []int
	op := accel.OpForward
	switch inj.Pass {
	case fault.Forward:
		tag, shape = 'f', g.fwdShapes[inj.LayerIdx]
	case fault.BackwardInput:
		tag, shape = 'b', g.bwdShapes[inj.LayerIdx]
	case fault.BackwardWeight:
		if shape = g.wgtShapes[inj.LayerIdx]; shape == nil {
			return 'n', false, nil
		}
		tag, op = 'w', accel.OpWeightGrad
	}
	return tag, true, inj.AppendCorruption(nil, shape, accel.PlanFor(op, shape).ChanAxis)
}

// corruptionKey hashes an injection's effective corruption: the targeted
// tensor (pass + layer), the injection iteration, and the resolved
// write-op program on that tensor's shape. Injection identity fields that
// do not change the corruption (Kind, Seed, cycle/unit/delta parameters
// that resolve to the same ops) deliberately hash equal — that is the
// equivalence being deduplicated.
func (g *Golden) corruptionKey(inj *fault.Injection) [16]byte {
	h := fnv.New128a()
	var hdr [17]byte
	tag, fires, program := g.site(inj)
	hdr[0] = tag
	binary.LittleEndian.PutUint64(hdr[1:], uint64(inj.Iteration))
	if fires {
		// A site that never fires leaves a record depending only on (pass,
		// iteration): the layer index deliberately stays out of its key.
		binary.LittleEndian.PutUint64(hdr[9:], uint64(inj.LayerIdx))
	}
	h.Write(hdr[:])
	h.Write(program)
	var out [16]byte
	h.Sum(out[:0])
	return out
}

// adoptRecord synthesizes experiment record i from its dedup owner's
// completed record: the shared trajectory byte for byte, this experiment's
// own injection identity, and the adoption provenance.
func adoptRecord(owner Record, inj fault.Injection, ownerIdx int) Record {
	rec := owner
	rec.Injection = inj
	rec.AdoptedFrom = ownerIdx
	return rec
}
