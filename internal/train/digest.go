package train

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"sort"
)

// digestSeeds key StateDigest's two 64-bit halves. They are drawn once per
// process, so a digest is comparable with digests of the same process only —
// all the early exit compares: nothing persists a digest, and every process
// (a campaign, each distributed worker) records its own golden digests.
var digestSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// StateDigest returns a 128-bit keyed digest of the engine's
// evolution-relevant state at an iteration boundary: the root replica's
// weights, the optimizer history tensors (sorted by parameter name), and
// every device's normalization moving statistics — exactly the state a
// Snapshot captures, without the copies.
//
// At an iteration boundary this state determines the rest of training bit
// for bit: the weight broadcast has equalized the replicas, gradients are
// zeroed, the optimizer step counter equals the iteration count, and data
// order plus all randomness are pure functions of (seed, iteration,
// device). Two engines on the same workload/seed with equal digests at the
// same iteration therefore produce identical trajectories from there on —
// the masked-early-exit proof obligation of package experiment, up to the
// collision probability of two independently seeded 64-bit hashes, 2^-128,
// between digests taken in one process (see digestSeeds).
//
// The scratch buffer is reused across calls; StateDigest is not safe for
// concurrent use on one engine (campaign workers own their engines).
func (e *Engine) StateDigest() [16]byte {
	buf := e.digestBuf[:0]
	f32s := func(xs []float32) {
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
	}
	for _, p := range e.replicas[e.grp.Root()].Params() {
		f32s(p.Value.Data)
	}
	if hist := e.opt.History(); hist != nil {
		if len(e.digestNames) != len(hist) {
			e.digestNames = e.digestNames[:0]
			for name := range hist {
				e.digestNames = append(e.digestNames, name)
			}
			sort.Strings(e.digestNames)
		}
		for _, name := range e.digestNames {
			for _, t := range hist[name] {
				f32s(t.Data)
			}
		}
	}
	for d := 0; d < e.cfg.Devices; d++ {
		for _, bn := range e.replicas[d].BatchNorms() {
			f32s(bn.MovingMean.Data)
			f32s(bn.MovingVar.Data)
		}
	}
	e.digestBuf = buf

	var out [16]byte
	binary.LittleEndian.PutUint64(out[:8], maphash.Bytes(digestSeeds[0], buf))
	binary.LittleEndian.PutUint64(out[8:], maphash.Bytes(digestSeeds[1], buf))
	return out
}
