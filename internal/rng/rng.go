// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the fault-injection framework and the training
// engine.
//
// Determinism is a hard requirement of the paper's recovery technique
// (Sec 5.2): re-executing the two most recent training iterations must
// reproduce the exact same random choices (data shuffles, fault value
// streams), so every consumer of randomness records the
// seed it was created from and can be reconstructed from that seed alone.
//
// The generator is a PCG-XSH-RR variant (O'Neill, 2014) implemented from
// scratch on top of a 64-bit LCG state. It is not cryptographically secure;
// it is fast, has a 2^64 period per stream, and supports 2^63 independent
// streams, which is plenty for statistical fault-injection campaigns.
package rng

import "math"

// multiplier is the canonical PCG 64-bit LCG multiplier.
const multiplier = 6364136223846793005

// Rand is a deterministic pseudo-random number generator. The zero value is
// not valid; construct with New or Split.
type Rand struct {
	state uint64
	inc   uint64 // stream selector; always odd
	seed  Seed   // the seed this generator was constructed from
}

// Seed fully identifies a generator's starting point. Recording a Seed and
// later calling New(seed) reproduces the exact same stream, which is how the
// recovery technique replays an iteration.
type Seed struct {
	State  uint64
	Stream uint64
}

// New returns a generator positioned at the start of the stream identified
// by seed.
func New(seed Seed) *Rand {
	r := new(Rand)
	r.Reseed(seed)
	return r
}

// Reseed repositions r, in place, at the start of the stream identified by
// seed: afterwards r is indistinguishable from New(seed). A caller that draws
// a fresh stream every step (the training engine, per iteration and device)
// keeps one generator and allocates nothing.
func (r *Rand) Reseed(seed Seed) {
	r.inc, r.seed = seed.Stream<<1|1, seed
	// Standard PCG initialization: advance once, add the seed state,
	// advance again so the first output already depends on the seed.
	r.state = 0
	r.next()
	r.state += seed.State
	r.next()
}

// NewFromInt is a convenience constructor for tests and examples: stream 0,
// state derived from n via SplitMix64 so adjacent integers give unrelated
// streams.
func NewFromInt(n int64) *Rand {
	return New(Seed{State: splitmix64(uint64(n)), Stream: 0})
}

// Split derives an independent child generator. The child's stream is a hash
// of the parent's seed and the supplied label, so the same (parent seed,
// label) pair always yields the same child — the property the re-execution
// technique relies on when it re-creates per-device and per-iteration
// generators.
func (r *Rand) Split(label uint64) *Rand {
	return New(r.seed.Split(label))
}

// Split derives the seed of the child generator Rand.Split(label) returns,
// without building the parent or the child.
func (s Seed) Split(label uint64) Seed {
	return Seed{
		State:  splitmix64(s.State ^ splitmix64(label)),
		Stream: splitmix64(s.Stream ^ (label*2 + 1)),
	}
}

// next advances the LCG and returns the previous state.
func (r *Rand) next() uint64 {
	old := r.state
	r.state = old*multiplier + r.inc
	return old
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	// Two 32-bit PCG outputs glued together keep the implementation simple
	// while preserving the statistical quality of PCG-XSH-RR.
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Uint32 returns a uniformly distributed 32-bit value using the XSH-RR
// output permutation.
func (r *Rand) Uint32() uint32 {
	old := r.next()
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias is negligible for n << 2^64
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normally distributed value using the
// Box-Muller transform (the polar variant, to avoid trig in the hot path).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// PermInto overwrites p with a pseudo-random permutation of [0, len(p)) via
// Fisher-Yates, without allocating.
func (r *Rand) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// splitmix64 is the SplitMix64 finalizer, used to decorrelate seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
