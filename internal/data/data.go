// Package data provides the synthetic training datasets used as stand-ins
// for the paper's CIFAR-10, VOC12, 25×25-maze and WMT14 workloads, plus a
// deterministic mini-batch loader.
//
// Two properties drive the design:
//
//  1. Substitution fidelity. The paper shows (Sec 4.3.4) that how hardware
//     failures propagate does not depend on dataset sizes or content — only
//     on the training dynamics. The generators here produce learnable,
//     non-degenerate tasks (Gaussian cluster images, maze navigation, token
//     sequences) that give the optimizer and normalization layers realistic
//     statistics to operate on.
//  2. Exact reload. The recovery technique (Sec 5.2) re-executes the two
//     most recent iterations, which requires "reloading the mini-batch
//     data-set used for the previous iteration". Loader.Batch(iter) is a
//     pure function of (dataset, batch size, seed, iter), so any past
//     iteration's batch can be reproduced exactly.
package data

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Batch is one mini-batch of supervised examples: inputs X with the batch
// dimension first, and integer class labels Y, len(Y) == X.Shape[0].
type Batch struct {
	X *tensor.Tensor
	Y []int
}

// Dataset is an in-memory supervised dataset. All synthetic datasets are
// fully materialized at construction: they are small, and materialization
// makes batch reload trivially deterministic.
type Dataset struct {
	// x holds all examples: shape [N, ...example shape].
	x *tensor.Tensor
	y []int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.y) }

// Gather assembles a batch from the given example indices, in fresh storage.
func (d *Dataset) Gather(indices []int) Batch {
	var b Batch
	d.gatherInto(&b, indices)
	return b
}

// gatherInto assembles the batch of the given example indices in b's own
// storage: b.X and b.Y only grow, so gathering batch after batch into one b
// stops allocating once it has held the largest. Every element is written.
func (d *Dataset) gatherInto(b *Batch, indices []int) {
	exLen := 1
	for _, s := range d.x.Shape[1:] {
		exLen *= s
	}
	n := len(indices)
	if b.X == nil || cap(b.X.Data) < n*exLen {
		b.X = &tensor.Tensor{Data: make([]float32, n*exLen)}
	}
	b.X.Data = b.X.Data[:n*exLen]
	b.X.Shape = append(append(b.X.Shape[:0], n), d.x.Shape[1:]...)
	if cap(b.Y) < n {
		b.Y = make([]int, n)
	}
	b.Y = b.Y[:n]
	for bi, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			panic(fmt.Sprintf("data: example index %d out of range [0,%d)", idx, d.Len()))
		}
		copy(b.X.Data[bi*exLen:(bi+1)*exLen], d.x.Data[idx*exLen:(idx+1)*exLen])
		b.Y[bi] = d.y[idx]
	}
}

// Loader produces deterministic mini-batches. The epoch-e permutation is
// derived by splitting the seed with label e, so Batch(iter) never depends
// on loader state and can be called out of order — the exact-reload property
// the recovery technique needs.
//
// A Loader is not safe for concurrent use: Batch reuses one buffer, and
// both Batch and Indices one permutation.
type Loader struct {
	ds        *Dataset
	batchSize int
	seed      rng.Seed
	buf       Batch // Batch's reused storage
	// perm is epoch's permutation, drawn by rand on the first request of a
	// batch of that epoch; nil until then.
	perm  []int
	epoch int
	rand  rng.Rand
}

// NewLoader creates a loader over ds with the given batch size and seed.
func NewLoader(ds *Dataset, batchSize int, seed rng.Seed) *Loader {
	if batchSize <= 0 || batchSize > ds.Len() {
		panic(fmt.Sprintf("data: batch size %d invalid for dataset of %d examples", batchSize, ds.Len()))
	}
	return &Loader{ds: ds, batchSize: batchSize, seed: seed}
}

// BatchesPerEpoch returns the number of full batches per epoch (the tail
// remainder is dropped, as in typical training loops).
func (l *Loader) BatchesPerEpoch() int { return l.ds.Len() / l.batchSize }

// BatchSize returns the configured mini-batch size.
func (l *Loader) BatchSize() int { return l.batchSize }

// indices returns the example indices that make up global iteration iter,
// as a view of the loader's epoch permutation, valid until a call for
// another epoch. The epoch-e permutation is rng.New(seed).Split(e)'s
// PermInto over the dataset length, drawn once per epoch into the loader's
// buffer.
func (l *Loader) indices(iter int) []int {
	bpe := l.BatchesPerEpoch()
	epoch := iter / bpe
	slot := iter % bpe
	if l.perm == nil || l.epoch != epoch {
		if l.perm == nil {
			l.perm = make([]int, l.ds.Len())
		}
		l.rand.Reseed(l.seed.Split(uint64(epoch)))
		l.rand.PermInto(l.perm)
		l.epoch = epoch
	}
	return l.perm[slot*l.batchSize : (slot+1)*l.batchSize]
}

// Batch returns the mini-batch for global iteration iter. Its contents are a
// pure function of the loader configuration, allowing exact re-execution of
// past iterations; its storage belongs to the loader and is overwritten by
// the next Batch call, so a caller that keeps a batch across calls copies it.
func (l *Loader) Batch(iter int) Batch {
	l.ds.gatherInto(&l.buf, l.indices(iter))
	return l.buf
}

// All returns the entire dataset as one batch (used for test-set evaluation).
func (d *Dataset) All() Batch {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return d.Gather(idx)
}

// --- Generators ---------------------------------------------------------

// GaussianClustersConfig parameterizes the image-classification stand-in for
// CIFAR-10: each class is a random template image, and every example is the
// class template plus Gaussian pixel noise.
type GaussianClustersConfig struct {
	Classes  int
	Examples int // total examples across all classes
	C, H, W  int // example shape (channels, height, width)
	NoiseStd float64
	Seed     int64
}

// NewGaussianClusters builds the dataset. Templates are drawn from N(0,1)
// per pixel and examples from N(template, NoiseStd²), then the whole dataset
// is normalized to zero mean, unit variance — Property 2 of the paper's
// Algorithm 1 assumes a normalized input dataset.
func NewGaussianClusters(cfg GaussianClustersConfig) *Dataset {
	if cfg.Classes < 2 || cfg.Examples < cfg.Classes {
		panic("data: GaussianClusters needs >=2 classes and >=1 example per class")
	}
	r := rng.NewFromInt(cfg.Seed)
	exLen := cfg.C * cfg.H * cfg.W
	templates := make([][]float32, cfg.Classes)
	for c := range templates {
		tmpl := make([]float32, exLen)
		tr := r.Split(uint64(c) + 1)
		for i := range tmpl {
			tmpl[i] = float32(tr.NormFloat64())
		}
		templates[c] = tmpl
	}
	x := tensor.New(cfg.Examples, cfg.C, cfg.H, cfg.W)
	y := make([]int, cfg.Examples)
	nr := r.Split(0x9e)
	for i := 0; i < cfg.Examples; i++ {
		class := i % cfg.Classes
		y[i] = class
		base := i * exLen
		for j := 0; j < exLen; j++ {
			x.Data[base+j] = templates[class][j] + float32(cfg.NoiseStd*nr.NormFloat64())
		}
	}
	normalize(x)
	return &Dataset{x: x, y: y}
}

// MazeConfig parameterizes the maze-navigation stand-in for the paper's
// multigrid-neural-memory 25×25-maze workload. Each example is a grid with
// an agent cell and a goal cell; the label is the first move (N/E/S/W) of a
// shortest path toward the goal (Manhattan policy, ties broken toward the
// axis with the larger distance).
type MazeConfig struct {
	Examples int
	H, W     int
	Seed     int64
}

// Maze direction labels.
const (
	MoveNorth = iota
	MoveEast
	MoveSouth
	MoveWest
	mazeMoves
)

// NewMaze builds the maze dataset. The input has one channel: agent = +1,
// goal = -1, elsewhere 0, plus small noise so variance is non-degenerate.
func NewMaze(cfg MazeConfig) *Dataset {
	if cfg.H < 2 || cfg.W < 2 {
		panic("data: maze must be at least 2x2")
	}
	r := rng.NewFromInt(cfg.Seed)
	x := tensor.New(cfg.Examples, 1, cfg.H, cfg.W)
	y := make([]int, cfg.Examples)
	for i := 0; i < cfg.Examples; i++ {
		ay, ax := r.Intn(cfg.H), r.Intn(cfg.W)
		gy, gx := r.Intn(cfg.H), r.Intn(cfg.W)
		for gy == ay && gx == ax {
			gy, gx = r.Intn(cfg.H), r.Intn(cfg.W)
		}
		base := i * cfg.H * cfg.W
		for j := 0; j < cfg.H*cfg.W; j++ {
			x.Data[base+j] = float32(0.05 * r.NormFloat64())
		}
		x.Data[base+ay*cfg.W+ax] += 1
		x.Data[base+gy*cfg.W+gx] -= 1
		dy, dx := gy-ay, gx-ax
		switch {
		case abs(dy) >= abs(dx) && dy < 0:
			y[i] = MoveNorth
		case abs(dy) >= abs(dx) && dy > 0:
			y[i] = MoveSouth
		case dx > 0:
			y[i] = MoveEast
		default:
			y[i] = MoveWest
		}
	}
	normalize(x)
	return &Dataset{x: x, y: y}
}

// SequenceConfig parameterizes the token-sequence stand-in for the WMT14
// translation workload. Each example is a one-hot encoded token sequence of
// length L over a vocabulary of size V, and the label is the majority token
// of the sequence — a task that requires aggregating information across the
// whole sequence, like translation requires attending across positions.
type SequenceConfig struct {
	Examples int
	Length   int // L
	Vocab    int // V; also the number of classes
	Seed     int64
}

// NewSequence builds the sequence dataset with example shape [L, V]
// (position-major one-hot rows).
func NewSequence(cfg SequenceConfig) *Dataset {
	if cfg.Vocab < 2 || cfg.Length < 1 {
		panic("data: sequence needs vocab >= 2 and length >= 1")
	}
	r := rng.NewFromInt(cfg.Seed)
	x := tensor.New(cfg.Examples, cfg.Length, cfg.Vocab)
	y := make([]int, cfg.Examples)
	counts := make([]int, cfg.Vocab)
	for i := 0; i < cfg.Examples; i++ {
		for c := range counts {
			counts[c] = 0
		}
		// Bias the sequence toward a "topic" token so the majority label is
		// learnable but not trivial.
		topic := r.Intn(cfg.Vocab)
		for pos := 0; pos < cfg.Length; pos++ {
			var tok int
			if r.Float64() < 0.5 {
				tok = topic
			} else {
				tok = r.Intn(cfg.Vocab)
			}
			counts[tok]++
			x.Set(1, i, pos, tok)
		}
		best, bestTok := -1, 0
		for tok, c := range counts {
			if c > best {
				best, bestTok = c, tok
			}
		}
		y[i] = bestTok
	}
	return &Dataset{x: x, y: y}
}

// Split partitions d into a training set of n examples and a test set of the
// remainder, preserving example order (generators already interleave
// classes).
func (d *Dataset) Split(n int) (train, test *Dataset) {
	if n <= 0 || n >= d.Len() {
		panic(fmt.Sprintf("data: split size %d invalid for %d examples", n, d.Len()))
	}
	exLen := 1
	for _, s := range d.x.Shape[1:] {
		exLen *= s
	}
	mk := func(lo, hi int) *Dataset {
		shape := append([]int{hi - lo}, d.x.Shape[1:]...)
		x := tensor.New(shape...)
		copy(x.Data, d.x.Data[lo*exLen:hi*exLen])
		y := append([]int(nil), d.y[lo:hi]...)
		return &Dataset{x: x, y: y}
	}
	return mk(0, n), mk(n, d.Len())
}

// normalize shifts and scales all example data to zero mean, unit variance
// (Algorithm 1, Property 2).
func normalize(x *tensor.Tensor) {
	var sum, sumsq float64
	for _, v := range x.Data {
		sum += float64(v)
		sumsq += float64(v) * float64(v)
	}
	n := float64(len(x.Data))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance <= 0 {
		return
	}
	inv := float32(1 / math.Sqrt(variance))
	m := float32(mean)
	for i := range x.Data {
		x.Data[i] = (x.Data[i] - m) * inv
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
