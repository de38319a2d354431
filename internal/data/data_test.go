package data

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func testClusters(t *testing.T) *Dataset {
	t.Helper()
	return NewGaussianClusters(GaussianClustersConfig{
		Classes: 4, Examples: 64, C: 1, H: 4, W: 4, NoiseStd: 0.3, Seed: 1,
	})
}

func TestGaussianClustersShape(t *testing.T) {
	ds := testClusters(t)
	if ds.Len() != 64 || ds.Classes() != 4 {
		t.Fatalf("len=%d classes=%d", ds.Len(), ds.Classes())
	}
	shape := ds.Gather([]int{0, 1}).X.Shape
	if len(shape) != 4 || shape[0] != 2 || shape[1] != 1 || shape[2] != 4 || shape[3] != 4 {
		t.Fatalf("batch shape %v", shape)
	}
}

func TestGaussianClustersNormalized(t *testing.T) {
	ds := testClusters(t)
	all := ds.All()
	var sum, sumsq float64
	for _, v := range all.X.Data {
		sum += float64(v)
		sumsq += float64(v) * float64(v)
	}
	n := float64(len(all.X.Data))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 1e-4 {
		t.Errorf("dataset mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 1e-3 {
		t.Errorf("dataset variance = %v, want ~1", variance)
	}
}

func TestGaussianClustersDeterministic(t *testing.T) {
	a := testClusters(t)
	b := testClusters(t)
	ab, bb := a.All(), b.All()
	for i := range ab.X.Data {
		if ab.X.Data[i] != bb.X.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	for i := range ab.Y {
		if ab.Y[i] != bb.Y[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func TestGaussianClustersSeparable(t *testing.T) {
	// Nearest-template classification should beat chance by a wide margin —
	// otherwise the dataset is not learnable and the training substrate
	// cannot exhibit the paper's convergence phenomenology.
	ds := NewGaussianClusters(GaussianClustersConfig{
		Classes: 4, Examples: 200, C: 1, H: 4, W: 4, NoiseStd: 0.3, Seed: 2,
	})
	all := ds.All()
	exLen := 16
	// Estimate class means from data itself.
	means := make([][]float64, 4)
	counts := make([]int, 4)
	for c := range means {
		means[c] = make([]float64, exLen)
	}
	for i := 0; i < ds.Len(); i++ {
		c := all.Y[i]
		counts[c]++
		for j := 0; j < exLen; j++ {
			means[c][j] += float64(all.X.Data[i*exLen+j])
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		best, bestC := math.Inf(1), 0
		for c := range means {
			var d float64
			for j := 0; j < exLen; j++ {
				diff := float64(all.X.Data[i*exLen+j]) - means[c][j]
				d += diff * diff
			}
			if d < best {
				best, bestC = d, c
			}
		}
		if bestC == all.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(ds.Len())
	if acc < 0.9 {
		t.Fatalf("nearest-mean accuracy = %v, dataset not separable", acc)
	}
}

func TestMazeLabels(t *testing.T) {
	ds := NewMaze(MazeConfig{Examples: 100, H: 5, W: 5, Seed: 3})
	if ds.Classes() != 4 {
		t.Fatalf("classes = %d", ds.Classes())
	}
	seen := make(map[int]bool)
	for _, y := range ds.All().Y {
		if y < 0 || y >= 4 {
			t.Fatalf("bad label %d", y)
		}
		seen[y] = true
	}
	if len(seen) < 3 {
		t.Errorf("labels poorly distributed: %v", seen)
	}
}

func TestSequenceOneHot(t *testing.T) {
	ds := NewSequence(SequenceConfig{Examples: 50, Length: 8, Vocab: 6, Seed: 4})
	all := ds.All()
	// Every position must be exactly one-hot.
	for i := 0; i < ds.Len(); i++ {
		for pos := 0; pos < 8; pos++ {
			var ones int
			for v := 0; v < 6; v++ {
				switch all.X.At(i, pos, v) {
				case 1:
					ones++
				case 0:
				default:
					t.Fatalf("non-binary value at (%d,%d,%d)", i, pos, v)
				}
			}
			if ones != 1 {
				t.Fatalf("position (%d,%d) has %d ones", i, pos, ones)
			}
		}
	}
}

func TestSequenceLabelIsMajority(t *testing.T) {
	ds := NewSequence(SequenceConfig{Examples: 30, Length: 10, Vocab: 5, Seed: 5})
	all := ds.All()
	for i := 0; i < ds.Len(); i++ {
		counts := make([]int, 5)
		for pos := 0; pos < 10; pos++ {
			for v := 0; v < 5; v++ {
				if all.X.At(i, pos, v) == 1 {
					counts[v]++
				}
			}
		}
		label := all.Y[i]
		for v, c := range counts {
			if c > counts[label] {
				t.Fatalf("example %d: label %d (count %d) but token %d has count %d",
					i, label, counts[label], v, c)
			}
		}
	}
}

func TestGather(t *testing.T) {
	ds := testClusters(t)
	b := ds.Gather([]int{3, 0, 7})
	if b.X.Shape[0] != 3 || len(b.Y) != 3 {
		t.Fatalf("batch shape %v, labels %d", b.X.Shape, len(b.Y))
	}
	all := ds.All()
	exLen := 16
	for j := 0; j < exLen; j++ {
		if b.X.Data[0*exLen+j] != all.X.Data[3*exLen+j] {
			t.Fatal("gathered example 0 != dataset example 3")
		}
	}
	if b.Y[0] != all.Y[3] || b.Y[1] != all.Y[0] || b.Y[2] != all.Y[7] {
		t.Fatal("gathered labels wrong")
	}
}

func TestGatherPanicsOutOfRange(t *testing.T) {
	ds := testClusters(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Gather did not panic")
		}
	}()
	ds.Gather([]int{999})
}

func TestLoaderDeterministicReload(t *testing.T) {
	ds := testClusters(t)
	l := NewLoader(ds, 8, rng.Seed{State: 1, Stream: 2})
	// Query out of order; iteration 5's batch must be identical both times.
	// Batch storage is reused by the next call: keep a copy of the first.
	b1 := l.Batch(5)
	b1 = Batch{X: b1.X.Clone(), Y: append([]int(nil), b1.Y...)}
	_ = l.Batch(11)
	_ = l.Batch(0)
	b2 := l.Batch(5)
	for i := range b1.X.Data {
		if b1.X.Data[i] != b2.X.Data[i] {
			t.Fatal("Batch(5) not reproducible")
		}
	}
	for i := range b1.Y {
		if b1.Y[i] != b2.Y[i] {
			t.Fatal("Batch(5) labels not reproducible")
		}
	}
}

func TestLoaderEpochCoverage(t *testing.T) {
	ds := testClusters(t)
	l := NewLoader(ds, 8, rng.Seed{State: 9, Stream: 9})
	bpe := l.BatchesPerEpoch()
	if bpe != 8 {
		t.Fatalf("BatchesPerEpoch = %d, want 8", bpe)
	}
	seen := make(map[int]int)
	for it := 0; it < bpe; it++ {
		for _, idx := range l.Indices(it) {
			seen[idx]++
		}
	}
	if len(seen) != ds.Len() {
		t.Fatalf("epoch covered %d/%d examples", len(seen), ds.Len())
	}
	for idx, c := range seen {
		if c != 1 {
			t.Fatalf("example %d appeared %d times in one epoch", idx, c)
		}
	}
}

func TestLoaderDifferentEpochsDifferentOrder(t *testing.T) {
	ds := testClusters(t)
	l := NewLoader(ds, 8, rng.Seed{State: 10, Stream: 1})
	bpe := l.BatchesPerEpoch()
	same := true
	for it := 0; it < bpe && same; it++ {
		a := l.Indices(it)
		b := l.Indices(it + bpe)
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("epoch 0 and epoch 1 use identical order; shuffling broken")
	}
}

func TestSplit(t *testing.T) {
	ds := testClusters(t)
	train, test := ds.Split(48)
	if train.Len() != 48 || test.Len() != 16 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	if train.Classes() != 4 || test.Classes() != 4 {
		t.Fatal("split lost class count")
	}
	all := ds.All()
	tr := train.All()
	for i := range tr.X.Data {
		if tr.X.Data[i] != all.X.Data[i] {
			t.Fatal("train split data mismatch")
		}
	}
}

func TestSplitPanics(t *testing.T) {
	ds := testClusters(t)
	for _, n := range []int{0, 64, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%d) did not panic", n)
				}
			}()
			ds.Split(n)
		}()
	}
}

func TestQuickLoaderPureFunction(t *testing.T) {
	ds := testClusters(t)
	f := func(state, stream uint64, rawIter uint16) bool {
		iter := int(rawIter) % 64
		l1 := NewLoader(ds, 4, rng.Seed{State: state, Stream: stream})
		l2 := NewLoader(ds, 4, rng.Seed{State: state, Stream: stream})
		a, b := l1.Indices(iter), l2.Indices(iter)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestGatherReusesStorage: gathering into one Batch over a size swing gives,
// bit for bit, what Gather builds in fresh storage, and stops allocating once
// the buffers have held the largest batch.
func TestGatherReusesStorage(t *testing.T) {
	ds := testClusters(t)
	var reused Batch
	for _, idx := range [][]int{{3, 1, 4}, {1, 5, 9, 2, 6, 5, 3, 5}, {8, 9}} {
		ds.gatherInto(&reused, idx)
		want := ds.Gather(idx)
		if !reused.X.SameShape(want.X) || len(reused.Y) != len(want.Y) {
			t.Fatalf("gatherInto shape %v / %d labels, want %v / %d", reused.X.Shape, len(reused.Y), want.X.Shape, len(want.Y))
		}
		for i := range want.X.Data {
			if math.Float32bits(reused.X.Data[i]) != math.Float32bits(want.X.Data[i]) {
				t.Fatalf("gatherInto X[%d] = %v, want %v", i, reused.X.Data[i], want.X.Data[i])
			}
		}
		for i := range want.Y {
			if reused.Y[i] != want.Y[i] {
				t.Fatalf("gatherInto Y[%d] = %d, want %d", i, reused.Y[i], want.Y[i])
			}
		}
	}
	small, large := []int{7, 0}, []int{1, 5, 9, 2, 6, 5, 3, 5}
	if allocs := testing.AllocsPerRun(20, func() {
		ds.gatherInto(&reused, small)
		ds.gatherInto(&reused, large)
	}); allocs != 0 {
		t.Fatalf("steady-state gatherInto allocates %v times, want 0", allocs)
	}
}

// TestLoaderEpochPermutationOracle: Batch and Indices draw each epoch's
// permutation once into the loader's buffer, and must still hand out, for
// every iteration in any order, the slot of rng.New(seed).Split(epoch)
// .Perm(n) that drawing a fresh permutation per call gave — also after the
// loader has moved on to another epoch and back.
func TestLoaderEpochPermutationOracle(t *testing.T) {
	ds := testClusters(t)
	seed := rng.Seed{State: 4, Stream: 6}
	l := NewLoader(ds, 8, seed)
	bpe := l.BatchesPerEpoch()
	for _, iter := range []int{0, 1, bpe - 1, bpe, 3*bpe + 2, 1, 2*bpe + 5, 0} {
		epoch, slot := iter/bpe, iter%bpe
		want := rng.New(seed).Split(uint64(epoch)).Perm(ds.Len())[slot*8 : (slot+1)*8]
		got := l.Indices(iter)
		batch := l.Batch(iter)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Indices(%d)[%d] = %d, fresh permutation %d", iter, i, got[i], want[i])
			}
			if batch.Y[i] != ds.Gather(want).Y[i] {
				t.Fatalf("Batch(%d) label %d differs from the fresh permutation's", iter, i)
			}
		}
	}
	l.Batch(2 * bpe)
	if allocs := testing.AllocsPerRun(20, func() {
		l.Batch(2*bpe + 1)
		l.Batch(2*bpe + 3)
	}); allocs != 0 {
		t.Fatalf("Batch within an epoch allocates %v times, want 0", allocs)
	}
}
