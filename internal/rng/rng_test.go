package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministicReplay(t *testing.T) {
	a := New(Seed{State: 42, Stream: 7})
	b := New(Seed{State: 42, Stream: 7})
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentStreamsDiffer(t *testing.T) {
	a := New(Seed{State: 42, Stream: 1})
	b := New(Seed{State: 42, Stream: 2})
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	parent1 := New(Seed{State: 5, Stream: 5})
	parent2 := New(Seed{State: 5, Stream: 5})
	c1 := parent1.Split(123)
	c2 := parent2.Split(123)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split children diverged at draw %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(Seed{State: 5, Stream: 5})
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split children with different labels collided %d/100 times", same)
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(Seed{State: 8, Stream: 8})
	b := New(Seed{State: 8, Stream: 8})
	_ = a.Split(77)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Split advanced parent state")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewFromInt(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewFromInt(3)
	for n := 1; n <= 17; n++ {
		seen := make([]bool, n)
		for i := 0; i < 200*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Errorf("Intn(%d) never produced %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewFromInt(0).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewFromInt(4)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewFromInt(5)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := make([]int, n)
		r.PermInto(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("PermInto over %d = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestUniformityChiSquared(t *testing.T) {
	// Coarse chi-squared test over 16 buckets; catches gross bias.
	r := NewFromInt(6)
	const buckets, draws = 16, 160000
	counts := make([]float64, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	var chi2 float64
	for _, c := range counts {
		d := c - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile is ~37.7.
	if chi2 > 37.7 {
		t.Fatalf("chi-squared = %v, distribution looks biased", chi2)
	}
}

func TestQuickSeedDeterminism(t *testing.T) {
	f := func(state, stream uint64) bool {
		a := New(Seed{State: state, Stream: stream})
		b := New(Seed{State: state, Stream: stream})
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSplitLabelDeterminism(t *testing.T) {
	f := func(state uint64, label uint64) bool {
		p1 := New(Seed{State: state, Stream: 1}).Split(label)
		p2 := New(Seed{State: state, Stream: 1}).Split(label)
		return p1.Uint64() == p2.Uint64() && p1.Uint64() == p2.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := NewFromInt(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := NewFromInt(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// TestPermIntoMatchesPerm: PermInto fills a slice, whatever it held, with
// the Fisher-Yates permutation Intn draws from the same generator state, and
// leaves the generator where that draw leaves it.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 256} {
		a, b := NewFromInt(int64(n)+3), NewFromInt(int64(n)+3)
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := a.Intn(i + 1)
			want[i], want[j] = want[j], want[i]
		}
		got := make([]int, n)
		for i := range got {
			got[i] = -7
		}
		b.PermInto(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PermInto[%d] = %d, Fisher-Yates %d", n, i, got[i], want[i])
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: PermInto and the Fisher-Yates draw leave the generator in different states", n)
		}
	}
}
