package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile of empty should be 0")
	}
}

func TestZForConfidence(t *testing.T) {
	// Standard two-sided z values.
	cases := []struct{ conf, want float64 }{
		{0.90, 1.6449}, {0.95, 1.9600}, {0.99, 2.5758}, {0.995, 2.8070},
	}
	for _, c := range cases {
		if got := zForConfidence(c.conf); !almostEqual(got, c.want, 0.002) {
			t.Errorf("z(%v) = %v, want %v", c.conf, got, c.want)
		}
	}
}

func TestWilsonInterval(t *testing.T) {
	p := WilsonInterval(50, 100, 0.95)
	if !almostEqual(p.P, 0.5, 1e-12) {
		t.Errorf("P = %v", p.P)
	}
	// Known Wilson interval for 50/100 at 95%: about [0.404, 0.596].
	if !almostEqual(p.Lo, 0.4038, 0.003) || !almostEqual(p.Hi, 0.5962, 0.003) {
		t.Errorf("interval = [%v, %v], want ~[0.404, 0.596]", p.Lo, p.Hi)
	}
	// Interval must contain the point estimate and stay within [0,1].
	if p.Lo > p.P || p.Hi < p.P || p.Lo < 0 || p.Hi > 1 {
		t.Errorf("malformed interval %+v", p)
	}
}

func TestWilsonIntervalEdges(t *testing.T) {
	zero := WilsonInterval(0, 100, 0.99)
	if zero.Lo != 0 {
		t.Errorf("0 successes should give Lo = 0, got %v", zero.Lo)
	}
	full := WilsonInterval(100, 100, 0.99)
	if full.Hi != 1 {
		t.Errorf("all successes should give Hi = 1, got %v", full.Hi)
	}
	empty := WilsonInterval(0, 0, 0.99)
	if empty.P != 0 || empty.Lo != 0 || empty.Hi != 0 {
		t.Errorf("empty trials should be zero-valued: %+v", empty)
	}
}

func TestWilsonIntervalShrinksWithN(t *testing.T) {
	small := WilsonInterval(10, 100, 0.99)
	large := WilsonInterval(1000, 10000, 0.99)
	if large.Hi-large.Lo >= small.Hi-small.Lo {
		t.Errorf("interval did not shrink: small %v, large %v", small.Hi-small.Lo, large.Hi-large.Lo)
	}
}

func TestRange(t *testing.T) {
	var r Range
	if r.String() != "(none observed)" {
		t.Errorf("empty Range string = %q", r.String())
	}
	r.Observe(3.6e9)
	r.Observe(1.1e19)
	r.Observe(1e12)
	if r.Min != 3.6e9 || r.Max != 1.1e19 || r.N != 3 {
		t.Errorf("Range = %+v", r)
	}
}

func TestQuickWilsonContainsEstimate(t *testing.T) {
	f := func(s, n uint16) bool {
		trials := int(n)%1000 + 1
		successes := int(s) % (trials + 1)
		p := WilsonInterval(successes, trials, 0.99)
		return p.Lo <= p.P+1e-12 && p.Hi >= p.P-1e-12 && p.Lo >= 0 && p.Hi <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
