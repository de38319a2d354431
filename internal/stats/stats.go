// Package stats implements the statistical machinery used by the
// fault-injection campaigns: summary statistics, geometric means for
// overhead reporting (the paper reports geomean overheads in Sec 5.3),
// histograms of faulty-value magnitudes (Table 4 ranges), and the
// confidence-interval computations behind the paper's claims of a 99%
// confidence level with a 0.1% interval (Sec 4.1).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// Geomean returns the geometric mean of xs. All values must be positive;
// non-positive values are skipped (they would make the geomean undefined),
// mirroring how profiler overhead ratios are aggregated in the paper.
func Geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Proportion describes an observed binomial proportion together with its
// confidence interval. The fault-injection campaign reports every outcome
// percentage as a Proportion.
type Proportion struct {
	Successes int
	Trials    int
	// P is the point estimate Successes/Trials.
	P float64
	// Lo and Hi bound the Wilson score interval at the requested confidence.
	Lo, Hi float64
	// Confidence is the confidence level the interval was computed at,
	// e.g. 0.99.
	Confidence float64
}

// zForConfidence returns the two-sided standard-normal quantile for the
// given confidence level. Implemented via a rational approximation of the
// inverse error function (Acklam), accurate to ~1e-9 which is far beyond
// what interval reporting needs.
func zForConfidence(confidence float64) float64 {
	p := 1 - (1-confidence)/2
	return math.Sqrt2 * erfinv(2*p-1)
}

// erfinv approximates the inverse error function.
func erfinv(x float64) float64 {
	if x <= -1 {
		return math.Inf(-1)
	}
	if x >= 1 {
		return math.Inf(1)
	}
	// Winitzki's approximation followed by one Newton refinement step.
	const a = 0.147
	ln := math.Log(1 - x*x)
	t1 := 2/(math.Pi*a) + ln/2
	y := math.Copysign(math.Sqrt(math.Sqrt(t1*t1-ln/a)-t1), x)
	// Newton step: f(y) = erf(y) - x.
	for i := 0; i < 2; i++ {
		err := math.Erf(y) - x
		y -= err * math.Sqrt(math.Pi) / 2 * math.Exp(y*y)
	}
	return y
}

// WilsonInterval computes the Wilson score interval for successes out of
// trials at the given confidence level (e.g. 0.99). This is the standard
// approach used in resilience studies for reporting fault-injection outcome
// percentages because it behaves well for proportions near 0 or 1.
func WilsonInterval(successes, trials int, confidence float64) Proportion {
	pr := Proportion{Successes: successes, Trials: trials, Confidence: confidence}
	if trials == 0 {
		return pr
	}
	p := float64(successes) / float64(trials)
	pr.P = p
	z := zForConfidence(confidence)
	n := float64(trials)
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	margin := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	pr.Lo = math.Max(0, center-margin)
	pr.Hi = math.Min(1, center+margin)
	// The Wilson bounds are exact at the extremes; clamp away float noise.
	if successes == 0 {
		pr.Lo = 0
	}
	if successes == trials {
		pr.Hi = 1
	}
	return pr
}

// TrialsForInterval returns the number of fault-injection experiments needed
// so that a proportion estimate has a symmetric normal-approximation
// confidence interval of +/- halfWidth at the given confidence level,
// assuming worst-case p = 0.5. This mirrors the paper's statistical design
// (99% confidence, 0.1% interval → millions of experiments at full scale).
func TrialsForInterval(halfWidth, confidence float64) int {
	z := zForConfidence(confidence)
	n := z * z * 0.25 / (halfWidth * halfWidth)
	return int(math.Ceil(n))
}

// UnobservedOutcomeProb bounds the probability that an outcome class exists
// but was never observed in n experiments, at the given confidence level.
// This is the "rule of three" generalization used by the paper to claim that
// the probability of an unexposed unexpected outcome is < 0.004% with 99.5%
// confidence after 2.9M experiments.
func UnobservedOutcomeProb(n int, confidence float64) float64 {
	if n <= 0 {
		return 1
	}
	// P(no observation in n trials) <= 1-confidence  =>  p <= -ln(1-conf)/n.
	return -math.Log(1-confidence) / float64(n)
}

// Histogram is a fixed-bucket histogram over a (possibly logarithmic) range.
type Histogram struct {
	// Edges holds len(Counts)+1 bucket boundaries in increasing order.
	Edges []float64
	// Counts holds the number of samples per bucket.
	Counts []int
	// Under and Over count samples falling outside [Edges[0], Edges[last]).
	Under, Over int
}

// NewLogHistogram builds a histogram with buckets spaced logarithmically
// between lo and hi (both must be positive, lo < hi). Log buckets are the
// natural choice for faulty-value magnitudes, which span 1e8..1e38 in the
// paper's Table 4.
func NewLogHistogram(lo, hi float64, buckets int) (*Histogram, error) {
	if lo <= 0 || hi <= lo || buckets < 1 {
		return nil, fmt.Errorf("stats: invalid log histogram range [%g, %g) with %d buckets", lo, hi, buckets)
	}
	edges := make([]float64, buckets+1)
	logLo, logHi := math.Log(lo), math.Log(hi)
	for i := range edges {
		edges[i] = math.Exp(logLo + (logHi-logLo)*float64(i)/float64(buckets))
	}
	edges[0], edges[buckets] = lo, hi // avoid rounding drift at the ends
	return &Histogram{Edges: edges, Counts: make([]int, buckets)}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	if x < h.Edges[0] {
		h.Under++
		return
	}
	if x >= h.Edges[len(h.Edges)-1] {
		h.Over++
		return
	}
	// Binary search for the bucket.
	i := sort.SearchFloat64s(h.Edges, x)
	if i > 0 && (i >= len(h.Edges) || h.Edges[i] != x) {
		i--
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Total returns the number of in-range samples recorded.
func (h *Histogram) Total() int {
	var n int
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Range describes an observed [Min, Max] interval of values, as reported in
// the paper's Table 4 ("Ranges observed in experiments").
type Range struct {
	Min, Max float64
	N        int
}

// Observe extends the range with a new sample.
func (r *Range) Observe(x float64) {
	if r.N == 0 {
		r.Min, r.Max = x, x
	} else {
		if x < r.Min {
			r.Min = x
		}
		if x > r.Max {
			r.Max = x
		}
	}
	r.N++
}

// String renders the range in the paper's "2.9e38-3.0e38" style.
func (r Range) String() string {
	if r.N == 0 {
		return "(none observed)"
	}
	return fmt.Sprintf("%.1e-%.1e (n=%d)", r.Min, r.Max, r.N)
}
