// Package stats implements the statistics the paper's campaign views
// report: the Wilson score interval behind every k-of-n share at the 99 %
// confidence level of Sec 4.1, percentiles of detection latencies, and the
// observed [min, max] ranges of Table 4.
package stats

import (
	"fmt"
	"math"
	"sort"
)

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
