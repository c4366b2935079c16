package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported tail percentile must have
// beyond it; a percentile with fewer is noise and is not reported.
const minTail = 10

// tailLadder lists the tail percentiles the benchmark may report, highest
// first.
var tailLadder = []float64{99.9, 99, 90}

// tailPercentile returns the highest percentile of tailLadder that keeps at
// least minTail of n samples beyond it. ok is false when even p90 does not,
// that is below 100 samples.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= minTail-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// allowsPercentile reports whether p keeps at least minTail of n samples
// beyond it.
func allowsPercentile(n int, p float64) bool {
	return float64(n)*(1-p/100) >= minTail-1e-9
}

// percentile returns the p-th percentile of xs (0 <= p <= 100), linearly
// interpolated between the two nearest order statistics. xs need not be
// sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median returns the middle value of xs, averaging the two middle values of
// an even-length sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
