package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no values.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, the median and the third quartile
// of xs by the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// so the spreads printed here are the ones an outside check of the same
// values computes. One value is its own quartiles; no values give NaNs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	if ld%2 == 1 {
		med = s[ld/2]
	} else {
		med = (s[ld/2-1] + s[ld/2]) / 2
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between the two nearest ranks; NaN for no values.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the tail percentiles a timing may be reported at.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest of tailPercentiles that still has at
// least ten of n samples beyond it, or 0 when even the median has not: a
// tail estimate resting on fewer than ten samples is one outlier's value.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}
