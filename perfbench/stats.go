package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile of a sample: it sorts a copy and
// interpolates linearly between the two closest ranks (the same rule as
// numpy's default and Python's statistics.quantiles "inclusive" method), so
// no bucket boundaries blur the value.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile over an already sorted sample.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
