package main

import (
	"slices"
)

// percentile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks; 0 for an empty input.
func percentile[T int64 | float64](sorted []T, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := min(max(q, 0), 1) * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return float64(sorted[n-1])
	}
	return float64(sorted[lo]) + (pos-float64(lo))*float64(sorted[lo+1]-sorted[lo])
}

// quantileOf sorts a copy of xs and returns its q-quantile.
func quantileOf(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, q)
}

// quietHigh is the quiet quartile of a higher-is-better per-slice series.
func quietHigh(xs []float64) float64 { return quantileOf(xs, 0.75) }

// quietLow is the quiet quartile of a lower-is-better per-slice series.
func quietLow(xs []float64) float64 { return quantileOf(xs, 0.25) }

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// durationPercentile returns the q-quantile of ns (sorted in place), in ns.
func durationPercentile(ns []int64, q float64) float64 {
	slices.Sort(ns)
	return percentile(ns, q)
}
