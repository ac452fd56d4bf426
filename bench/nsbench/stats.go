package main

import "sort"

// median returns the median of xs, sorting xs in place; 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// maximum returns the largest of xs; 0 for no values.
func maximum(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// trimmedMean is the mean of xs without its lowest and highest frac of
// values; xs is sorted in place. Over window-pair ratios it is steadier
// than the median: where copshttp's latency has two modes, the median of
// the pairs jumps between them as their mix shifts, while the trimmed
// mean moves in proportion, and trimming still drops the pairs a stall
// distorted.
func trimmedMean(xs []float64, frac float64) float64 {
	sort.Float64s(xs)
	k := int(frac * float64(len(xs)))
	xs = xs[k : len(xs)-k]
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so a spread printed here reads the same as one computed from
// the emitted JSON. xs is sorted in place; it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(append([]float64(nil), xs...))
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// nanosecond samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
