package main

import (
	"math"
	"sort"
)

// tailReserve is how many samples must lie beyond a reported percentile:
// an order statistic with fewer than ten samples above it is mostly one
// run's luck, so the helper steps down to the highest rank that has them.
const tailReserve = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an ascending
// sample, the 1-based rank it read, and the sample count. When fewer than
// tailReserve samples lie beyond rank ⌈p·n⌉ the rank steps down to
// n − tailReserve, but never below the median rank: short lists (tpch_spill,
// -scale smoke runs) still report a defined, repeatable order statistic.
func percentile(sorted []float64, p float64) (value float64, rank, n int) {
	n = len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	rank = int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n-tailReserve {
		floor := (n + 1) / 2
		rank = n - tailReserve
		if rank < floor {
			rank = floor
		}
	}
	return sorted[rank-1], rank, n
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method — the cut points Python's statistics.quantiles(xs, n=4) returns,
// which is what the acceptance driver computes spreads with. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
