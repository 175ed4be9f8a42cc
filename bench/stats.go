package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third
// quartile of vs by the method Python's statistics.quantiles(vs, n=4)
// uses (exclusive), so a spread printed here matches the one the
// benchmark driver computes from the same values. One value is its own
// quartiles; of two, which that method would extrapolate beyond, the
// quartiles are the values themselves.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	case 2:
		return s[0], (s[0] + s[1]) / 2, s[1]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := k*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, med, q3 := quartiles(vs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tail returns the highest of the 99th, 95th, 90th and 75th percentiles
// that still has at least ten samples beyond it, falling back to the
// median when there are too few samples for any of them.
func tail(sorted []float64) (p int, v float64) {
	for _, p := range []int{99, 95, 90, 75} {
		if len(sorted)*(100-p) >= 10*100 {
			return p, percentile(sorted, p)
		}
	}
	return 50, percentile(sorted, 50)
}
