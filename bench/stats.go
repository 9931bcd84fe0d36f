package main

import (
	"math"
	"sort"

	"repro/internal/experiment"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, which
// it sorts in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

// window is the half-width, in quantile points, of the band of order
// statistics a windowed percentile averages.
const window = 0.025

// around returns the windowed p-quantile of sorted: the mean of the order
// statistics between the quantiles p-window and p+window. Virtual response
// times of a few query types under a few load phases cluster in modes of
// equal weight, and a plain median or 95th percentile of such samples sits
// on the edge between two modes, where one sample changing sides moves it
// by a whole gap. The windowed percentile answers the same question and
// moves in proportion.
func around(sorted []float64, p float64) float64 {
	n := float64(len(sorted))
	lo := min(len(sorted)-1, int(math.Round((p-window)*n)))
	hi := min(len(sorted), max(lo+1, int(math.Round((p+window)*n))))
	return experiment.Mean(sorted[lo:hi])
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (exclusive
// method), the statistic the acceptance rule is written in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(1), at(2), at(3)
}

// micros converts nanosecond samples to microseconds.
func micros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
