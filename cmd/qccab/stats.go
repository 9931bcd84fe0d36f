package main

import (
	"math"
	"slices"
)

// report is the one JSON line qccab prints.
type report struct {
	A         string     `json:"a"`
	B         string     `json:"b"`
	Exp       string     `json:"exp"`
	Scale     int        `json:"scale"`
	Pairs     int        `json:"pairs"`
	Identical bool       `json:"identical"`
	Differing int        `json:"differing_pairs"`
	Wall      comparison `json:"wall_s"`
	CPU       comparison `json:"cpu_s"`
}

// summary is a sample's median and quartiles.
type summary struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// comparison sets two paired samples side by side: the pairs B took less
// time in, the tied ones, and the two-sided sign test's p-value over the
// untied pairs.
type comparison struct {
	A     summary `json:"a"`
	B     summary `json:"b"`
	BWins int     `json:"b_wins"`
	Ties  int     `json:"ties"`
	P     float64 `json:"p"`
}

// compare compares a[i] with b[i], pair by pair.
func compare(a, b []float64) comparison {
	c := comparison{A: summarize(a), B: summarize(b)}
	for i := range a {
		switch {
		case b[i] < a[i]:
			c.BWins++
		case b[i] == a[i]:
			c.Ties++
		}
	}
	c.P = signTest(c.BWins, len(a)-c.BWins-c.Ties)
	return c
}

// summarize returns the quartiles of xs.
func summarize(xs []float64) summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	return summary{Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// quantile is the q-quantile of sorted, interpolated linearly between the
// two closest ranks (Hyndman and Fan's type 7, R's and NumPy's default); NaN
// for no values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// signTest is the two-sided sign test's p-value for wins against losses:
// twice the probability that a fair coin gives at most min(wins, losses)
// heads in wins+losses tosses, at most 1.
func signTest(wins, losses int) float64 {
	n, k := wins+losses, min(wins, losses)
	term, tail := math.Ldexp(1, -n), 0.0 // C(n, 0) / 2^n
	for i := 0; i <= k; i++ {
		tail += term
		term *= float64(n-i) / float64(i+1)
	}
	return min(1, 2*tail)
}
