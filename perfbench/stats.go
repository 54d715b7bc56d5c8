package main

import "sort"

// Summary describes a sample of one measured quantity: its size, median,
// quartiles and maximum. Every reported timing carries N, so a reader can
// tell a median of three runs from a median of thirty.
type Summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	Max    float64
}

// Summarize computes a Summary. Quartiles use the same "exclusive" method
// as Python's statistics.quantiles(values, n=4), so a spread computed here
// matches one computed from the printed values by that function. With fewer
// than two samples the quartiles collapse onto the single value. An empty
// sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := Summary{N: n, Median: median(s), Max: s[n-1]}
	if n < 2 {
		out.Q1, out.Q3 = s[0], s[0]
		return out
	}
	out.Q1 = exclusiveQuantile(s, 1, 4)
	out.Q3 = exclusiveQuantile(s, 3, 4)
	return out
}

// median of an already sorted, non-empty slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// exclusiveQuantile is the i-th of the n-quantiles of sorted s (len >= 2)
// by Python's default method, step for step: position i*(len+1)/n, the
// bracketing index clamped to [1, len-1], then linear inter- or
// extrapolation between the bracketing pair.
func exclusiveQuantile(s []float64, i, n int) float64 {
	m := len(s) + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > len(s)-1 {
		j = len(s) - 1
	}
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}
