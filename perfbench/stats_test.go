package main

import (
	"math"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected quartiles from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs                 []float64
		n                  int
		q1, median, q3, mx float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 10, 2.75, 5.5, 8.25, 10},
		{[]float64{3.2, 1.0}, 2, 0.45, 2.1, 3.75, 3.2}, // extrapolates past the ends
		{[]float64{2, 4, 4, 5, 7, 9, 10}, 7, 4, 5, 9, 10},
		{[]float64{0.5, 0.25, 0.75}, 3, 0.25, 0.5, 0.75, 0.75},
		{[]float64{4}, 1, 4, 4, 4, 4},
	}
	for _, c := range cases {
		s := Summarize(c.xs)
		if s.N != c.n {
			t.Errorf("%v: N = %d, want %d", c.xs, s.N, c.n)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{{"q1", s.Q1, c.q1}, {"median", s.Median, c.median}, {"q3", s.Q3, c.q3}, {"max", s.Max, c.mx}} {
			if math.Abs(f.got-f.want) > 1e-12 {
				t.Errorf("%v: %s = %v, want %v", c.xs, f.name, f.got, f.want)
			}
		}
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestSummaryEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Median != 0 {
		t.Fatalf("empty sample: %+v", s)
	}
}

func TestEffectiveParallelism(t *testing.T) {
	cases := []struct {
		durs    []float64
		workers int
		want    float64
	}{
		{[]float64{1, 1, 1, 1}, 2, 2},
		// Dispatch in index order: the last, long shard is a straggler.
		{[]float64{1, 1, 1, 3}, 2, 1.5},
		{[]float64{1, 1, 1, 3}, 1, 1},
		{[]float64{2}, 4, 1},
		{nil, 2, 0},
	}
	for _, c := range cases {
		if got := effectiveParallelism(c.durs, c.workers); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("effectiveParallelism(%v, %d) = %v, want %v", c.durs, c.workers, got, c.want)
		}
	}
}
