package main

import (
	"fmt"
	"math"
	"sort"
)

// Quantile is one percentile of a sample, with the sample count it was
// taken from and the number of samples strictly above it. Every percentile
// the benchmark prints carries both counts, so a reader can tell a p99 of
// 1000 samples from a p99 of 3.
type Quantile struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

// String renders "p99=12.3 (n=1200, 11 beyond)".
func (q Quantile) String() string {
	return fmt.Sprintf("p%g=%.6g (n=%d, %d beyond)", q.P, q.Value, q.N, q.Beyond)
}

// Percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it. An
// empty sample yields a zero Quantile with N = 0. xs is not modified.
func Percentile(xs []float64, p float64) Quantile {
	q := Quantile{P: p, N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	q.Value = s[rank-1]
	q.Beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > q.Value })
	return q
}

// Median is the 50th nearest-rank percentile's value.
func Median(xs []float64) float64 { return Percentile(xs, 50).Value }

// Mean is the arithmetic mean, 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
