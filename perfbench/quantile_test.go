package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{50, 5, 5},
		{90, 9, 1},
		{99, 10, 0},
		{100, 10, 0},
		{10, 1, 9},
		{0.001, 1, 9},
	} {
		q := Percentile(xs, c.p)
		if q.Value != c.value || q.N != len(xs) || q.Beyond != c.beyond {
			t.Errorf("p%g = %+v, want value %g, n %d, beyond %d", c.p, q, c.value, len(xs), c.beyond)
		}
	}
	if xs[0] != 5 {
		t.Errorf("Percentile reordered its input: %v", xs)
	}
}

func TestPercentileCountsTiesAsNotBeyond(t *testing.T) {
	q := Percentile([]float64{1, 2, 2, 2, 3}, 50)
	if q.Value != 2 || q.Beyond != 1 {
		t.Errorf("got %+v, want value 2 with 1 sample beyond", q)
	}
}

func TestPercentileSampleCountForP99(t *testing.T) {
	xs := make([]float64, 1200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q := Percentile(xs, 99)
	if q.Value != 1188 || q.N != 1200 || q.Beyond != 12 {
		t.Errorf("p99 of 1..1200 = %+v, want 1188 with 12 beyond", q)
	}
	if got := q.String(); got != "p99=1188 (n=1200, 12 beyond)" {
		t.Errorf("String() = %q", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if q := Percentile(nil, 50); q.N != 0 || q.Value != 0 {
		t.Errorf("empty sample gave %+v", q)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %g", m)
	}
}

func TestMedianAndMean(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if m := Median(xs); m != 2 {
		t.Errorf("Median = %g, want 2 (nearest rank)", m)
	}
	if m := Mean(xs); m != 4 {
		t.Errorf("Mean = %g, want 4", m)
	}
}
