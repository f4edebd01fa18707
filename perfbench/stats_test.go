package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		p    float64
		want float64
	}{{0, 1}, {1, 1}, {50, 50}, {99, 99}, {99.5, 100}, {100, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		ok     bool
		p      float64
		value  float64
		beyond int
	}{
		{n: 19, ok: false},
		{n: 20, ok: true, p: 50, value: 10, beyond: 10},
		{n: 99, ok: true, p: 50, value: 50, beyond: 49},
		{n: 100, ok: true, p: 90, value: 90, beyond: 10},
		{n: 999, ok: true, p: 90, value: 900, beyond: 99},
		{n: 1000, ok: true, p: 99, value: 990, beyond: 10},
		{n: 10000, ok: true, p: 99.9, value: 9990, beyond: 10},
	} {
		got, ok := highestTail(seq(c.n))
		if ok != c.ok {
			t.Errorf("n=%d: ok = %v, want %v", c.n, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.P != c.p || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g = %g with %d beyond of %d", c.n, got, c.p, c.value, c.beyond, c.n)
		}
	}
}

func TestTailAtReportsSampleCount(t *testing.T) {
	got := tailAt(seq(42), 99)
	if got.N != 42 || got.Beyond != 0 || got.Value != 42 {
		t.Errorf("tailAt(42 samples, 99) = %+v, want the maximum with 0 beyond", got)
	}
}
