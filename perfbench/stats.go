package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark treats that percentile as measured rather than as the maximum.
const minBeyond = 10

// tailLevels are the percentiles a tail report may name, lowest first.
var tailLevels = []float64{50, 90, 99, 99.9, 99.99}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps p*n/100 that is whole in exact arithmetic from
	// rounding up a rank through floating-point error.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (NaN when xs
// is empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sortedCopy(xs)[rank(len(xs), p)-1]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// Tail is one percentile of a latency sample together with the evidence
// behind it.
type Tail struct {
	P      float64 // percentile level
	Value  float64 // nearest-rank value at P
	N      int     // sample count
	Beyond int     // samples ranked above P
}

// tailAt reports the p-th percentile of xs with its sample count and the
// number of samples beyond it.
func tailAt(xs []float64, p float64) Tail {
	t := Tail{P: p, N: len(xs), Value: math.NaN()}
	if len(xs) == 0 {
		return t
	}
	r := rank(len(xs), p)
	t.Value = sortedCopy(xs)[r-1]
	t.Beyond = len(xs) - r
	return t
}

// highestTail returns the highest percentile in tailLevels that has at
// least minBeyond samples beyond it. ok is false when even the median
// lacks that support.
func highestTail(xs []float64) (t Tail, ok bool) {
	for _, p := range tailLevels {
		c := tailAt(xs, p)
		if c.Beyond < minBeyond {
			break
		}
		t, ok = c, true
	}
	return t, ok
}
