package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and one stray sample moves it.
const minBeyond = 10

// quantile is one percentile of a sample set.
type quantile struct {
	Q      float64
	Value  float64
	N      int // samples the percentile was taken over
	Beyond int // samples ranked strictly above it
	// Resolved is whether at least minBeyond samples lie beyond it.
	Resolved bool
}

// percentile returns the nearest-rank q-quantile of samples (0 < q < 1)
// with its sample count. A failed request enters as +Inf, beyond every
// latency limit. samples is sorted in place.
func percentile(samples []float64, q float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{Q: q, Value: math.NaN()}
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	beyond := n - rank - 1
	return quantile{Q: q, Value: samples[rank], N: n, Beyond: beyond, Resolved: beyond >= minBeyond}
}

// median is the middle of xs (mean of the middle two for even counts), 0
// for none. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
