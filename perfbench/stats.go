package main

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs, the mean of the two middle values
// when len(xs) is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// minTail is the number of samples that must lie beyond a reported tail
// percentile, so that the percentile rests on more than one or two
// outliers.
const minTail = 10

// rank is the index, in sorted order, of the nearest-rank p-th
// percentile (0 < p < 1) of n samples.
func rank(n int, p float64) int {
	// The tolerance keeps p*n from rounding up past an exact integer.
	return max(int(math.Ceil(p*float64(n)-1e-9))-1, 0)
}

// beyond is how many of n samples lie above their p-th percentile.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// tailOK reports whether the p-th percentile of n samples has at least
// minTail samples beyond it.
func tailOK(n int, p float64) bool { return beyond(n, p) >= minTail }

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[rank(len(xs), p)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
