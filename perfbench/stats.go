package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the q-quantile among n
// sorted samples: the smallest rank with at least q·n samples at or
// below it.
func rank(n int, q float64) int {
	// Round q·n first so that 0.9·100 lands on 90, not 90.00000000000001.
	r := int(math.Ceil(math.Round(q*float64(n)*1e9) / 1e9))
	return min(max(r, 1), n)
}

// beyond is the number of samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int { return n - rank(n, q) }

// percentile returns the nearest-rank q-quantile of samples, which it
// sorts in place. It fails when fewer than minBeyond samples lie above
// it, the least a tail percentile needs to mean anything.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q > 0.5 && beyond(n, q) < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it; need %d", q*100, n, beyond(n, q), minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank(n, q)-1], nil
}

// median is the middle of samples (the mean of the two middle ones for
// an even count); it sorts a copy.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0 (no attempts, no hits).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
