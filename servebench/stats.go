package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least ten samples slower than it.
const minBeyond = 10

// summary is a sorted sample of durations in nanoseconds.
type summary struct {
	v []int64
}

func newSummary(v []int64) summary {
	s := slices.Clone(v)
	slices.Sort(s)
	return summary{v: s}
}

func (s summary) n() int { return len(s.v) }

// supports reports whether the sample holds at least minBeyond values
// beyond quantile q.
func (s summary) supports(q float64) bool {
	return len(s.v) > 0 && len(s.v)-rankOf(q, len(s.v)) >= minBeyond
}

// rankOf is the 1-based nearest rank of quantile q in n samples.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// quantile returns the nearest-rank quantile q of the sample, or NaN when
// the sample is empty.
func (s summary) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	return float64(s.v[rankOf(q, len(s.v))-1])
}

// tail returns quantile q and an error when fewer than minBeyond samples
// lie beyond it.
func (s summary) tail(q float64) (float64, error) {
	if !s.supports(q) {
		return s.quantile(q), fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", q*100, len(s.v), minBeyond)
	}
	return s.quantile(q), nil
}

// median of float64 values (mean of the middle pair for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
