package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(100 - i) // 100..1, unsorted
	}
	s := newSummary(v)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.011, 2}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(newSummary(nil).quantile(0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) summary {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i)
		}
		return newSummary(v)
	}
	// p99 of 1000 samples is rank 990: exactly 10 samples lie beyond it.
	if _, err := mk(1000).tail(0.99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
	// 999 samples leave only 9 beyond rank 990.
	if _, err := mk(999).tail(0.99); err == nil {
		t.Error("p99 of 999 samples was accepted")
	}
	if !mk(20).supports(0.5) || mk(19).supports(0.5) {
		t.Error("p50 support threshold is not at 20 samples")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %g", got)
	}
}
