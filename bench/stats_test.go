package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		q, want float64
	}{
		{0.01, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.9, 5}, {0.99, 5}, {1, 5},
	} {
		if got := percentile([]float64{5, 1, 4, 2, 3}, tc.q); got != tc.want {
			t.Errorf("percentile(1..5, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A failed request counts as +Inf, so it lands in the tail and misses every
// latency limit instead of vanishing from the sample.
func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	lat := []float64{3, math.Inf(1), 1, 2}
	if got := percentile(lat, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := percentile(lat, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf", got)
	}
}

func TestRatioAndMeanOfNothing(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}
