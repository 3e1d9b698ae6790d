package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, which it
// sorts in place; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is num/den, or 0 when den is 0 (the layer did no such work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// pick returns up to n seeded picks of xs, without repeats, in xs order.
func pick[T any](seed uint64, xs []T, n int) []T {
	idx := rand.New(rand.NewPCG(seed, streamPick)).Perm(len(xs))[:min(n, len(xs))]
	sort.Ints(idx)
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}
