package core

import (
	"strconv"
	"testing"

	"wsnloc/internal/mathx"
)

// Micro-benchmarks for the map-ordering helpers on the per-round hot path.

func benchHopTable(n int) map[int]anchorHop {
	table := make(map[int]anchorHop, n)
	for i := 0; i < n; i++ {
		table[(i*7919)%2048] = anchorHop{pos: mathx.V2(float64(i), float64(n-i)), hops: (i * 13) % 9}
	}
	return table
}

func BenchmarkSortedKeys(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		table := benchHopTable(n)
		b.Run(benchName("stdsort", n), func(b *testing.B) {
			var scratch []int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scratch = sortedKeys(scratch, table)
			}
		})
	}
}

func BenchmarkSortedHopTable(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		table := benchHopTable(n)
		b.Run(benchName("stdsort", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sortedHopTable(table)
			}
		})
	}
}

func benchName(impl string, n int) string {
	return impl + "/n=" + strconv.Itoa(n)
}
