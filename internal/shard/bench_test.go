package shard_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/shard"
)

// BenchmarkShardedQuery times one fanned-out Query (L = 50, K = 7) over
// S shards sharing one drawn function set, so each query is hashed once
// whatever S is: S = 1 vs S = 8 prices the fan-out itself, d = 16 vs
// d = 128 the hashing (L·K projections of length d) it no longer
// repeats per shard.
func BenchmarkShardedQuery(b *testing.B) {
	const (
		n, nc  = 8000, 80
		radius = 0.5
	)
	for _, dim := range []int{16, 128} {
		// Cluster members sit about 0.8·r apart, so answers are small
		// but non-empty and every shard picks LSH.
		spread := 0.8 * radius / math.Sqrt(2*float64(dim))
		points, queries := clustered(n, nc, dim, spread, 7)
		for _, s := range []int{1, 8} {
			sh, err := shard.New(points, s, 3, l2Builder(dim, radius))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("S=%d/d=%d", s, dim), func(b *testing.B) {
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					sh.Query(queries[i%len(queries)])
					i++
				}
			})
		}
	}
}
