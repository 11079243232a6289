package hybridlsh

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/shard"
)

// The sharding oracle: an S-shard index built with seed s draws the one
// function set the unsharded index with seed s draws, and every point
// lives in exactly one shard, so sharding must never change an answer.

// lshQuerier is the forced-LSH entry point every store type offers.
type lshQuerier[P any] interface {
	QueryLSH(q P) ([]int32, core.QueryStats)
}

// oracleCase is one index family under the oracle.
type oracleCase[P any] struct {
	name            string
	points, queries []P
	// build constructs the unsharded store over pts with seed.
	build func(pts []P, seed uint64) (core.Store[P], error)
	// sharded constructs the S-shard index through the public API.
	sharded func(pts []P, s int, seed uint64) (*shard.Sharded[P], error)
	// exact is the ground truth over points.
	exact func(q P) []int32
}

// shardLSHUnion returns the union, in global ids, of every shard's
// forced-LSH answer.
func shardLSHUnion[P any](t *testing.T, s *shard.Sharded[P], q P) []int32 {
	t.Helper()
	var out []int32
	err := s.Snapshot(func(view []shard.ShardSnapshot[P], _ int32, _ []int32) error {
		for _, v := range view {
			local, _ := v.Index.(lshQuerier[P]).QueryLSH(q)
			for _, id := range local {
				out = append(out, v.IDs[id])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sortedIDs(out)
}

// isSubset reports whether every id of a is in b (both sorted).
func isSubset(a, b []int32) bool {
	for _, id := range a {
		if _, ok := slices.BinarySearch(b, id); !ok {
			return false
		}
	}
	return true
}

func runShardingOracle[P any](t *testing.T, c oracleCase[P]) {
	const seed = 17
	flat, err := c.build(c.points, seed)
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for _, s := range []int{1, 3, 8} {
		sh, err := c.sharded(c.points, s, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !sh.Stats().SharedKeys {
			t.Fatalf("S=%d: shards built from one seed do not share keys", s)
		}
		for qi, q := range c.queries {
			want, _ := flat.(lshQuerier[P]).QueryLSH(q)
			want = sortedIDs(want)
			if got := shardLSHUnion(t, sh, q); !slices.Equal(got, want) {
				t.Fatalf("S=%d query %d: shards' forced-LSH union (%d ids) != unsharded QueryLSH (%d ids)", s, qi, len(got), len(want))
			}
			exact := sortedIDs(c.exact(q))
			misses += len(exact) - len(want)
			hybrid, st := sh.Query(q)
			hybrid = sortedIDs(hybrid)
			// Each unsharded bucket is the union of the shards' buckets
			// under the same key, so the shards' collision counts from the
			// shared keys sum to the unsharded count whatever each shard
			// then decides.
			if _, fst := flat.Query(q); st.Collisions != fst.Collisions {
				t.Fatalf("S=%d query %d: shards collide %d times, the unsharded index %d", s, qi, st.Collisions, fst.Collisions)
			}
			if !isSubset(hybrid, exact) {
				t.Fatalf("S=%d query %d: hybrid answer reports ids outside r", s, qi)
			}
			if !isSubset(want, hybrid) {
				t.Fatalf("S=%d query %d: hybrid answer misses ids unsharded QueryLSH finds", s, qi)
			}
		}
	}
	if misses == 0 {
		t.Fatalf("%s: LSH missed no true neighbor, so the oracle compared no misses; use a harder instance", c.name)
	}
	t.Logf("%s: LSH missed %d true neighbors over the sweep", c.name, misses)

	// Shards with independent functions (as snapshots written before
	// shards shared functions hold them) answer on the per-shard path,
	// each shard exactly as its own index does.
	const s = 3
	views := make([]shard.ShardSnapshot[P], s)
	for j := range views {
		var part []P
		for i := j; i < len(c.points); i += s {
			part = append(part, c.points[i])
			views[j].IDs = append(views[j].IDs, int32(i))
		}
		if views[j].Index, err = c.build(part, seed+uint64(j)); err != nil {
			t.Fatal(err)
		}
	}
	sh, err := shard.Restore(views, int32(len(c.points)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Stats().SharedKeys {
		t.Fatal("shards with independent functions report shared keys")
	}
	for qi, q := range c.queries {
		var want []int32
		for _, v := range views {
			local, _ := v.Index.Query(q)
			for _, id := range local {
				want = append(want, v.IDs[id])
			}
		}
		got, _ := sh.Query(q)
		if !slices.Equal(sortedIDs(got), sortedIDs(want)) {
			t.Fatalf("per-shard path query %d: sharded answer (%d ids) != the shards' own answers (%d ids)", qi, len(got), len(want))
		}
	}
}

// spreadClusters is clustered data loose enough that LSH misses some
// true neighbors near the radius, so the oracle compares real misses.
func spreadClusters(n, nc, dim int, seed uint64) (points, queries []Dense) {
	r := rng.New(seed)
	for i := 0; i < nc; i++ {
		c := make(Dense, dim)
		for d := range c {
			c[d] = float32(r.Float64())
		}
		queries = append(queries, c)
	}
	for i := 0; i < n; i++ {
		c := queries[i%nc]
		p := make(Dense, dim)
		for d := range p {
			p[d] = c[d] + float32(r.Normal()*0.08)
		}
		points = append(points, p)
	}
	return points, queries
}

func TestShardingNeverChangesAnAnswerL2(t *testing.T) {
	const radius = 0.4
	points, queries := spreadClusters(1200, 20, 16, 3)
	runShardingOracle(t, oracleCase[Dense]{
		name:    "l2",
		points:  points,
		queries: queries,
		build: func(pts []Dense, seed uint64) (core.Store[Dense], error) {
			ix, err := NewL2Index(pts, radius, WithSeed(seed))
			if err != nil {
				return nil, err
			}
			return ix.Index, nil
		},
		sharded: func(pts []Dense, s int, seed uint64) (*shard.Sharded[Dense], error) {
			ix, err := NewShardedL2Index(pts, radius, WithSeed(seed), WithShards(s))
			if err != nil {
				return nil, err
			}
			return ix.Sharded, nil
		},
		exact: func(q Dense) []int32 { return GroundTruth(points, q, radius) },
	})
}

func TestShardingNeverChangesAnAnswerMultiProbe(t *testing.T) {
	const radius = 0.4
	points, queries := spreadClusters(1200, 20, 16, 5)

	// Per-request probe overrides travel with the shared keys: at every
	// T the shards collide exactly as often as the unsharded index, and
	// the sharded answer contains the unsharded LSH answer.
	flat, err := NewMultiProbeL2Index(points, radius, WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShardedMultiProbeL2Index(points, radius, WithSeed(17), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, probes := range []int{0, 24} {
		for qi, q := range queries {
			want, fst := flat.QueryLSHProbes(q, probes)
			got, st, err := sh.QueryProbes(q, probes)
			if err != nil {
				t.Fatal(err)
			}
			if st.Collisions != fst.Collisions {
				t.Fatalf("T=%d query %d: shards collide %d times, the unsharded index %d", probes, qi, st.Collisions, fst.Collisions)
			}
			exact := sortedIDs(GroundTruth(points, q, radius))
			if got = sortedIDs(got); !isSubset(sortedIDs(want), got) || !isSubset(got, exact) {
				t.Fatalf("T=%d query %d: sharded answer (%d ids) is not between unsharded LSH (%d) and exact (%d)",
					probes, qi, len(got), len(want), len(exact))
			}
		}
	}

	runShardingOracle(t, oracleCase[Dense]{
		name:    "multiprobe",
		points:  points,
		queries: queries,
		build: func(pts []Dense, seed uint64) (core.Store[Dense], error) {
			ix, err := NewMultiProbeL2Index(pts, radius, WithSeed(seed))
			if err != nil {
				return nil, err
			}
			return ix.Index, nil
		},
		sharded: func(pts []Dense, s int, seed uint64) (*shard.Sharded[Dense], error) {
			ix, err := NewShardedMultiProbeL2Index(pts, radius, WithSeed(seed), WithShards(s))
			if err != nil {
				return nil, err
			}
			return ix.Sharded, nil
		},
		exact: func(q Dense) []int32 { return GroundTruth(points, q, radius) },
	})
}

func TestShardingNeverChangesAnAnswerHamming(t *testing.T) {
	const (
		dim    = 128
		nc     = 20
		n      = 1000
		radius = 12
	)
	r := rng.New(11)
	queries := make([]Binary, nc)
	for i := range queries {
		b := NewBinaryVector(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.5 {
				b.SetBit(j, true)
			}
		}
		queries[i] = b
	}
	points := make([]Binary, n)
	for i := range points {
		b := queries[i%nc].Clone()
		for f := 0; f < 1+r.Intn(16); f++ {
			b.FlipBit(r.Intn(dim))
		}
		points[i] = b
	}
	runShardingOracle(t, oracleCase[Binary]{
		name:    "hamming",
		points:  points,
		queries: queries,
		build: func(pts []Binary, seed uint64) (core.Store[Binary], error) {
			ix, err := NewHammingIndex(pts, radius, WithSeed(seed))
			if err != nil {
				return nil, err
			}
			return ix.Index, nil
		},
		sharded: func(pts []Binary, s int, seed uint64) (*shard.Sharded[Binary], error) {
			ix, err := NewShardedHammingIndex(pts, radius, WithSeed(seed), WithShards(s))
			if err != nil {
				return nil, err
			}
			return ix.Sharded, nil
		},
		exact: func(q Binary) []int32 { return GroundTruthHamming(points, q, radius) },
	})
}
