package hybridlsh

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/shard"
)

// ShardedQueryStats aggregates the per-shard outcomes of one fanned-out
// query: strategy mix, summed collision/candidate counts and the
// critical-path vs total shard time.
type ShardedQueryStats = shard.QueryStats

// ShardedBatchResult is one query's outcome within a sharded QueryBatch.
type ShardedBatchResult = shard.BatchResult

// ShardStats is a point-in-time topology snapshot of a sharded index
// (shard sizes, live points, tombstones).
type ShardStats = shard.Stats

// ShardedL2Index partitions an L2 index across S shards and answers
// queries by parallel fan-out. Unlike L2Index it is safe for concurrent
// mutation: Append write-locks a single shard while the others keep
// serving, and Delete tombstones ids without touching the tables. On the
// same point slice and seed it shares L2Index's id universe (point i
// keeps id i) and its drawn hash functions: every shard uses the one
// function set L2Index draws, so the shards' LSH answers together are
// L2Index's LSH answer, and each query is hashed once for all shards.
//
// Deleted points are compacted out of a shard's buckets — keeping the
// drawn hash functions, rebuilding the sketches from live ids —
// automatically once the shard's tombstone ratio crosses
// WithCompactionThreshold (default 20%), or on demand via the promoted
// Compact/CompactAll methods, so the hybrid strategy decision never
// drifts under delete-heavy traffic.
type ShardedL2Index struct{ *shard.Sharded[Dense] }

// NewShardedL2Index builds a sharded hybrid L2 index for radius r. The
// shard count comes from WithShards (default 4, clamped to len(points));
// all options, the WithSeed seed included, apply to every shard, so all
// shards share the one drawn function set and a query is hashed once.
func NewShardedL2Index(points []Dense, r float64, opts ...Option) (*ShardedL2Index, error) {
	o := applyOptions(opts)
	if len(points) == 0 {
		return nil, errEmpty("NewShardedL2Index")
	}
	if r <= 0 {
		return nil, fmt.Errorf("hybridlsh: NewShardedL2Index radius = %v, want > 0", r)
	}
	s, err := shard.New(points, o.shardCount(), o.seed, func(pts []Dense, seed uint64) (core.Store[Dense], error) {
		so := o
		so.seed = seed
		return newL2Core(pts, r, so)
	})
	if err != nil {
		return nil, err
	}
	if o.compactThresh != 0 {
		s.SetAutoCompact(o.compactThresh)
	}
	if o.cacheSize != 0 {
		if err := s.EnableCache(o.cacheSize, Dense.CacheKey); err != nil {
			return nil, err
		}
	}
	return &ShardedL2Index{s}, nil
}

// ShardedHammingIndex is the sharded counterpart of HammingIndex; see
// ShardedL2Index for the concurrency contract.
type ShardedHammingIndex struct{ *shard.Sharded[Binary] }

// NewShardedHammingIndex builds a sharded hybrid Hamming index for
// radius r; see NewShardedL2Index for how options are applied.
func NewShardedHammingIndex(points []Binary, r float64, opts ...Option) (*ShardedHammingIndex, error) {
	o := applyOptions(opts)
	if len(points) == 0 {
		return nil, errEmpty("NewShardedHammingIndex")
	}
	s, err := shard.New(points, o.shardCount(), o.seed, func(pts []Binary, seed uint64) (core.Store[Binary], error) {
		so := o
		so.seed = seed
		return newHammingCore(pts, r, so)
	})
	if err != nil {
		return nil, err
	}
	if o.compactThresh != 0 {
		s.SetAutoCompact(o.compactThresh)
	}
	if o.cacheSize != 0 {
		if err := s.EnableCache(o.cacheSize, Binary.CacheKey); err != nil {
			return nil, err
		}
	}
	return &ShardedHammingIndex{s}, nil
}
