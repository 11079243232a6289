package core

import (
	"time"

	"repro/internal/lsh"
)

// The bucket-set entry points: the forced LSH search and the bare
// decision over an externally assembled probe bucket set, instead of
// the one-bucket-per-table set Query collects itself (the hybrid answer
// over a probe set is QueryKeys). They are how the probing extensions
// (multi-probe LSH) reuse Algorithm 2 verbatim — same short-circuits,
// same pooled scratch, same timing decomposition — with #collisions and
// candSize taken over the (T+1)·L probed buckets.
//
// The buckets must belong to this index's tables (ids are interpreted
// against ix.Points()); callers collect them via lsh.Tables.LookupKeys.

// QueryBucketsLSH forces the LSH-based search over the given bucket set
// (no estimation, no fallback) — the multi-probe analogue of QueryLSH.
func (ix *Index[P]) QueryBucketsLSH(q P, buckets []*lsh.Bucket) ([]int32, QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)

	var stats QueryStats
	stats.Strategy = StrategyLSH
	stats.Collisions = lsh.Collisions(buckets)
	t0 := time.Now()
	out := ix.searchBuckets(q, ix.radius, buckets, st, &stats)
	stats.SearchTime = time.Since(t0)
	return out, stats
}

// DecideBuckets runs only Algorithm-2 steps 1–3 over the given bucket
// set and returns the decision without searching.
func (ix *Index[P]) DecideBuckets(buckets []*lsh.Bucket) (Strategy, QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)

	var stats QueryStats
	t0 := time.Now()
	stats.Strategy = ix.decide(buckets, st, &stats)
	stats.EstimateTime = time.Since(t0)
	return stats.Strategy, stats
}
