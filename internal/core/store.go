package core

import (
	"slices"

	"repro/internal/lsh"
	"repro/internal/pointstore"
)

// Store is the index contract the shard package builds on: one shard is
// any hybrid index that can report its size, expose its point slice for
// snapshots and compaction absorption, answer hybrid queries, grow by
// appending, and rewrite itself without a set of dead points. The plain
// *Index satisfies it, and so do multiprobe.Index and covering.Index,
// which both run on a wrapped *Index — multi-probe over a probe bucket
// set, covering over φ-mask tables with a per-call radius
// (QueryWithin, QueryKeysWithin). That is what lets the sharding,
// compaction and persistence machinery serve multi-probe and covering
// shards unchanged.
//
// Every store answers in two steps that can run apart: its Keyer turns
// a query into bucket keys, and QueryKeys looks those keys up and runs
// Algorithm 2. Stores whose Keyers share one drawn function set can
// therefore answer from keys computed once — which is how the shard
// layer hashes each query once instead of once per shard.
//
// Implementations follow Index's concurrency contract: any number of
// concurrent Query calls, but Append is single-writer and CompactStore
// may run concurrently with queries only (the shard layer provides the
// locking).
type Store[P any] interface {
	// N returns the number of indexed points.
	N() int
	// Points exposes the stored point slice (read-only).
	Points() []P
	// Query answers one rNNR query with the hybrid strategy.
	Query(q P) ([]int32, QueryStats)
	// Keyer returns the store's key computation (see Keyer).
	Keyer() Keyer[P]
	// QueryKeys answers q with the hybrid strategy over the buckets ks
	// names: Query with the hashing already done. ks must come from
	// this store's Keyer or from one that Shares it. o is the per-call
	// override — RadiusQuerier's r on covering stores, ignored by the
	// others (probe counts act through the Keyer); o < 0 means the
	// default. EstimateTime covers the bucket lookup and the decision.
	QueryKeys(q P, ks *lsh.Keys, o int) ([]int32, QueryStats)
	// Cost returns the calibrated cost model driving the store's
	// LINEAR-vs-LSH decisions; observability layers surface its α/β
	// terms next to each query's decision trace.
	Cost() CostModel
	// SetCost atomically swaps the cost model behind Cost(). Unlike
	// Append it is exempt from the single-writer contract: it may run
	// concurrently with queries and with other SetCost calls, which is
	// what lets online recalibration refit a serving index without
	// pausing traffic. Implementations must reject models that are not
	// Usable() (non-positive, NaN or Inf constants).
	SetCost(c CostModel) error
	// Append adds points under ids N..N+len(points)-1.
	Append(points []P) error
	// CompactStore returns a new store of the same concrete type without
	// the points marked dead (see Index.Compact for the exact contract:
	// hash functions kept, survivors rank-renumbered, sketches rebuilt).
	CompactStore(dead []bool) (Store[P], error)
}

// Keyer computes a store's bucket keys for a query. It holds only the
// store's drawn hash functions and key parameters, never its buckets or
// points; Append and CompactStore keep both, so one Keyer serves the
// store and every compacted successor, and is safe for concurrent use
// without the store's lock.
type Keyer[P any] interface {
	// Keys resets ks and fills it with q's bucket keys in every table.
	// o is the per-call override — ProbeQuerier's t on multi-probe
	// stores, ignored by the others; o < 0 means the default.
	Keys(q P, o int, ks *lsh.Keys)
	// Shares reports whether other computes the same keys for every
	// query and override because it holds the very same hash function
	// objects (pointer identity, not equal values) and key parameters.
	Shares(other Keyer[P]) bool
}

// hashKeyer is the classic Keyer: one key per table, from each table's
// hasher.
type hashKeyer[P any] []lsh.Hasher[P]

func (k hashKeyer[P]) Keys(q P, _ int, ks *lsh.Keys) {
	ks.Reset()
	for _, h := range k {
		ks.Keys = append(ks.Keys, h.Key(q))
		ks.EndTable()
	}
}

func (k hashKeyer[P]) Shares(other Keyer[P]) bool {
	o, ok := other.(hashKeyer[P])
	return ok && slices.Equal(k, o)
}

// Keyer implements Store: one key per table from the drawn hashers.
func (ix *Index[P]) Keyer() Keyer[P] { return hashKeyer[P](ix.tables.Hashers()) }

// ProbeQuerier is implemented by stores that can answer a query with a
// per-call probe-count override (multi-probe LSH): t is the number of
// extra buckets probed per table beyond the home bucket, t < 0 means
// the store's configured default.
type ProbeQuerier[P any] interface {
	QueryProbes(q P, t int) ([]int32, QueryStats)
}

// RadiusQuerier is implemented by stores that can answer a query with a
// per-call reporting-radius override (covering LSH): r is the radius for
// this call, r < 0 means the store's built radius. Implementations may
// only narrow — overrides above the built radius are clamped to it,
// because the structure's guarantees stop there; serving layers should
// reject such requests instead of relying on the clamp.
type RadiusQuerier[P any] interface {
	QueryRadius(q P, r int) ([]int32, QueryStats)
}

// StoreStatser is implemented by stores that can report their point
// store's layout and verification counters; the serving layer
// aggregates these across shards for /stats and /metrics.
type StoreStatser interface {
	StoreStats() pointstore.Stats
}

// CompactStore implements Store by delegating to Compact.
func (ix *Index[P]) CompactStore(dead []bool) (Store[P], error) {
	nix, err := ix.Compact(dead)
	if err != nil {
		return nil, err
	}
	return nix, nil
}
