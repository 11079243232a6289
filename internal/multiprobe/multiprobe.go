// Package multiprobe implements query-directed multi-probe LSH (Lv,
// Josephson, Wang, Charikar, Li — VLDB 2007) for the p-stable families,
// with the paper's hybrid search strategy on top — the first of the two
// future-work combinations Section 5 of the Hybrid-LSH paper names
// ("our hybrid search fits well with the multi-probe LSH schemes […] which
// typically require a large number of probes").
//
// Multi-probe LSH examines, besides the query's home bucket, the T
// neighboring buckets most likely to hold near points: perturbing slot
// index i by δ ∈ {−1, +1} costs the squared distance from the query's
// projection to that slot boundary, and perturbation sets are enumerated
// in increasing total cost with the standard shift/expand heap. Fewer
// tables then achieve the same recall, at the price of more probed buckets
// per table — which makes candSize estimation (and hence the hybrid
// decision) even more valuable, because #collisions grows with T while the
// distinct candidate count saturates.
//
// Index wraps a core.Index and reuses its decision and search machinery
// over the probed bucket set (core.Index.QueryKeys), so the hybrid
// semantics — short-circuits, cost model, dedup search, linear fallback —
// are identical to the plain index's by construction. It satisfies
// core.Store, which is what lets shard.Sharded fan out, tombstone,
// auto-compact and snapshot multi-probe shards with the same machinery
// as plain ones.
package multiprobe

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/vector"
)

// DefaultProbes is T when Config.Probes is zero; DefaultTables is L when
// Config.L is zero (multi-probe's point is that it needs far fewer than
// the classic 50).
const (
	DefaultProbes = 10
	DefaultTables = 10
)

// Config configures a multi-probe hybrid index.
type Config struct {
	// Family is the p-stable family (L1 or L2) to use.
	Family *lsh.PStable
	// Distance is the matching metric.
	Distance distance.Func[vector.Dense]
	// Radius is the reporting radius.
	Radius float64
	// Delta is the per-point failure probability δ (default 0.1). It is
	// recorded on the index; k is never solved from it here because the
	// multi-probe regime fixes K explicitly.
	Delta float64
	// K is the concatenation length (the multi-probe regime uses larger k
	// and fewer tables than classic LSH).
	K int
	// L is the number of tables (default DefaultTables).
	L int
	// Probes is T, the number of extra buckets probed per table beyond
	// the home bucket (default DefaultProbes).
	Probes int
	// HLLRegisters is m (default 128).
	HLLRegisters int
	// HLLThreshold is the minimum bucket size that gets a pre-built
	// sketch (default HLLRegisters).
	HLLThreshold int
	// Cost is the cost model (default core.DefaultCostModel).
	Cost core.CostModel
	// Seed fixes construction randomness.
	Seed uint64
	// Store picks the point layout backing candidate verification (see
	// core.Config.Store); nil defaults to the generic layout over
	// Distance. Wire pointstore.DenseL2Builder only when Distance is L2 —
	// the flat layout's kernels are metric-specific.
	Store pointstore.Builder[vector.Dense]
}

// Index is a multi-probe LSH structure with per-bucket HLL sketches and
// hybrid query answering. It wraps a plain core.Index (same tables, same
// sketches, same cost model) and differs only in the bucket set a query
// collects: the home bucket plus the T most promising neighbors per
// table. It is safe for any number of concurrent queries; Append is
// single-writer, exactly like core.Index (wrap in shard.Sharded for
// concurrent mutation).
type Index struct {
	ix     *core.Index[vector.Dense]
	probes int
	states sync.Pool // *probeState
}

// probeState is the per-query lookup scratch: the probed-bucket slice
// and the probe-key buffer. Pooling it keeps the lookup allocation-light
// in steady state; the decision/search scratch (visited array, HLL merge
// target) is the wrapped core index's own pool.
type probeState struct {
	buckets []*lsh.Bucket
	keys    lsh.Keys
}

// New builds the index. It returns an error on invalid configuration.
func New(points []vector.Dense, cfg Config) (*Index, error) {
	if cfg.Family == nil {
		return nil, fmt.Errorf("multiprobe: Config.Family is nil")
	}
	if cfg.Distance == nil {
		return nil, fmt.Errorf("multiprobe: Config.Distance is nil")
	}
	if cfg.Radius <= 0 {
		return nil, fmt.Errorf("multiprobe: Config.Radius = %v, want > 0", cfg.Radius)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("multiprobe: Config.K = %d, want >= 1", cfg.K)
	}
	if cfg.L == 0 {
		cfg.L = DefaultTables
	}
	if cfg.Probes == 0 {
		cfg.Probes = DefaultProbes
	}
	if cfg.Probes < 0 {
		return nil, fmt.Errorf("multiprobe: Config.Probes = %d, want >= 0", cfg.Probes)
	}
	ix, err := core.NewIndex(points, core.Config[vector.Dense]{
		Family:       cfg.Family,
		Distance:     cfg.Distance,
		Radius:       cfg.Radius,
		Delta:        cfg.Delta,
		K:            cfg.K,
		L:            cfg.L,
		HLLRegisters: cfg.HLLRegisters,
		HLLThreshold: cfg.HLLThreshold,
		Cost:         cfg.Cost,
		Seed:         cfg.Seed,
		Store:        cfg.Store,
	})
	if err != nil {
		return nil, fmt.Errorf("multiprobe: %w", err)
	}
	return FromCore(ix, cfg.Probes)
}

// FromCore wraps an existing core index (typically a restored snapshot)
// as a multi-probe index with T = probes. Every table's hasher must be a
// p-stable hasher — the probing scheme perturbs p-stable slot indices.
// The core index is used as-is: a wrapped snapshot answers id-for-id
// identically to the index that was saved.
func FromCore(ix *core.Index[vector.Dense], probes int) (*Index, error) {
	if ix == nil {
		return nil, fmt.Errorf("multiprobe: FromCore with nil index")
	}
	if probes < 1 {
		return nil, fmt.Errorf("multiprobe: FromCore probes = %d, want >= 1", probes)
	}
	for j := 0; j < ix.L(); j++ {
		if _, ok := ix.Tables().Table(j).Hasher.(*lsh.PStableHasher); !ok {
			return nil, fmt.Errorf("multiprobe: table %d hasher is %T, want *lsh.PStableHasher", j, ix.Tables().Table(j).Hasher)
		}
	}
	mp := &Index{ix: ix, probes: probes}
	mp.states.New = func() any { return &probeState{} }
	return mp, nil
}

// Core exposes the wrapped plain index (read-only by convention). It
// exists for serialization and white-box tests.
func (ix *Index) Core() *core.Index[vector.Dense] { return ix.ix }

// Tables exposes the wrapped index's LSH structure (read-only).
func (ix *Index) Tables() *lsh.Tables[vector.Dense] { return ix.ix.Tables() }

// N returns the number of indexed points.
func (ix *Index) N() int { return ix.ix.N() }

// Points exposes the stored point slice (read-only); it exists for
// serialization and the shard layer's compaction absorption.
func (ix *Index) Points() []vector.Dense { return ix.ix.Points() }

// StoreStats returns the wrapped index's point-store layout and
// verification counters (core.StoreStatser).
func (ix *Index) StoreStats() pointstore.Stats { return ix.ix.StoreStats() }

// Radius returns the reporting radius the index was built for.
func (ix *Index) Radius() float64 { return ix.ix.Radius() }

// K returns the concatenation length in use.
func (ix *Index) K() int { return ix.ix.K() }

// L returns the number of hash tables.
func (ix *Index) L() int { return ix.ix.L() }

// Probes returns T, the configured extra probes per table.
func (ix *Index) Probes() int { return ix.probes }

// Cost returns the cost model in use.
func (ix *Index) Cost() core.CostModel { return ix.ix.Cost() }

// SetCost atomically swaps the cost model of the wrapped core index (see
// core.Index.SetCost): safe concurrently with queries, rejected unless
// the model is Usable.
func (ix *Index) SetCost(c core.CostModel) error { return ix.ix.SetCost(c) }

// probeKeyer is the multi-probe Keyer: per table, the home key followed
// by the T most promising probe keys (ProbeKeysInto), where T is the
// per-call override or, for o < 0, the configured default.
type probeKeyer struct {
	hashers []*lsh.PStableHasher
	probes  int
}

func (k probeKeyer) Keys(q vector.Dense, o int, ks *lsh.Keys) {
	t := o
	if t < 0 {
		t = k.probes
	}
	ks.Reset()
	for _, h := range k.hashers {
		ks.Keys = ProbeKeysInto(h, q, t, ks.Keys)
		ks.EndTable()
	}
}

func (k probeKeyer) Shares(other core.Keyer[vector.Dense]) bool {
	o, ok := other.(probeKeyer)
	return ok && o.probes == k.probes && slices.Equal(k.hashers, o.hashers)
}

// Keyer implements core.Store: the probe sequences of the drawn
// p-stable hashers at the configured T (FromCore checked the type).
func (ix *Index) Keyer() core.Keyer[vector.Dense] {
	tables := ix.ix.Tables()
	k := probeKeyer{hashers: make([]*lsh.PStableHasher, tables.L()), probes: ix.probes}
	for j := range k.hashers {
		k.hashers[j] = tables.Table(j).Hasher.(*lsh.PStableHasher)
	}
	return k
}

// QueryKeys implements core.Store: the hybrid answer over the home and
// probe buckets ks names (the probe count is already in the keys).
func (ix *Index) QueryKeys(q vector.Dense, ks *lsh.Keys, o int) ([]int32, core.QueryStats) {
	return ix.ix.QueryKeys(q, ks, o)
}

// lookupInto collects the home and t probe buckets of q across all
// tables (t < 0 means the configured default) into st's pooled scratch.
// The result aliases st.buckets and must not be retained past the
// state's release.
func (ix *Index) lookupInto(q vector.Dense, t int, st *probeState) []*lsh.Bucket {
	ix.Keyer().Keys(q, t, &st.keys)
	st.buckets = ix.ix.Tables().LookupKeys(&st.keys, st.buckets)
	return st.buckets
}

// Lookup returns the home and probe buckets of q across all tables.
func (ix *Index) Lookup(q vector.Dense) []*lsh.Bucket {
	return ix.lookupInto(q, -1, &probeState{})
}

// Query answers one rNNR query with the hybrid strategy over the
// multi-probe bucket set: Algorithm 2 with #collisions and candSize taken
// over the (T+1)·L probed buckets.
func (ix *Index) Query(q vector.Dense) ([]int32, core.QueryStats) {
	return ix.QueryProbes(q, -1)
}

// QueryProbes is Query with a per-call probe override: t extra buckets
// are probed per table instead of the configured T (t = 0 probes only
// the home buckets; t < 0 means the configured default). It implements
// core.ProbeQuerier.
func (ix *Index) QueryProbes(q vector.Dense, t int) ([]int32, core.QueryStats) {
	st := ix.states.Get().(*probeState)
	defer ix.states.Put(st)

	t0 := time.Now()
	ix.Keyer().Keys(q, t, &st.keys)
	hash := time.Since(t0)
	out, stats := ix.ix.QueryKeys(q, &st.keys, t)
	stats.EstimateTime += hash
	return out, stats
}

// QueryLSH forces multi-probe LSH search without the hybrid decision.
func (ix *Index) QueryLSH(q vector.Dense) ([]int32, core.QueryStats) {
	return ix.QueryLSHProbes(q, -1)
}

// QueryLSHProbes is QueryLSH with a per-call probe override (see
// QueryProbes for the override semantics).
func (ix *Index) QueryLSHProbes(q vector.Dense, t int) ([]int32, core.QueryStats) {
	st := ix.states.Get().(*probeState)
	defer ix.states.Put(st)

	t0 := time.Now()
	buckets := ix.lookupInto(q, t, st)
	lookup := time.Since(t0)
	out, stats := ix.ix.QueryBucketsLSH(q, buckets)
	stats.EstimateTime += lookup
	return out, stats
}

// QueryLinear forces the exact linear scan.
func (ix *Index) QueryLinear(q vector.Dense) ([]int32, core.QueryStats) {
	return ix.ix.QueryLinear(q)
}

// DecideStrategy runs only the estimation steps over the multi-probe
// bucket set and returns the decision without searching.
func (ix *Index) DecideStrategy(q vector.Dense) (core.Strategy, core.QueryStats) {
	return ix.DecideStrategyProbes(q, -1)
}

// DecideStrategyProbes is DecideStrategy with a per-call probe override
// (see QueryProbes for the override semantics).
func (ix *Index) DecideStrategyProbes(q vector.Dense, t int) (core.Strategy, core.QueryStats) {
	st := ix.states.Get().(*probeState)
	defer ix.states.Put(st)

	t0 := time.Now()
	buckets := ix.lookupInto(q, t, st)
	lookup := time.Since(t0)
	strategy, stats := ix.ix.DecideBuckets(buckets)
	stats.EstimateTime += lookup
	return strategy, stats
}

// QueryBatch answers many queries concurrently, using up to workers
// goroutines (0 means GOMAXPROCS). Results are positionally aligned with
// queries.
func (ix *Index) QueryBatch(queries []vector.Dense, workers int) []core.BatchResult {
	if len(queries) == 0 {
		return nil
	}
	results := make([]core.BatchResult, len(queries))
	core.ForEach(len(queries), workers, func(i int) {
		ids, stats := ix.Query(queries[i])
		results[i] = core.BatchResult{IDs: ids, Stats: stats}
	})
	return results
}

// Append adds points to the index, assigning ids from the current N
// upward; probe sequences are unaffected (they depend only on the drawn
// hash functions). Like core.Index.Append it is single-writer: it must
// not run concurrently with queries or another Append.
func (ix *Index) Append(points []vector.Dense) error {
	return ix.ix.Append(points)
}

// Compact returns a new multi-probe index without the points marked
// dead, with the same probe configuration: the wrapped core index is
// compacted (hash functions kept, survivors rank-renumbered, sketches
// rebuilt from live ids — see core.Index.Compact), so probe sequences
// are preserved exactly and answers are the receiver's answers minus the
// dead points. The receiver stays fully usable.
func (ix *Index) Compact(dead []bool) (*Index, error) {
	nix, err := ix.ix.Compact(dead)
	if err != nil {
		return nil, err
	}
	return FromCore(nix, ix.probes)
}

// CompactStore implements core.Store by delegating to Compact.
func (ix *Index) CompactStore(dead []bool) (core.Store[vector.Dense], error) {
	return ix.Compact(dead)
}

// Compile-time checks: the shard layer's contracts.
var (
	_ core.Store[vector.Dense]        = (*Index)(nil)
	_ core.ProbeQuerier[vector.Dense] = (*Index)(nil)
)

// --- perturbation-sequence generation (Lv et al., Section 4.3) ---

// perturbation is one (function index, δ) pair with its cost: the squared
// distance from the query's projection to the slot boundary crossed.
type perturbation struct {
	fn    int
	delta int64
	cost  float64
}

// probeSet is a set of sorted-perturbation indices with its total cost;
// the heap orders sets by cost.
type probeSet struct {
	idx  []int // indices into the sorted perturbation array, ascending
	cost float64
}

type setHeap []probeSet

func (h setHeap) Len() int           { return len(h) }
func (h setHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h setHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *setHeap) Push(x any)        { *h = append(*h, x.(probeSet)) }
func (h *setHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// ProbeKeys returns the bucket keys probed for q in one table: the home
// bucket first, then up to t perturbed buckets in increasing estimated
// cost, generated with the shift/expand enumeration over the 2k single
// perturbations.
func ProbeKeys(h *lsh.PStableHasher, q vector.Dense, t int) []uint64 {
	return ProbeKeysInto(h, q, t, nil)
}

// ProbeKeysInto is ProbeKeys appending into dst (which may be nil); it
// exists so query loops can reuse a pooled key buffer.
func ProbeKeysInto(h *lsh.PStableHasher, q vector.Dense, t int, dst []uint64) []uint64 {
	parts, resid := h.PartsAndResiduals(q)
	keys := append(dst, lsh.KeyFromParts(parts))
	if t == 0 {
		return keys
	}
	home := len(keys) - 1

	w := h.W()
	k := len(parts)
	perts := make([]perturbation, 0, 2*k)
	for i := 0; i < k; i++ {
		// δ = −1 crosses the lower boundary (distance resid·w), δ = +1
		// the upper one (distance (1−resid)·w).
		lo := resid[i] * w
		hi := (1 - resid[i]) * w
		perts = append(perts,
			perturbation{fn: i, delta: -1, cost: lo * lo},
			perturbation{fn: i, delta: +1, cost: hi * hi},
		)
	}
	sort.Slice(perts, func(a, b int) bool { return perts[a].cost < perts[b].cost })

	var hp setHeap
	heap.Push(&hp, probeSet{idx: []int{0}, cost: perts[0].cost})
	scratch := make([]int64, k)
	for len(keys) < home+t+1 && hp.Len() > 0 {
		s := heap.Pop(&hp).(probeSet)
		top := s.idx[len(s.idx)-1]
		// Shift: replace the maximum element with its successor.
		if top+1 < len(perts) {
			shift := append(append([]int(nil), s.idx[:len(s.idx)-1]...), top+1)
			heap.Push(&hp, probeSet{idx: shift, cost: s.cost - perts[top].cost + perts[top+1].cost})
			// Expand: add the successor on top.
			expand := append(append([]int(nil), s.idx...), top+1)
			heap.Push(&hp, probeSet{idx: expand, cost: s.cost + perts[top+1].cost})
		}
		if !validSet(s.idx, perts) {
			continue
		}
		copy(scratch, parts)
		for _, pi := range s.idx {
			scratch[perts[pi].fn] += perts[pi].delta
		}
		keys = append(keys, lsh.KeyFromParts(scratch))
	}
	return keys
}

// validSet rejects sets that perturb the same function twice (the two
// directions of one h_i are mutually exclusive).
func validSet(idx []int, perts []perturbation) bool {
	var seen [64]bool // k ≤ 64 in every regime this package supports
	for _, pi := range idx {
		fn := perts[pi].fn
		if fn < 64 {
			if seen[fn] {
				return false
			}
			seen[fn] = true
		} else {
			for _, pj := range idx {
				if pj != pi && perts[pj].fn == perts[pi].fn {
					return false
				}
			}
		}
	}
	return true
}
