// Package covering implements covering LSH for Hamming space (Pagh, SODA
// 2016): an LSH scheme with **no false negatives** — every point within
// radius r of the query is guaranteed (probability 1) to share at least
// one bucket with it — combined with the Hybrid-LSH paper's per-bucket
// HyperLogLog sketches and cost-based strategy choice, the second
// future-work combination Section 5 names.
//
// Construction: let b = r+1 and draw a random map φ: [d] → {0,1}^b. For
// every non-zero vector v ∈ {0,1}^b build one hash table whose key keeps
// exactly the coordinates i with ⟨φ(i), v⟩ = 1 (mod 2). If x and y differ
// on a set D of at most r coordinates, the linear system ⟨φ(i), v⟩ = 0 for
// i ∈ D has at most r equations over b = r+1 unknowns, so a non-zero
// solution v* exists — and in table v* no differing coordinate is kept,
// hence x and y collide. The price is 2^(r+1) − 1 tables, practical for
// small radii; with that many probed buckets per query, cost estimation is
// exactly what keeps hard queries from drowning in duplicate removal.
//
// Index satisfies core.Store, which is what lets shard.Sharded fan out,
// tombstone, auto-compact and snapshot covering shards with the same
// machinery as plain and multi-probe ones: Append hashes new points with
// the already-drawn φ (the guarantee is per-pair and oblivious to the data,
// so it survives growth), Compact rewrites the mask tables without the dead
// points while keeping φ, and Restore reassembles a persisted index without
// re-hashing. It also satisfies core.RadiusQuerier: a per-call radius
// override r' ≤ r narrows the report while keeping the guarantee, because
// the points within r' are a subset of the points within r that the tables
// already cover.
package covering

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/rng"
	"repro/internal/vector"
)

// MaxRadius bounds the supported radius: r = 12 already means 8191 tables.
const MaxRadius = 12

// DefaultRadius is the covering radius used when a caller leaves it zero
// (7 tables — the cheap end of the 2^(r+1)−1 trade).
const DefaultRadius = 2

// Config configures a covering-LSH hybrid index.
type Config struct {
	// HLLRegisters is m (default 128).
	HLLRegisters int
	// HLLThreshold is the pre-built-sketch bucket-size threshold
	// (default: HLLRegisters, the paper's rule).
	HLLThreshold int
	// Cost is the cost model (default core.DefaultCostModel).
	Cost core.CostModel
	// Seed fixes the random map φ.
	Seed uint64
}

// withDefaults fills in the defaulted fields and validates the rest.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.HLLRegisters == 0 {
		cfg.HLLRegisters = 128
	}
	if m := cfg.HLLRegisters; m < hll.MinM || m > hll.MaxM || m&(m-1) != 0 {
		return cfg, fmt.Errorf("covering: HLLRegisters = %d, want a power of two in [%d, %d]", m, hll.MinM, hll.MaxM)
	}
	if cfg.HLLThreshold < 0 {
		return cfg, fmt.Errorf("covering: HLLThreshold = %d, want >= 0", cfg.HLLThreshold)
	}
	if cfg.HLLThreshold == 0 {
		cfg.HLLThreshold = cfg.HLLRegisters
	}
	if cfg.Cost == (core.CostModel{}) {
		cfg.Cost = core.DefaultCostModel
	}
	if !cfg.Cost.Valid() {
		return cfg, fmt.Errorf("covering: cost model %+v, want positive constants", cfg.Cost)
	}
	return cfg, nil
}

// Index is the covering-LSH structure: 2^(r+1)−1 mask tables with
// per-bucket sketches. It is safe for any number of concurrent queries,
// but — like core.Index — single-writer: Append must not run concurrently
// with queries or another Append (wrap in shard.Sharded for concurrent
// mutation).
type Index struct {
	store  *pointstore.FlatBinary
	radius int
	dim    int
	m      int
	thresh int
	// cost is swapped atomically by SetCost while queries run; decide
	// loads it once per query so each decision sees one coherent (α, β)
	// pair even mid-swap.
	cost   atomic.Pointer[core.CostModel]
	seed   uint64
	phi    []uint32        // φ(i) ∈ {0,1}^(r+1) per dimension
	masks  []vector.Binary // one keep-mask per table, derived from φ
	tables []map[uint64]*lsh.Bucket
	states sync.Pool
}

// NumTables returns the table count 2^(r+1) − 1 a covering index of
// radius r maintains.
func NumTables(r int) int { return 1<<(r+1) - 1 }

// validRadius checks r against the dimension and the package cap.
func validRadius(r, dim int) error {
	if r < 1 || r > MaxRadius {
		return fmt.Errorf("covering: radius = %d, want in [1, %d]", r, MaxRadius)
	}
	if r >= dim {
		return fmt.Errorf("covering: radius %d >= dimension %d", r, dim)
	}
	return nil
}

// masksFromPhi derives the per-table keep-masks: table v (1-based) keeps
// coordinate i iff parity(φ(i) & v) = 1.
func masksFromPhi(phi []uint32, r int) []vector.Binary {
	dim := len(phi)
	masks := make([]vector.Binary, NumTables(r))
	for t := range masks {
		v := uint32(t + 1)
		mask := vector.NewBinary(dim)
		for i := 0; i < dim; i++ {
			if parity(phi[i]&v) == 1 {
				mask.SetBit(i, true)
			}
		}
		masks[t] = mask
	}
	return masks
}

// New builds a covering index over binary points for integer radius r.
func New(points []vector.Binary, r int, cfg Config) (*Index, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("covering: empty point set")
	}
	dim := points[0].Dim
	if err := validRadius(r, dim); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	// φ(i) ∈ {0,1}^b per dimension, drawn uniformly.
	b := uint(r + 1)
	rnd := rng.New(cfg.Seed)
	phi := make([]uint32, dim)
	for i := range phi {
		phi[i] = uint32(rnd.Uint64() & ((1 << b) - 1))
	}

	ix := &Index{
		store:  pointstore.EmptyFlatBinary(dim),
		radius: r,
		dim:    dim,
		m:      cfg.HLLRegisters,
		thresh: cfg.HLLThreshold,
		seed:   cfg.Seed,
		phi:    phi,
		masks:  masksFromPhi(phi, r),
		tables: make([]map[uint64]*lsh.Bucket, NumTables(r)),
	}
	ix.cost.Store(&cfg.Cost)
	for t := range ix.tables {
		ix.tables[t] = make(map[uint64]*lsh.Bucket)
	}
	if err := ix.Append(points); err != nil {
		return nil, err
	}
	return ix, nil
}

// Restore reassembles an Index from decoded snapshot state without
// re-hashing: the bucket tables are used as-is, so the restored index
// answers queries id-for-id identically to the saved one. Unlike New it
// accepts an empty point set (a fully compacted shard); r and φ must be
// consistent with each other and the tables.
func Restore(points []vector.Binary, r int, phi []uint32, seed uint64, tables []map[uint64]*lsh.Bucket, cfg Config) (*Index, error) {
	dim := len(phi)
	if err := validRadius(r, dim); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(tables) != NumTables(r) {
		return nil, fmt.Errorf("covering: Restore with %d tables for radius %d, want %d", len(tables), r, NumTables(r))
	}
	b := uint(r + 1)
	for i, v := range phi {
		if v >= 1<<b {
			return nil, fmt.Errorf("covering: Restore φ(%d) = %#x outside {0,1}^%d", i, v, b)
		}
	}
	for i, p := range points {
		if p.Dim != dim {
			return nil, fmt.Errorf("covering: Restore point %d has dim %d, φ has %d", i, p.Dim, dim)
		}
	}
	for t, buckets := range tables {
		if buckets == nil {
			return nil, fmt.Errorf("covering: Restore table %d is nil", t)
		}
	}
	store := pointstore.EmptyFlatBinary(dim)
	if err := store.Append(points); err != nil {
		return nil, err
	}
	ix := &Index{
		store:  store,
		radius: r,
		dim:    dim,
		m:      cfg.HLLRegisters,
		thresh: cfg.HLLThreshold,
		seed:   seed,
		phi:    phi,
		masks:  masksFromPhi(phi, r),
		tables: tables,
	}
	ix.cost.Store(&cfg.Cost)
	ix.initStatePool()
	return ix, nil
}

// queryState is the per-query scratch: the generation-stamped visited
// array for duplicate removal, the HLL merge target and the
// bucket-lookup slice. Pooling it keeps Query allocation-free in steady
// state.
type queryState struct {
	visited []uint32
	gen     uint32
	sketch  *hll.Sketch
	buckets []*lsh.Bucket
	cand    []int32
}

// initStatePool wires the scratch pool once n and m are known.
func (ix *Index) initStatePool() {
	n := ix.store.Len()
	m := ix.m
	ix.states.New = func() any {
		return &queryState{visited: make([]uint32, n), sketch: hll.New(m)}
	}
}

// getState draws a pooled query state, growing its visited array if the
// index has been appended to since the state was created.
func (ix *Index) getState() *queryState {
	st := ix.states.Get().(*queryState)
	if n := ix.store.Len(); len(st.visited) < n {
		st.visited = make([]uint32, n)
		st.gen = 0
	}
	return st
}

// parity returns the XOR of the bits of x.
func parity(x uint32) uint32 {
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x & 1
}

// maskedKey hashes the masked coordinates of p.
func maskedKey(p, mask vector.Binary) uint64 {
	h := uint64(len(p.Words)) * 0x9e3779b97f4a7c15
	for i, w := range p.Words {
		h = hashutil.Combine(h, w&mask.Words[i])
	}
	return h
}

// N returns the number of indexed points.
func (ix *Index) N() int { return ix.store.Len() }

// Points exposes the stored point slice (read-only); it exists for
// serialization and the shard layer's compaction absorption. The
// returned headers alias the store's flat word backing, id-aligned.
func (ix *Index) Points() []vector.Binary { return ix.store.Slice() }

// StoreStats returns the point store's layout and verification counters
// (core.StoreStatser).
func (ix *Index) StoreStats() pointstore.Stats { return ix.store.Stats() }

// Dim returns the bit width the index was built for.
func (ix *Index) Dim() int { return ix.dim }

// Tables returns the table count 2^(r+1) − 1.
func (ix *Index) Tables() int { return len(ix.tables) }

// TableBuckets exposes table t's bucket map (read-only); it exists for
// serialization and white-box tests.
func (ix *Index) TableBuckets(t int) map[uint64]*lsh.Bucket { return ix.tables[t] }

// Radius returns the covering radius.
func (ix *Index) Radius() int { return ix.radius }

// Phi exposes the drawn random map φ (read-only); it exists for
// serialization — masks and tables are fully determined by it.
func (ix *Index) Phi() []uint32 { return ix.phi }

// Seed returns the construction seed φ was drawn from.
func (ix *Index) Seed() uint64 { return ix.seed }

// HLLRegisters returns m, the per-sketch register count.
func (ix *Index) HLLRegisters() int { return ix.m }

// HLLThreshold returns the pre-built-sketch bucket-size threshold.
func (ix *Index) HLLThreshold() int { return ix.thresh }

// Cost returns the cost model in use.
func (ix *Index) Cost() core.CostModel { return *ix.cost.Load() }

// SetCost atomically swaps the cost model driving decide. It may run
// concurrently with queries and other SetCost calls (see core.Store);
// models that are not Usable are rejected.
func (ix *Index) SetCost(c core.CostModel) error {
	if !c.Usable() {
		return fmt.Errorf("covering: SetCost(%+v), want positive finite constants", c)
	}
	ix.cost.Store(&c)
	return nil
}

// Append adds points to the index, assigning ids from the current N
// upward. New points are hashed with the already-drawn φ, so the
// no-false-negatives guarantee — which is per-pair and oblivious to the
// data — covers them immediately, and the per-bucket sketches are
// maintained incrementally (a bucket crossing the size threshold gets its
// sketch built from its full id list, which matches what a fresh build
// would have produced — HLL insertion is order-independent).
//
// Append is the single-writer side of the contract: it must not run
// concurrently with queries or another Append. Wrap the index in
// shard.Sharded when mutation overlaps traffic.
func (ix *Index) Append(points []vector.Binary) error {
	if len(points) == 0 {
		return nil
	}
	for i, p := range points {
		if p.Dim != ix.dim {
			return fmt.Errorf("covering: Append point %d has dim %d, index dim is %d", i, p.Dim, ix.dim)
		}
	}
	base := ix.store.Len()
	if int64(base)+int64(len(points)) > int64(1)<<31-1 {
		return fmt.Errorf("covering: Append would overflow the int32 id space (%d + %d)", base, len(points))
	}
	for t, buckets := range ix.tables {
		mask := ix.masks[t]
		for i, p := range points {
			key := maskedKey(p, mask)
			bk := buckets[key]
			if bk == nil {
				bk = &lsh.Bucket{}
				buckets[key] = bk
			}
			bk.IDs = append(bk.IDs, int32(base+i))
			switch {
			case bk.Sketch != nil:
				bk.Sketch.AddID(uint64(base + i))
			case len(bk.IDs) >= ix.thresh:
				s := hll.New(ix.m)
				for _, id := range bk.IDs {
					s.AddID(uint64(id))
				}
				bk.Sketch = s
			}
		}
	}
	if err := ix.store.Append(points); err != nil {
		return err
	}
	// Re-wire the pool for the grown point count (Append is the single
	// writer, so no query holds a state concurrently): without this,
	// every pool miss would allocate a stale-sized visited slice that
	// getState immediately discards. Already-pooled smaller states are
	// still grown lazily by getState.
	ix.initStatePool()
	return nil
}

// Compact returns a new covering index without the points marked dead
// (len(dead) must equal N). The drawn map φ — and hence every mask — is
// kept, so no surviving point is re-hashed: every bucket drops its dead
// ids, survivors are renumbered by their rank among survivors, and the
// per-bucket sketches are rebuilt from the live ids. Answers are
// id-for-id the receiver's answers minus the dead points (modulo the
// renumbering), and the covering guarantee carries over unchanged. The
// receiver is read, not modified, and stays fully usable; if no point is
// marked dead the receiver itself is returned.
func (ix *Index) Compact(dead []bool) (*Index, error) {
	if len(dead) != ix.store.Len() {
		return nil, fmt.Errorf("covering: Compact with %d dead flags for %d points", len(dead), ix.store.Len())
	}
	remap := make([]int32, len(dead))
	live := 0
	for i, d := range dead {
		if d {
			remap[i] = -1
			continue
		}
		remap[i] = int32(live)
		live++
	}
	if live == ix.store.Len() {
		return ix, nil
	}
	cstore, err := ix.store.Compact(dead, live)
	if err != nil {
		return nil, err
	}
	tables := make([]map[uint64]*lsh.Bucket, len(ix.tables))
	for t, src := range ix.tables {
		dst := make(map[uint64]*lsh.Bucket, len(src))
		for key, b := range src {
			kept := make([]int32, 0, len(b.IDs))
			for _, id := range b.IDs {
				if nid := remap[id]; nid >= 0 {
					kept = append(kept, nid)
				}
			}
			if len(kept) == 0 {
				continue
			}
			nb := &lsh.Bucket{IDs: kept}
			if len(kept) >= ix.thresh {
				s := hll.New(ix.m)
				for _, id := range kept {
					s.AddID(uint64(id))
				}
				nb.Sketch = s
			}
			dst[key] = nb
		}
		tables[t] = dst
	}
	nix := &Index{
		store:  cstore.(*pointstore.FlatBinary),
		radius: ix.radius,
		dim:    ix.dim,
		m:      ix.m,
		thresh: ix.thresh,
		seed:   ix.seed,
		phi:    ix.phi,
		masks:  ix.masks,
		tables: tables,
	}
	nix.cost.Store(ix.cost.Load())
	nix.initStatePool()
	return nix, nil
}

// CompactStore implements core.Store by delegating to Compact.
func (ix *Index) CompactStore(dead []bool) (core.Store[vector.Binary], error) {
	return ix.Compact(dead)
}

// Compile-time checks: the shard layer's contracts.
var (
	_ core.Store[vector.Binary]         = (*Index)(nil)
	_ core.RadiusQuerier[vector.Binary] = (*Index)(nil)
)

// resolve maps a per-call radius override to the effective reporting
// radius: r < 0 means the built radius, and overrides are clamped to it —
// the tables only cover pairs within the built radius, so a larger
// report would silently lose the guarantee (serving layers reject
// instead of relying on the clamp).
func (ix *Index) resolve(r int) int {
	if r < 0 || r > ix.radius {
		return ix.radius
	}
	return r
}

// lookupInto collects the query's bucket in every table into st's pooled
// scratch. The result aliases st.buckets and must not be retained past
// the state's release.
func (ix *Index) lookupInto(q vector.Binary, st *queryState) []*lsh.Bucket {
	out := st.buckets[:0]
	for t, buckets := range ix.tables {
		if b := buckets[maskedKey(q, ix.masks[t])]; b != nil {
			out = append(out, b)
		}
	}
	st.buckets = out
	return out
}

// Lookup returns the query's bucket in every table.
func (ix *Index) Lookup(q vector.Binary) []*lsh.Bucket {
	return ix.lookupInto(q, &queryState{})
}

// decide runs the Algorithm-2 estimation steps over the covering bucket
// set into stats and returns the chosen strategy (the same
// short-circuits and cost comparison as core.Index over its L buckets).
func (ix *Index) decide(buckets []*lsh.Bucket, st *queryState, stats *core.QueryStats) core.Strategy {
	cost := *ix.cost.Load()
	stats.Collisions = lsh.Collisions(buckets)
	stats.LinearCost = cost.LinearCost(ix.store.Len())
	if upper := cost.LSHCost(stats.Collisions, float64(stats.Collisions)); upper < stats.LinearCost {
		stats.EstCandidates = float64(stats.Collisions)
		stats.LSHCost = upper
		return core.StrategyLSH
	}
	if lower := cost.Alpha * float64(stats.Collisions); lower >= stats.LinearCost {
		stats.EstCandidates = float64(stats.Collisions)
		stats.LSHCost = lower
		return core.StrategyLinear
	}
	stats.Estimated = true
	stats.EstCandidates = ix.estimate(buckets, st.sketch)
	stats.LSHCost = cost.LSHCost(stats.Collisions, stats.EstCandidates)
	if stats.LSHCost < stats.LinearCost {
		return core.StrategyLSH
	}
	return core.StrategyLinear
}

// Query answers one rNNR query with the hybrid strategy over the covering
// tables. Both paths are exact: covering LSH has no false negatives and
// linear search scans everything, so Query always achieves recall 1.
func (ix *Index) Query(q vector.Binary) ([]int32, core.QueryStats) {
	return ix.QueryRadius(q, -1)
}

// QueryRadius is Query with a per-call radius override: points within r
// of the query are reported instead of the built radius (r < 0 means the
// built radius; overrides above it are clamped — see resolve). Narrowing
// keeps both paths exact, since the points within r' ≤ r are a subset of
// those the tables cover. It implements core.RadiusQuerier.
func (ix *Index) QueryRadius(q vector.Binary, r int) ([]int32, core.QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)

	t0 := time.Now()
	ix.lookupInto(q, st)
	return ix.answer(q, ix.resolve(r), st, t0)
}

// maskKeyer is the covering Keyer: one masked key per table. It never
// reports sharing: covering shards keep their own φ masks (equal across
// shards built from one seed, but never aliased), so each covering shard
// computes its own keys — cheap mask-and-fold hashing.
type maskKeyer []vector.Binary

func (k maskKeyer) Keys(q vector.Binary, _ int, ks *lsh.Keys) {
	ks.Reset()
	for _, mask := range k {
		ks.Keys = append(ks.Keys, maskedKey(q, mask))
		ks.EndTable()
	}
}

func (maskKeyer) Shares(core.Keyer[vector.Binary]) bool { return false }

// Keyer implements core.Store: one masked key per table.
func (ix *Index) Keyer() core.Keyer[vector.Binary] { return maskKeyer(ix.masks) }

// QueryKeys implements core.Store: QueryRadius over the keys of this
// index's own Keyer (one per table), with r the radius override.
func (ix *Index) QueryKeys(q vector.Binary, ks *lsh.Keys, r int) ([]int32, core.QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)

	t0 := time.Now()
	st.buckets = st.buckets[:0]
	for t, key := range ks.Keys {
		if b := ix.tables[t][key]; b != nil {
			st.buckets = append(st.buckets, b)
		}
	}
	return ix.answer(q, ix.resolve(r), st, t0)
}

// answer runs the decision and the chosen search at radius r over the
// buckets in st.buckets; t0 marks the start of the estimate stage.
func (ix *Index) answer(q vector.Binary, r int, st *queryState, t0 time.Time) ([]int32, core.QueryStats) {
	var stats core.QueryStats
	stats.Strategy = ix.decide(st.buckets, st, &stats)
	stats.EstimateTime = time.Since(t0)

	t1 := time.Now()
	var out []int32
	if stats.Strategy == core.StrategyLSH {
		out = ix.searchBuckets(q, r, st.buckets, st, &stats)
	} else {
		out = ix.searchLinear(q, r, &stats)
	}
	stats.SearchTime = time.Since(t1)
	return out, stats
}

// QueryLSH forces covering-LSH search (still exact — no false negatives).
func (ix *Index) QueryLSH(q vector.Binary) ([]int32, core.QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)
	var stats core.QueryStats
	stats.Strategy = core.StrategyLSH
	t0 := time.Now()
	buckets := ix.lookupInto(q, st)
	stats.Collisions = lsh.Collisions(buckets)
	stats.EstimateTime = time.Since(t0)
	t1 := time.Now()
	out := ix.searchBuckets(q, ix.radius, buckets, st, &stats)
	stats.SearchTime = time.Since(t1)
	return out, stats
}

// QueryLinear forces the exact linear scan.
func (ix *Index) QueryLinear(q vector.Binary) ([]int32, core.QueryStats) {
	var stats core.QueryStats
	stats.Strategy = core.StrategyLinear
	t0 := time.Now()
	out := ix.searchLinear(q, ix.radius, &stats)
	stats.SearchTime = time.Since(t0)
	return out, stats
}

// DecideStrategy runs only the estimation steps over the covering bucket
// set and returns the decision without searching.
func (ix *Index) DecideStrategy(q vector.Binary) (core.Strategy, core.QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)
	var stats core.QueryStats
	t0 := time.Now()
	buckets := ix.lookupInto(q, st)
	stats.Strategy = ix.decide(buckets, st, &stats)
	stats.EstimateTime = time.Since(t0)
	return stats.Strategy, stats
}

// QueryBatch answers many queries concurrently, using up to workers
// goroutines (0 means GOMAXPROCS). Results are positionally aligned with
// queries.
func (ix *Index) QueryBatch(queries []vector.Binary, workers int) []core.BatchResult {
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

func (ix *Index) estimate(buckets []*lsh.Bucket, scratch *hll.Sketch) float64 {
	scratch.Reset()
	for _, b := range buckets {
		if b.Sketch != nil {
			scratch.Merge(b.Sketch)
		} else {
			for _, id := range b.IDs {
				scratch.AddID(uint64(id))
			}
		}
	}
	return scratch.Estimate()
}

func (ix *Index) searchBuckets(q vector.Binary, r int, buckets []*lsh.Bucket, st *queryState, stats *core.QueryStats) []int32 {
	st.gen++
	if st.gen == 0 {
		clear(st.visited)
		st.gen = 1
	}
	gen := st.gen
	cand := st.cand[:0]
	for _, b := range buckets {
		for _, id := range b.IDs {
			if st.visited[id] == gen {
				continue
			}
			st.visited[id] = gen
			cand = append(cand, id)
		}
	}
	st.cand = cand
	stats.Candidates = len(cand)
	out := ix.store.VerifyRadius(q, cand, float64(r), nil)
	stats.Results = len(out)
	return out
}

func (ix *Index) searchLinear(q vector.Binary, r int, stats *core.QueryStats) []int32 {
	out := ix.store.ScanRadius(q, float64(r), nil)
	stats.Candidates = ix.store.Len()
	stats.Results = len(out)
	return out
}
