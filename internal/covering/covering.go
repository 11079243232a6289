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
// Index runs on core.Index: its tables are lsh.Tables holding one
// keep-mask hasher per table, and its point store is the flat binary
// store, so Algorithm 2, Append, Compact and the shard layer's
// contracts (core.Store) are the plain index's own. Append hashes new
// points with the already-drawn φ (the guarantee is per-pair and
// oblivious to the data, so it survives growth), Compact rewrites the
// mask tables without the dead points while keeping φ, and Restore
// reassembles a persisted index without re-hashing. Index also
// satisfies core.RadiusQuerier: a per-call radius r' ≤ r is handed to
// core's verification and scan, which narrows the report while keeping
// the guarantee, because the points within r' are a subset of the
// points within r that the tables already cover.
package covering

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/hashutil"
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

// Index is the covering-LSH structure: 2^(r+1)−1 mask tables with
// per-bucket sketches, answered by a wrapped core.Index. It is safe for
// any number of concurrent queries, but — like core.Index —
// single-writer: Append must not run concurrently with queries or
// another Append (wrap in shard.Sharded for concurrent mutation).
type Index struct {
	ix     *core.Index[vector.Binary]
	radius int
	phi    []uint32 // φ(i) ∈ {0,1}^(r+1) per dimension
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

// maskHasher is one covering table's hash function: the key of the
// coordinates its keep-mask retains. The mask is fixed by φ rather than
// concatenated from drawn base functions, so K is 1. Tables hold it by
// pointer: core's Keyer compares hashers with ==, which a value holding
// a slice would panic on.
type maskHasher struct{ mask vector.Binary }

// Key hashes the masked coordinates of p.
func (h *maskHasher) Key(p vector.Binary) uint64 { return maskedKey(p, h.mask) }

// K returns 1.
func (h *maskHasher) K() int { return 1 }

// newEngine assembles the core index over φ's mask tables: table v
// (1-based) keeps coordinate i iff parity(φ(i) & v) = 1. buckets holds
// each table's bucket map (nil for empty tables) over points.
func newEngine(points []vector.Binary, r int, phi []uint32, buckets []map[uint64]*lsh.Bucket, cfg Config) (*core.Index[vector.Binary], error) {
	if cfg.HLLRegisters == 0 {
		cfg.HLLRegisters = 128
	}
	if cfg.Cost == (core.CostModel{}) {
		cfg.Cost = core.DefaultCostModel
	}
	tabs := make([]lsh.Table[vector.Binary], NumTables(r))
	for t := range tabs {
		v := uint32(t + 1)
		mask := vector.NewBinary(len(phi))
		for i, f := range phi {
			if parity(f&v) == 1 {
				mask.SetBit(i, true)
			}
		}
		tabs[t].Hasher = &maskHasher{mask}
		if buckets != nil {
			tabs[t].Buckets = buckets[t]
		}
	}
	tables, err := lsh.RestoreTables(lsh.Params{
		K:            1,
		L:            len(tabs),
		HLLRegisters: cfg.HLLRegisters,
		HLLThreshold: cfg.HLLThreshold,
		Seed:         cfg.Seed,
	}, tabs, len(points))
	if err != nil {
		return nil, fmt.Errorf("covering: %w", err)
	}
	ix, err := core.Assemble(points, tables, core.RestoreConfig[vector.Binary]{
		Distance: distance.Hamming,
		Radius:   float64(r),
		Cost:     cfg.Cost,
		Store:    pointstore.BinaryHammingBuilder(),
	})
	if err != nil {
		return nil, fmt.Errorf("covering: %w", err)
	}
	return ix, nil
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

	// φ(i) ∈ {0,1}^b per dimension, drawn uniformly.
	b := uint(r + 1)
	rnd := rng.New(cfg.Seed)
	phi := make([]uint32, dim)
	for i := range phi {
		phi[i] = uint32(rnd.Uint64() & ((1 << b) - 1))
	}

	engine, err := newEngine(nil, r, phi, nil, cfg)
	if err != nil {
		return nil, err
	}
	ix := &Index{ix: engine, radius: r, phi: phi}
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
	cfg.Seed = seed
	engine, err := newEngine(points, r, phi, tables, cfg)
	if err != nil {
		return nil, err
	}
	return &Index{ix: engine, radius: r, phi: phi}, nil
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

// Core exposes the wrapped core index (read-only by convention). It
// exists for serialization.
func (ix *Index) Core() *core.Index[vector.Binary] { return ix.ix }

// N returns the number of indexed points.
func (ix *Index) N() int { return ix.ix.N() }

// Points exposes the stored point slice (read-only); it exists for
// serialization and the shard layer's compaction absorption. The
// returned headers alias the store's flat word backing, id-aligned.
func (ix *Index) Points() []vector.Binary { return ix.ix.Points() }

// StoreStats returns the point store's layout and verification counters
// (core.StoreStatser).
func (ix *Index) StoreStats() pointstore.Stats { return ix.ix.StoreStats() }

// Dim returns the bit width the index was built for.
func (ix *Index) Dim() int { return len(ix.phi) }

// Tables returns the table count 2^(r+1) − 1.
func (ix *Index) Tables() int { return ix.ix.L() }

// TableBuckets exposes table t's bucket map (read-only); it exists for
// serialization and white-box tests.
func (ix *Index) TableBuckets(t int) map[uint64]*lsh.Bucket {
	return ix.ix.Tables().Table(t).Buckets
}

// Radius returns the covering radius.
func (ix *Index) Radius() int { return ix.radius }

// Phi exposes the drawn random map φ (read-only); it exists for
// serialization — masks and tables are fully determined by it.
func (ix *Index) Phi() []uint32 { return ix.phi }

// Seed returns the construction seed φ was drawn from.
func (ix *Index) Seed() uint64 { return ix.ix.Tables().Params().Seed }

// HLLRegisters returns m, the per-sketch register count.
func (ix *Index) HLLRegisters() int { return ix.ix.Tables().Params().HLLRegisters }

// HLLThreshold returns the pre-built-sketch bucket-size threshold.
func (ix *Index) HLLThreshold() int { return ix.ix.Tables().Params().HLLThreshold }

// Cost returns the cost model in use.
func (ix *Index) Cost() core.CostModel { return ix.ix.Cost() }

// SetCost atomically swaps the cost model of the wrapped core index
// (see core.Index.SetCost): safe concurrently with queries, rejected
// unless the model is Usable.
func (ix *Index) SetCost(c core.CostModel) error { return ix.ix.SetCost(c) }

// Append adds points to the index, assigning ids from the current N
// upward. New points are hashed with the already-drawn φ, so the
// no-false-negatives guarantee — which is per-pair and oblivious to the
// data — covers them immediately, and the per-bucket sketches are
// maintained incrementally (see core.Index.Append).
//
// Append is the single-writer side of the contract: it must not run
// concurrently with queries or another Append. Wrap the index in
// shard.Sharded when mutation overlaps traffic.
func (ix *Index) Append(points []vector.Binary) error {
	for i, p := range points {
		if p.Dim != ix.Dim() {
			return fmt.Errorf("covering: Append point %d has dim %d, index dim is %d", i, p.Dim, ix.Dim())
		}
	}
	return ix.ix.Append(points)
}

// Compact returns a new covering index without the points marked dead
// (len(dead) must equal N). The drawn map φ — and hence every mask — is
// kept, so no surviving point is re-hashed (see core.Index.Compact):
// answers are id-for-id the receiver's answers minus the dead points
// (modulo the renumbering), and the covering guarantee carries over
// unchanged. The receiver is read, not modified, and stays fully
// usable; if no point is marked dead the receiver itself is returned.
func (ix *Index) Compact(dead []bool) (*Index, error) {
	nix, err := ix.ix.Compact(dead)
	if err != nil {
		return nil, err
	}
	if nix == ix.ix {
		return ix, nil
	}
	return &Index{ix: nix, radius: ix.radius, phi: ix.phi}, nil
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
func (ix *Index) resolve(r int) float64 {
	if r < 0 || r > ix.radius {
		return float64(ix.radius)
	}
	return float64(r)
}

// Lookup returns the query's bucket in every table.
func (ix *Index) Lookup(q vector.Binary) []*lsh.Bucket { return ix.ix.Tables().Lookup(q) }

// Query answers one rNNR query with the hybrid strategy over the covering
// tables. Both paths are exact: covering LSH has no false negatives and
// linear search scans everything, so Query always achieves recall 1.
func (ix *Index) Query(q vector.Binary) ([]int32, core.QueryStats) { return ix.ix.Query(q) }

// QueryRadius is Query with a per-call radius override: points within r
// of the query are reported instead of the built radius (r < 0 means the
// built radius; overrides above it are clamped — see resolve). Narrowing
// keeps both paths exact, since the points within r' ≤ r are a subset of
// those the tables cover. It implements core.RadiusQuerier.
func (ix *Index) QueryRadius(q vector.Binary, r int) ([]int32, core.QueryStats) {
	return ix.ix.QueryWithin(q, ix.resolve(r))
}

// Keyer implements core.Store: one masked key per table. Covering
// shards draw their own mask hashers, so their Keyers never share and
// each covering shard computes its own keys.
func (ix *Index) Keyer() core.Keyer[vector.Binary] { return ix.ix.Keyer() }

// QueryKeys implements core.Store: QueryRadius over the keys of this
// index's own Keyer (one per table), with r the radius override.
func (ix *Index) QueryKeys(q vector.Binary, ks *lsh.Keys, r int) ([]int32, core.QueryStats) {
	return ix.ix.QueryKeysWithin(q, ks, ix.resolve(r))
}

// QueryLSH forces covering-LSH search (still exact — no false negatives).
func (ix *Index) QueryLSH(q vector.Binary) ([]int32, core.QueryStats) { return ix.ix.QueryLSH(q) }

// QueryLinear forces the exact linear scan.
func (ix *Index) QueryLinear(q vector.Binary) ([]int32, core.QueryStats) {
	return ix.ix.QueryLinear(q)
}

// DecideStrategy runs only the estimation steps over the covering bucket
// set and returns the decision without searching.
func (ix *Index) DecideStrategy(q vector.Binary) (core.Strategy, core.QueryStats) {
	return ix.ix.DecideStrategy(q)
}

// QueryBatch answers many queries concurrently, using up to workers
// goroutines (0 means GOMAXPROCS). Results are positionally aligned with
// queries.
func (ix *Index) QueryBatch(queries []vector.Binary, workers int) []core.BatchResult {
	return ix.ix.QueryBatch(queries, workers)
}
