// Package core implements the paper's contribution: the hybrid search
// strategy for r-near neighbor reporting (Algorithm 2) on top of LSH hash
// tables with per-bucket HyperLogLog sketches (Algorithm 1), governed by
// the computational cost model of Equations (1) and (2):
//
//	LSHCost    = α·#collisions + β·candSize
//	LinearCost = β·n
//
// A query first reads its L bucket sizes (#collisions, exact) and merges
// the buckets' HLL sketches (candSize, estimated), then runs LSH-based
// search if LSHCost < LinearCost and an exact linear scan otherwise.
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distance"
	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/pointstore"
)

// Strategy identifies which search path answered a query.
type Strategy int

// The two strategies Algorithm 2 chooses between.
const (
	StrategyLSH Strategy = iota
	StrategyLinear
)

// String returns "lsh" or "linear".
func (s Strategy) String() string {
	switch s {
	case StrategyLSH:
		return "lsh"
	case StrategyLinear:
		return "linear"
	default:
		return "unknown"
	}
}

// CostModel holds the two machine- and workload-dependent constants of the
// paper's cost model: Alpha, the average cost of removing one duplicate
// (one visited-array probe + possible candidate append), and Beta, the
// cost of one distance computation. Only the ratio Beta/Alpha matters for
// the strategy decision; the paper picks 10, 10, 6 and 1 for Webspam,
// CoverType, Corel and MNIST respectively.
type CostModel struct {
	Alpha float64
	Beta  float64
}

// LSHCost evaluates Equation (1).
func (c CostModel) LSHCost(collisions int, candSize float64) float64 {
	return float64(c.Alpha*float64(collisions)) + float64(c.Beta*candSize)
}

// LinearCost evaluates Equation (2).
func (c CostModel) LinearCost(n int) float64 {
	return c.Beta * float64(n)
}

// Valid reports whether both constants are positive.
func (c CostModel) Valid() bool { return c.Alpha > 0 && c.Beta > 0 }

// Usable reports whether the model can safely drive strategy decisions:
// both constants positive and finite. SetCost and Restore accept only
// usable models, so a NaN or Inf produced by a bad refit can never reach
// the decision rule.
func (c CostModel) Usable() bool {
	return c.Valid() &&
		!math.IsNaN(c.Alpha) && !math.IsInf(c.Alpha, 0) &&
		!math.IsNaN(c.Beta) && !math.IsInf(c.Beta, 0)
}

// Config configures an Index over point type P.
type Config[P any] struct {
	// Family is the LSH family matching Distance.
	Family lsh.Family[P]
	// Distance is the metric of the rNNR instance.
	Distance distance.Func[P]
	// Radius is the reporting radius r.
	Radius float64
	// Delta is the per-point failure probability δ (default 0.1).
	Delta float64
	// L is the number of hash tables (default 50, the paper's setting).
	L int
	// K is the concatenation length; 0 derives it from the family's
	// p₁(Radius) via the paper's formula k = ⌈log(1−δ^{1/L})/log p₁⌉.
	K int
	// HLLRegisters is m (default 128, the paper's Table-1 setting).
	HLLRegisters int
	// HLLThreshold overrides the sketch-on-build bucket-size threshold;
	// 0 means HLLRegisters (the paper's rule).
	HLLThreshold int
	// Cost is the calibrated cost model; the zero value defers to
	// DefaultCostModel. Use Calibrate to measure it.
	Cost CostModel
	// Seed makes the whole index deterministic.
	Seed uint64
	// Store picks the point layout backing candidate verification; nil
	// defaults to the generic []P layout driven by Distance. The metric
	// constructors wire specialized struct-of-arrays layouts here
	// (pointstore.DenseL2Builder, pointstore.BinaryHammingBuilder).
	Store pointstore.Builder[P]
}

// DefaultCostModel is used when Config.Cost is zero. β/α = 8 sits between
// the paper's per-dataset choices (1–10); Calibrate replaces it with a
// measured value.
var DefaultCostModel = CostModel{Alpha: 1, Beta: 8}

// Index is the hybrid rNNR structure. It is safe for any number of
// concurrent queries after NewIndex returns, but it is single-writer:
// Append mutates the tables and the point slice without any internal
// locking, so it must never run concurrently with queries or with
// another Append. Callers that need concurrent mutation wrap Index in
// the shard package's Sharded, which partitions points across indexes
// and guards each with its own RWMutex — that is the supported
// concurrent path; do not add ad-hoc locking around a shared Index.
type Index[P any] struct {
	store  pointstore.Store[P]
	dist   distance.Func[P]
	family lsh.Family[P]
	radius float64
	delta  float64
	k      int
	p1     float64
	// cost is the calibrated model behind Cost()/SetCost: an atomic
	// pointer so online recalibration can swap constants mid-traffic
	// without a lock on the query path (decide loads it once per query).
	cost   atomic.Pointer[CostModel]
	tables *lsh.Tables[P]
	states sync.Pool // *queryState
}

// queryState is the per-query scratch: the generation-stamped visited
// array used for duplicate removal (the paper's step S2), the HLL merge
// target, the bucket-lookup slice, and the deduplicated candidate-id
// buffer handed to the store's batch verifier. Pooling it keeps Query
// allocation-free in steady state.
type queryState struct {
	visited []uint32
	gen     uint32
	sketch  *hll.Sketch
	buckets []*lsh.Bucket
	cand    []int32
}

// NewIndex builds the hybrid index: L hash tables with per-bucket HLLs
// (Algorithm 1) plus the cost model. It returns an error on invalid
// configuration or if the family's collision probability at Radius is
// degenerate (0 or 1), which would make the parameter solver meaningless.
func NewIndex[P any](points []P, cfg Config[P]) (*Index[P], error) {
	if cfg.Family == nil {
		return nil, fmt.Errorf("core: Config.Family is nil")
	}
	if cfg.Distance == nil {
		return nil, fmt.Errorf("core: Config.Distance is nil")
	}
	if cfg.Radius <= 0 {
		return nil, fmt.Errorf("core: Config.Radius = %v, want > 0", cfg.Radius)
	}
	if cfg.Delta == 0 {
		cfg.Delta = 0.1
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("core: Config.Delta = %v, want in (0,1)", cfg.Delta)
	}
	if cfg.L == 0 {
		cfg.L = 50
	}
	if cfg.L < 1 {
		return nil, fmt.Errorf("core: Config.L = %d, want >= 1", cfg.L)
	}
	if cfg.HLLRegisters == 0 {
		cfg.HLLRegisters = 128
	}
	if (cfg.Cost != CostModel{}) && !cfg.Cost.Valid() {
		return nil, fmt.Errorf("core: Config.Cost = %+v, want positive constants", cfg.Cost)
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel
	}

	p1 := cfg.Family.CollisionProb(cfg.Radius)
	k := cfg.K
	if k == 0 {
		if p1 <= 0 || p1 >= 1 {
			return nil, fmt.Errorf("core: collision probability p1(r=%v) = %v is degenerate; set Config.K explicitly", cfg.Radius, p1)
		}
		k = lsh.SolveK(p1, cfg.Delta, cfg.L)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: Config.K = %d, want >= 1", k)
	}

	tables, err := lsh.Build(points, cfg.Family, lsh.Params{
		K:            k,
		L:            cfg.L,
		HLLRegisters: cfg.HLLRegisters,
		HLLThreshold: cfg.HLLThreshold,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	if cfg.Store == nil {
		cfg.Store = pointstore.GenericBuilder(cfg.Distance)
	}
	store, err := cfg.Store(points)
	if err != nil {
		return nil, err
	}
	ix := &Index[P]{
		store:  store,
		dist:   cfg.Distance,
		family: cfg.Family,
		radius: cfg.Radius,
		delta:  cfg.Delta,
		k:      k,
		p1:     p1,
		tables: tables,
	}
	ix.cost.Store(&cfg.Cost)
	ix.initStatePool()
	return ix, nil
}

// initStatePool wires the per-query scratch pool; both NewIndex and
// Restore call it once the point count and sketch geometry are known.
func (ix *Index[P]) initStatePool() {
	n := ix.store.Len()
	m := ix.tables.Params().HLLRegisters
	ix.states.New = func() any {
		return &queryState{visited: make([]uint32, n), sketch: hll.New(m)}
	}
}

// RestoreConfig carries the decoded scalar state of a persisted Index;
// the structural state (points, tables) travels alongside in Restore.
type RestoreConfig[P any] struct {
	// Family is the reconstructed LSH family (hash functions themselves
	// live in the tables' hashers; the family is retained for its
	// collision-probability curve).
	Family lsh.Family[P]
	// Distance is the metric of the rNNR instance.
	Distance distance.Func[P]
	// Radius, Delta, P1 and Cost are the saved index's parameters; the
	// concatenation length k is taken from the tables' Params.
	Radius, Delta, P1 float64
	Cost              CostModel
	// Store picks the point layout (see Config.Store); nil defaults to
	// the generic layout over Distance.
	Store pointstore.Builder[P]
}

// Restore reassembles an Index from a decoded snapshot without
// rebuilding: the tables (hashers, buckets, sketches) are used as-is, so
// the restored index answers queries id-for-id identically to the saved
// one. Unlike NewIndex it accepts an empty point set (a fully compacted
// shard) and a degenerate P1 (the saved index may have been built with
// an explicit K).
func Restore[P any](points []P, tables *lsh.Tables[P], cfg RestoreConfig[P]) (*Index[P], error) {
	if cfg.Family == nil {
		return nil, fmt.Errorf("core: Restore with nil family")
	}
	if cfg.Distance == nil {
		return nil, fmt.Errorf("core: Restore with nil distance")
	}
	if tables == nil {
		return nil, fmt.Errorf("core: Restore with nil tables")
	}
	if tables.N() != len(points) {
		return nil, fmt.Errorf("core: Restore with %d points but tables over %d", len(points), tables.N())
	}
	if !(cfg.Radius > 0) || math.IsInf(cfg.Radius, 0) {
		return nil, fmt.Errorf("core: Restore radius = %v, want positive and finite", cfg.Radius)
	}
	if !(cfg.Delta > 0 && cfg.Delta < 1) {
		return nil, fmt.Errorf("core: Restore delta = %v, want in (0,1)", cfg.Delta)
	}
	if !(cfg.P1 >= 0 && cfg.P1 <= 1) {
		return nil, fmt.Errorf("core: Restore p1 = %v, want in [0,1]", cfg.P1)
	}
	if !cfg.Cost.Usable() {
		return nil, fmt.Errorf("core: Restore cost = %+v, want positive finite constants", cfg.Cost)
	}
	if cfg.Store == nil {
		cfg.Store = pointstore.GenericBuilder(cfg.Distance)
	}
	store, err := cfg.Store(points)
	if err != nil {
		return nil, err
	}
	ix := &Index[P]{
		store:  store,
		dist:   cfg.Distance,
		family: cfg.Family,
		radius: cfg.Radius,
		delta:  cfg.Delta,
		k:      tables.Params().K,
		p1:     cfg.P1,
		tables: tables,
	}
	ix.cost.Store(&cfg.Cost)
	ix.initStatePool()
	return ix, nil
}

// N returns the number of indexed points.
func (ix *Index[P]) N() int { return ix.store.Len() }

// Radius returns the reporting radius the index was built for.
func (ix *Index[P]) Radius() float64 { return ix.radius }

// K returns the concatenation length in use.
func (ix *Index[P]) K() int { return ix.k }

// Delta returns the per-point failure probability the index was built
// for.
func (ix *Index[P]) Delta() float64 { return ix.delta }

// Family returns the LSH family the index draws its hash functions
// from.
func (ix *Index[P]) Family() lsh.Family[P] { return ix.family }

// Points exposes the stored point slice (read-only; mutating it corrupts
// the index). It exists for serialization. With a struct-of-arrays
// layout the returned headers alias the store's flat backing; they stay
// id-aligned, which the shard compaction hand-off relies on.
func (ix *Index[P]) Points() []P { return ix.store.Slice() }

// StoreStats returns the point store's layout and verification
// counters.
func (ix *Index[P]) StoreStats() pointstore.Stats { return ix.store.Stats() }

// L returns the number of hash tables.
func (ix *Index[P]) L() int { return ix.tables.L() }

// P1 returns the family's collision probability at the index radius.
func (ix *Index[P]) P1() float64 { return ix.p1 }

// Cost returns the cost model in use. It is safe to call concurrently
// with queries and with SetCost.
func (ix *Index[P]) Cost() CostModel { return *ix.cost.Load() }

// SetCost swaps the cost model driving the LINEAR-vs-LSH decision. The
// swap is atomic: it may run concurrently with any number of queries
// (each query decides with the model it loaded at decision time) and
// with other SetCost calls — it is the one mutation exempt from the
// index's single-writer contract, because it touches no index structure.
// Models with non-positive, NaN or Inf constants are rejected, so a
// degenerate refit can never poison the decision rule.
func (ix *Index[P]) SetCost(c CostModel) error {
	if !c.Usable() {
		return fmt.Errorf("core: SetCost(%+v), want positive finite constants", c)
	}
	ix.cost.Store(&c)
	return nil
}

// Tables exposes the underlying LSH structure (read-only) for the probing
// extensions and white-box experiments.
func (ix *Index[P]) Tables() *lsh.Tables[P] { return ix.tables }

// DistanceTo returns the index metric's distance between stored point id
// and q. It panics if id is out of range.
func (ix *Index[P]) DistanceTo(id int32, q P) float64 {
	return ix.dist(ix.store.At(id), q)
}

// Point returns the stored point with the given id.
func (ix *Index[P]) Point(id int32) P { return ix.store.At(id) }

// Append adds points to the index, assigning ids from the current N
// upward. The per-bucket sketches are maintained incrementally (HLLs only
// ever absorb insertions), so hybrid decisions stay accurate.
//
// Append is the single-writer side of the Index contract: it must not
// run concurrently with Query, QueryBatch, or another Append — it grows
// ix.points and the bucket slices in place, and a racing reader observes
// torn state (verified by the race detector). The shard package provides
// the concurrency-safe wrapper; use it instead of external locking when
// queries and appends overlap. Note that k was solved for the build-time
// radius and δ — appending does not retune parameters.
func (ix *Index[P]) Append(points []P) error {
	if len(points) == 0 {
		return nil
	}
	if err := ix.tables.Append(points); err != nil {
		return err
	}
	return ix.store.Append(points)
}

// Compact returns a new index without the points marked dead
// (len(dead) must equal N). The drawn hash functions are kept — no
// surviving point is re-hashed — while every bucket drops its dead ids,
// survivors are renumbered by their rank among survivors (point i's new
// id is the number of live points before i, so relative order is
// preserved), and the per-bucket HLL sketches are rebuilt from the live
// ids. The result's strategy decision therefore counts zero dead points
// in all three cost-model inputs: LinearCost uses the live n, #collisions
// sums buckets holding only live ids, and candSize estimates over
// live-only sketches. Answers are id-for-id the receiver's answers minus
// the dead points (modulo the renumbering).
//
// The receiver is read, not modified, and stays fully usable — callers
// such as shard.Sharded build the compacted index while the old one keeps
// serving reads, then swap. Compact may run concurrently with queries on
// the receiver but not with Append (the usual single-writer contract).
// If no point is marked dead the receiver itself is returned.
func (ix *Index[P]) Compact(dead []bool) (*Index[P], error) {
	if len(dead) != ix.store.Len() {
		return nil, fmt.Errorf("core: Compact with %d dead flags for %d points", len(dead), ix.store.Len())
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
	store, err := ix.store.Compact(dead, live)
	if err != nil {
		return nil, err
	}
	tables, err := ix.tables.Compact(remap, live)
	if err != nil {
		return nil, err
	}
	nix := &Index[P]{
		store:  store,
		dist:   ix.dist,
		family: ix.family,
		radius: ix.radius,
		delta:  ix.delta,
		k:      ix.k,
		p1:     ix.p1,
		tables: tables,
	}
	nix.cost.Store(ix.cost.Load())
	nix.initStatePool()
	return nix, nil
}

// QueryStats reports what one query did; every experiment in the paper is
// an aggregation of these.
type QueryStats struct {
	// Strategy is the path that produced the results.
	Strategy Strategy
	// Collisions is Σ bucket sizes over the L probed buckets (exact).
	Collisions int
	// EstCandidates is the HLL estimate of the distinct candidate count
	// when Estimated is true; otherwise the decision was short-circuited
	// by a collision-count bound and EstCandidates holds that bound.
	EstCandidates float64
	// Estimated reports whether the L bucket sketches were actually
	// merged. The decision rule skips the merge when a bound already
	// settles it: candSize ≤ #collisions (so a winning upper bound
	// commits to LSH), and LSHCost ≥ α·#collisions (so a losing lower
	// bound commits to linear).
	Estimated bool
	// Candidates is the number of distinct candidates actually examined
	// (LSH path) or n (linear path).
	Candidates int
	// Results is the number of points reported within the radius.
	Results int
	// EstimateTime covers Algorithm-2 steps 1–3: bucket size collection,
	// HLL merge and the cost comparison.
	EstimateTime time.Duration
	// SearchTime covers the chosen search (S2 dedup + S3 distances, or
	// the linear scan).
	SearchTime time.Duration
	// LSHCost and LinearCost are the two sides of the decision.
	LSHCost    float64
	LinearCost float64
}

// TotalTime returns estimation plus search time.
func (s QueryStats) TotalTime() time.Duration { return s.EstimateTime + s.SearchTime }

// ChosenCost returns the cost-model prediction for the strategy that
// actually ran: LSHCost for the LSH path, LinearCost for the scan. The
// drift monitor divides the measured search time by this to get a
// nanoseconds-per-cost-unit figure per strategy; when the α/β
// calibration still matches the machine, the two strategies' figures
// agree.
func (s QueryStats) ChosenCost() float64 {
	if s.Strategy == StrategyLSH {
		return s.LSHCost
	}
	return s.LinearCost
}

// EstimateErrorRatio returns the HLL estimate divided by the actual
// distinct candidate count, and whether that ratio is meaningful for
// this query: it requires an LSH-path answer (only the bucket walk
// counts distinct candidates; the linear scan's Candidates is n) whose
// decision actually merged the sketches (short-circuited decisions
// record a bound, not an estimate) and saw at least one candidate. A
// well-calibrated estimator keeps the ratio near 1; sustained skew is
// the signal that the per-bucket sketches have drifted from the live
// data distribution.
func (s QueryStats) EstimateErrorRatio() (float64, bool) {
	if s.Strategy != StrategyLSH || !s.Estimated || s.Candidates <= 0 {
		return 0, false
	}
	return s.EstCandidates / float64(s.Candidates), true
}

// getState draws a pooled query state, growing its visited array if the
// index has been appended to since the state was created.
func (ix *Index[P]) getState() *queryState {
	st := ix.states.Get().(*queryState)
	if n := ix.store.Len(); len(st.visited) < n {
		st.visited = make([]uint32, n)
		st.gen = 0
	}
	return st
}

// decide runs Algorithm-2 steps 1–3 into stats: collision counting, the
// HLL merge (unless a collision bound already settles the comparison) and
// the cost evaluation. It returns the chosen strategy.
func (ix *Index[P]) decide(buckets []*lsh.Bucket, st *queryState, stats *QueryStats) Strategy {
	// One atomic load per decision: the whole comparison runs against a
	// consistent (α, β) pair even when SetCost swaps the model mid-query.
	cost := *ix.cost.Load()
	stats.Collisions = lsh.Collisions(buckets)
	stats.LinearCost = cost.LinearCost(ix.store.Len())
	// Short-circuit 1: candSize ≤ #collisions, so if the pessimistic
	// LSHCost already beats linear there is nothing to estimate.
	if upper := cost.LSHCost(stats.Collisions, float64(stats.Collisions)); upper < stats.LinearCost {
		stats.EstCandidates = float64(stats.Collisions)
		stats.LSHCost = upper
		return StrategyLSH
	}
	// Short-circuit 2: LSHCost ≥ α·#collisions, so if that lower bound
	// alone reaches LinearCost the scan wins regardless of candSize.
	if lower := cost.Alpha * float64(stats.Collisions); lower >= stats.LinearCost {
		stats.EstCandidates = float64(stats.Collisions)
		stats.LSHCost = lower
		return StrategyLinear
	}
	stats.Estimated = true
	stats.EstCandidates = ix.tables.EstimateCandidates(buckets, st.sketch)
	stats.LSHCost = cost.LSHCost(stats.Collisions, stats.EstCandidates)
	if stats.LSHCost < stats.LinearCost {
		return StrategyLSH
	}
	return StrategyLinear
}

// Query answers one rNNR query with the hybrid strategy (Algorithm 2):
// estimate LSHCost from bucket sizes and merged HLLs, compare with
// LinearCost, and run the cheaper search. The returned ids are distinct
// but in unspecified order (sorting is not part of the paper's cost model;
// callers that need order sort the ids themselves).
func (ix *Index[P]) Query(q P) ([]int32, QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)

	t0 := time.Now()
	st.buckets = ix.tables.LookupInto(q, st.buckets)
	return ix.answer(q, st, t0)
}

// QueryKeys implements Store: Query over precomputed keys. The keys may
// come from another index's Keyer when the two share hash functions.
func (ix *Index[P]) QueryKeys(q P, ks *lsh.Keys, _ int) ([]int32, QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)

	t0 := time.Now()
	st.buckets = ix.tables.LookupKeys(ks, st.buckets)
	return ix.answer(q, st, t0)
}

// answer runs Algorithm 2 from the looked-up buckets in st.buckets on:
// the decision, then the chosen search. t0 marks the start of the
// estimate stage (the bucket lookup).
func (ix *Index[P]) answer(q P, st *queryState, t0 time.Time) ([]int32, QueryStats) {
	var stats QueryStats
	stats.Strategy = ix.decide(st.buckets, st, &stats)
	stats.EstimateTime = time.Since(t0)

	t1 := time.Now()
	var out []int32
	if stats.Strategy == StrategyLSH {
		out = ix.searchBuckets(q, st.buckets, st, &stats)
	} else {
		out = ix.searchLinear(q, &stats)
	}
	stats.SearchTime = time.Since(t1)
	return out, stats
}

// EstimateCandSize always performs the full O(m·L) sketch merge — no
// short-circuits — and returns the collision count, the candSize estimate
// and the time the merge took. Table 1 measures exactly this operation.
func (ix *Index[P]) EstimateCandSize(q P) (collisions int, est float64, elapsed time.Duration) {
	st := ix.getState()
	defer ix.states.Put(st)
	t0 := time.Now()
	st.buckets = ix.tables.LookupInto(q, st.buckets)
	collisions = lsh.Collisions(st.buckets)
	est = ix.tables.EstimateCandidates(st.buckets, st.sketch)
	return collisions, est, time.Since(t0)
}

// QueryLSH forces the classic LSH-based search (no estimation, no
// fallback). It is the "LSH" baseline of Figure 2. Timing uses the same
// decomposition as Query: EstimateTime covers the bucket lookup and
// collision counting (steps 1 of Algorithm 2, the pre-search work),
// SearchTime covers only the S2 dedup + S3 distance computations — so the
// Figure-2 baselines and the hybrid path report comparable splits.
func (ix *Index[P]) QueryLSH(q P) ([]int32, QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)

	var stats QueryStats
	stats.Strategy = StrategyLSH
	t0 := time.Now()
	st.buckets = ix.tables.LookupInto(q, st.buckets)
	stats.Collisions = lsh.Collisions(st.buckets)
	stats.EstimateTime = time.Since(t0)
	t1 := time.Now()
	out := ix.searchBuckets(q, st.buckets, st, &stats)
	stats.SearchTime = time.Since(t1)
	return out, stats
}

// QueryLinear forces the exact linear scan. It is the "Linear" baseline of
// Figure 2. The decomposition matches Query's: a forced scan does no
// bucket lookup and no estimation, so EstimateTime is genuinely zero and
// SearchTime is the whole scan.
func (ix *Index[P]) QueryLinear(q P) ([]int32, QueryStats) {
	var stats QueryStats
	stats.Strategy = StrategyLinear
	t0 := time.Now()
	out := ix.searchLinear(q, &stats)
	stats.SearchTime = time.Since(t0)
	return out, stats
}

// DecideStrategy runs only steps 1–3 of Algorithm 2 and returns the
// decision without searching. The ablation experiments use it to compare
// the HLL-based decision against an oracle.
func (ix *Index[P]) DecideStrategy(q P) (Strategy, QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)

	var stats QueryStats
	t0 := time.Now()
	st.buckets = ix.tables.LookupInto(q, st.buckets)
	stats.Strategy = ix.decide(st.buckets, st, &stats)
	stats.EstimateTime = time.Since(t0)
	return stats.Strategy, stats
}

// searchBuckets is the paper's steps S2 + S3, restructured for batch
// verification: walk the probed buckets and remove duplicates with the
// generation-stamped visited array (S2), collecting the distinct
// candidate ids into the pooled scratch buffer, then hand the whole
// batch to the store's VerifyRadius (S3) — which runs the batch
// distance kernels over its own layout.
func (ix *Index[P]) searchBuckets(q P, buckets []*lsh.Bucket, st *queryState, stats *QueryStats) []int32 {
	st.gen++
	if st.gen == 0 {
		// Generation counter wrapped: clear stamps and restart.
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
	out := ix.store.VerifyRadius(q, cand, ix.radius, nil)
	stats.Results = len(out)
	return out
}

// searchLinear scans all points; it is exact.
func (ix *Index[P]) searchLinear(q P, stats *QueryStats) []int32 {
	out := ix.store.ScanRadius(q, ix.radius, nil)
	stats.Candidates = ix.store.Len()
	stats.Results = len(out)
	return out
}

// GroundTruth reports the exact result set of a query by linear scan; the
// recall experiments compare strategy outputs against it.
func GroundTruth[P any](points []P, dist distance.Func[P], q P, r float64) []int32 {
	var out []int32
	for i := range points {
		if dist(points[i], q) <= r {
			out = append(out, int32(i))
		}
	}
	return out
}

// Recall returns |reported ∩ truth| / |truth|; it is 1 for an empty truth
// set. Neither slice needs to be sorted; the inputs are not modified.
func Recall(reported, truth []int32) float64 {
	if len(truth) == 0 {
		return 1
	}
	rep := append([]int32(nil), reported...)
	tr := append([]int32(nil), truth...)
	slices.Sort(rep)
	slices.Sort(tr)
	hits, i, j := 0, 0, 0
	for i < len(rep) && j < len(tr) {
		switch {
		case rep[i] < tr[j]:
			i++
		case rep[i] > tr[j]:
			j++
		default:
			hits++
			i++
			j++
		}
	}
	return float64(hits) / float64(len(tr))
}
