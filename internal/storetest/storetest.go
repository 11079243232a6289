// Package storetest is the shared conformance suite for core.Store
// implementations. Every index kind the shard layer can serve — the
// plain core.Index, multiprobe.Index and covering.Index — must pass it,
// so the contract the sharding, compaction and persistence machinery
// relies on is pinned in one place instead of copy-pasted per package.
//
// Usage, from the implementation's own test package:
//
//	storetest.Run(t, storetest.Harness[vector.Dense]{
//		Name: "multiprobe-l2",
//		New:  func(t *testing.T, pts []vector.Dense, seed uint64) core.Store[vector.Dense] { ... },
//		Data: func(n int, seed uint64) []vector.Dense { ... },
//	})
package storetest

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lsh"
)

// Harness describes one store implementation under test.
type Harness[P any] struct {
	// Name labels the subtests.
	Name string
	// New builds the store under test over points with the given
	// construction seed. Equal (points, seed) pairs must build stores
	// that answer identically — the append-equivalence subtest builds
	// twice and compares.
	New func(t *testing.T, points []P, seed uint64) core.Store[P]
	// Data generates n deterministic points for the given seed.
	Data func(n int, seed uint64) []P
	// NewAlt optionally builds the same index over an alternate
	// verification store — typically the flat layout when New uses the
	// generic one. When set, the QuantEquivalence subtest pins the
	// store-swap guarantee: for equal (points, seed) the two builds must
	// answer id-identically, at build time and after Append and
	// CompactStore. Nil skips the subtest (e.g. an index hard-wired to
	// one layout).
	NewAlt func(t *testing.T, points []P, seed uint64) core.Store[P]
}

// batcher is the QueryBatch surface every store in this repository
// provides on top of the minimal core.Store contract.
type batcher[P any] interface {
	QueryBatch(queries []P, workers int) []core.BatchResult
}

// decider is the optional decision-only surface; when present it must
// agree with Query.
type decider[P any] interface {
	DecideStrategy(q P) (core.Strategy, core.QueryStats)
}

// lshQuerier is the forced-LSH surface. The compaction subtest prefers
// it over Query: compaction changes the cost-model inputs, so the hybrid
// decision may legitimately flip to the exact linear scan and report
// points the LSH structure misses — forcing LSH pins the structure
// itself.
type lshQuerier[P any] interface {
	QueryLSH(q P) ([]int32, core.QueryStats)
}

// query answers via forced LSH when the store provides it, else Query.
func query[P any](st core.Store[P], q P) []int32 {
	if l, ok := st.(lshQuerier[P]); ok {
		ids, _ := l.QueryLSH(q)
		return ids
	}
	ids, _ := st.Query(q)
	return ids
}

// Run exercises the core.Store contract: point exposure, id hygiene,
// append equivalence, batch alignment, decision consistency and the
// CompactStore rewrite semantics.
func Run[P any](t *testing.T, h Harness[P]) {
	t.Helper()
	if h.New == nil || h.Data == nil {
		t.Fatalf("storetest: harness %q must set New and Data", h.Name)
	}
	t.Run(h.Name, func(t *testing.T) {
		t.Run("PointsAligned", h.testPointsAligned)
		t.Run("QueryIDsValid", h.testQueryIDsValid)
		t.Run("AppendEquivalence", h.testAppendEquivalence)
		t.Run("AppendEmptyIsNoop", h.testAppendEmpty)
		t.Run("QueryBatchAlignment", h.testQueryBatchAlignment)
		t.Run("DecideStrategyConsistent", h.testDecideStrategy)
		t.Run("QueryKeysMatchesQuery", h.testQueryKeys)
		t.Run("CompactStore", h.testCompactStore)
		t.Run("CompactStoreRejectsBadLength", h.testCompactBadLength)
		t.Run("SetCostSwaps", h.testSetCostSwaps)
		t.Run("SetCostRejectsDegenerate", h.testSetCostRejects)
		t.Run("SetCostConcurrentWithQueries", h.testSetCostConcurrent)
		// Named for the quantized store it was written against; the ID
		// is kept so test histories and selections stay stable.
		t.Run("QuantEquivalence", h.testStoreSwapEquivalence)
	})
}

// queries returns a deterministic query set drawn from the data itself,
// so every store sees non-trivial result sets.
func (h Harness[P]) queries(data []P) []P {
	n := 20
	if n > len(data) {
		n = len(data)
	}
	qs := make([]P, 0, n)
	for i := 0; i < n; i++ {
		qs = append(qs, data[(i*13)%len(data)])
	}
	return qs
}

func sorted(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	slices.Sort(out)
	return out
}

// testQueryKeys pins the keyed entry point the shard layer answers
// through: QueryKeys over the store's own Keyer's keys answers exactly
// like Query, and a Keyer taken before Append and CompactStore still
// serves the grown and the compacted store (they keep the drawn hash
// functions), which is what lets the shard layer fix each shard's
// Keyer at construction.
func (h Harness[P]) testQueryKeys(t *testing.T) {
	data := h.Data(160, 9)
	st := h.New(t, data[:140], 7)
	keyer := st.Keyer()
	check := func(stage string, st core.Store[P]) {
		t.Helper()
		var ks lsh.Keys
		for qi, q := range h.queries(data) {
			keyer.Keys(q, -1, &ks)
			got, gstats := st.QueryKeys(q, &ks, -1)
			want, wstats := st.Query(q)
			if !slices.Equal(sorted(got), sorted(want)) || gstats.Strategy != wstats.Strategy {
				t.Fatalf("%s query %d: QueryKeys %d ids (%v), Query %d ids (%v)",
					stage, qi, len(got), gstats.Strategy, len(want), wstats.Strategy)
			}
		}
	}
	check("built", st)
	if err := st.Append(data[140:]); err != nil {
		t.Fatal(err)
	}
	check("appended", st)
	dead := make([]bool, st.N())
	for i := 0; i < len(dead); i += 3 {
		dead[i] = true
	}
	cs, err := st.CompactStore(dead)
	if err != nil {
		t.Fatal(err)
	}
	check("compacted", cs)
}

func (h Harness[P]) testPointsAligned(t *testing.T) {
	data := h.Data(120, 1)
	st := h.New(t, data, 7)
	if st.N() != len(data) {
		t.Fatalf("N() = %d, want %d", st.N(), len(data))
	}
	if got := st.Points(); len(got) != len(data) {
		t.Fatalf("Points() has %d entries, want %d", len(got), len(data))
	}
}

func (h Harness[P]) testQueryIDsValid(t *testing.T) {
	data := h.Data(150, 2)
	st := h.New(t, data, 7)
	for qi, q := range h.queries(data) {
		ids, stats := st.Query(q)
		seen := make(map[int32]struct{}, len(ids))
		for _, id := range ids {
			if id < 0 || int(id) >= st.N() {
				t.Fatalf("query %d: id %d outside [0,%d)", qi, id, st.N())
			}
			if _, dup := seen[id]; dup {
				t.Fatalf("query %d: duplicate id %d", qi, id)
			}
			seen[id] = struct{}{}
		}
		if stats.Results != len(ids) {
			t.Fatalf("query %d: stats.Results = %d for %d ids", qi, stats.Results, len(ids))
		}
	}
}

// testAppendEquivalence pins the append contract: ids are assigned from
// N upward and new points are hashed with the already-drawn functions,
// so an index grown by Append answers exactly like one built over the
// whole set with the same seed.
func (h Harness[P]) testAppendEquivalence(t *testing.T) {
	data := h.Data(160, 3)
	half := len(data) / 2
	grown := h.New(t, data[:half:half], 7)
	if err := grown.Append(data[half:]); err != nil {
		t.Fatal(err)
	}
	if grown.N() != len(data) {
		t.Fatalf("N() = %d after append, want %d", grown.N(), len(data))
	}
	whole := h.New(t, data, 7)
	for qi, q := range h.queries(data) {
		// Forced LSH (when available): the hybrid linear fallback answers
		// from the point slice alone and would mask diverging tables.
		a := query(grown, q)
		b := query(whole, q)
		if !slices.Equal(sorted(a), sorted(b)) {
			t.Fatalf("query %d: grown %v != whole %v", qi, sorted(a), sorted(b))
		}
	}
}

func (h Harness[P]) testAppendEmpty(t *testing.T) {
	data := h.Data(60, 4)
	st := h.New(t, data, 7)
	if err := st.Append(nil); err != nil {
		t.Fatalf("Append(nil) = %v", err)
	}
	if st.N() != len(data) {
		t.Fatalf("N() = %d after empty append, want %d", st.N(), len(data))
	}
}

func (h Harness[P]) testQueryBatchAlignment(t *testing.T) {
	data := h.Data(150, 5)
	st := h.New(t, data, 7)
	b, ok := st.(batcher[P])
	if !ok {
		t.Fatalf("%T does not provide QueryBatch", st)
	}
	queries := h.queries(data)
	results := b.QueryBatch(queries, 3)
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		want, _ := st.Query(queries[i])
		if !slices.Equal(sorted(r.IDs), sorted(want)) {
			t.Fatalf("batch result %d misaligned", i)
		}
	}
}

func (h Harness[P]) testDecideStrategy(t *testing.T) {
	data := h.Data(150, 6)
	st := h.New(t, data, 7)
	d, ok := st.(decider[P])
	if !ok {
		t.Fatalf("%T does not provide DecideStrategy", st)
	}
	for qi, q := range h.queries(data) {
		strat, ds := d.DecideStrategy(q)
		_, qs := st.Query(q)
		if strat != qs.Strategy {
			t.Fatalf("query %d: DecideStrategy %v, Query %v", qi, strat, qs.Strategy)
		}
		if ds.Collisions != qs.Collisions {
			t.Fatalf("query %d: decide collisions %d, query %d", qi, ds.Collisions, qs.Collisions)
		}
	}
}

// testCompactStore pins the rewrite contract: same concrete type back,
// survivors rank-renumbered, answers = pre-compaction answers minus the
// dead points, and the receiver left fully usable.
func (h Harness[P]) testCompactStore(t *testing.T) {
	data := h.Data(160, 8)
	st := h.New(t, data, 7)
	dead := make([]bool, len(data))
	remap := make([]int32, len(data))
	live := int32(0)
	for i := range dead {
		if i%4 == 0 {
			dead[i] = true
			remap[i] = -1
			continue
		}
		remap[i] = live
		live++
	}
	queries := h.queries(data)
	pre := make([][]int32, len(queries))
	for i, q := range queries {
		pre[i] = query(st, q)
	}

	compacted, err := st.CompactStore(dead)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reflect.TypeOf(compacted), reflect.TypeOf(st); got != want {
		t.Fatalf("CompactStore returned %v, want the receiver's concrete type %v", got, want)
	}
	if compacted.N() != int(live) {
		t.Fatalf("compacted N = %d, want %d", compacted.N(), live)
	}
	for qi, q := range queries {
		post := query(compacted, q)
		want := make([]int32, 0, len(pre[qi]))
		for _, id := range pre[qi] {
			if !dead[id] {
				want = append(want, remap[id])
			}
		}
		if !slices.Equal(sorted(post), sorted(want)) {
			t.Fatalf("query %d: compacted %v, want %v", qi, sorted(post), sorted(want))
		}
		// The receiver must still answer its original result set.
		again := query(st, q)
		if !slices.Equal(sorted(again), sorted(pre[qi])) {
			t.Fatalf("query %d: receiver answers changed after CompactStore", qi)
		}
	}
}

func (h Harness[P]) testCompactBadLength(t *testing.T) {
	data := h.Data(40, 9)
	st := h.New(t, data, 7)
	if _, err := st.CompactStore(make([]bool, len(data)+1)); err == nil {
		t.Fatal("CompactStore accepted a dead slice of the wrong length")
	}
}

// testStoreSwapEquivalence pins the store-swap guarantee: swapping the
// verification store (generic vs flat layout) must never change an
// answer. Both builds share (points, seed), so their hash
// tables, sketches and cost inputs are identical — any id divergence is
// a verification bug, not a legitimate strategy flip. Compared via both
// the hybrid Query (exercising whichever arm the shared decision picks,
// including the store's linear ScanRadius) and forced LSH when
// available (exercising VerifyRadius), at build time, after Append and
// after CompactStore. Every data point is a query: few (query, point)
// pairs sit near the radius in clustered data, and those are the pairs
// a store with a wrong distance or bound answers differently.
func (h Harness[P]) testStoreSwapEquivalence(t *testing.T) {
	if h.NewAlt == nil {
		t.Skip("harness has no alternative-store build")
	}
	data := h.Data(180, 13)
	half := len(data) * 2 / 3
	base := h.New(t, data[:half:half], 7)
	alt := h.NewAlt(t, data[:half:half], 7)

	compare := func(stage string, a, b core.Store[P]) {
		t.Helper()
		for qi, q := range data {
			ea, _ := a.Query(q)
			eb, _ := b.Query(q)
			if !slices.Equal(sorted(ea), sorted(eb)) {
				t.Fatalf("%s: query %d: default store %v != alternate %v", stage, qi, sorted(ea), sorted(eb))
			}
			if !slices.Equal(sorted(query(a, q)), sorted(query(b, q))) {
				t.Fatalf("%s: query %d: forced-LSH answers diverge", stage, qi)
			}
		}
	}
	compare("build", base, alt)

	if err := base.Append(data[half:]); err != nil {
		t.Fatal(err)
	}
	if err := alt.Append(data[half:]); err != nil {
		t.Fatal(err)
	}
	compare("append", base, alt)

	dead := make([]bool, len(data))
	for i := range dead {
		dead[i] = i%3 == 0
	}
	cb, err := base.CompactStore(dead)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := alt.CompactStore(dead)
	if err != nil {
		t.Fatal(err)
	}
	compare("compact", cb, ca)
}

// testSetCostSwaps pins the swap contract: a usable model is adopted
// exactly (Cost() returns it), and the decision follows the new
// constants — an absurdly expensive α forces the linear scan, an
// absurdly cheap one hands queries with fewer candidates than points
// back to the LSH path.
func (h Harness[P]) testSetCostSwaps(t *testing.T) {
	data := h.Data(150, 10)
	st := h.New(t, data, 7)
	d, ok := st.(decider[P])
	if !ok {
		t.Fatalf("%T does not provide DecideStrategy", st)
	}
	want := core.CostModel{Alpha: 2.5, Beta: 7.25}
	if err := st.SetCost(want); err != nil {
		t.Fatalf("SetCost(%+v) = %v", want, err)
	}
	if got := st.Cost(); got != want {
		t.Fatalf("Cost() = %+v after SetCost, want %+v", got, want)
	}
	// Queries drawn from the data collide at least with themselves, so a
	// huge α makes every LSHCost beat β·n and the decision must be LINEAR.
	if err := st.SetCost(core.CostModel{Alpha: 1e12, Beta: 1}); err != nil {
		t.Fatal(err)
	}
	q := h.queries(data)[0]
	if strat, _ := d.DecideStrategy(q); strat != core.StrategyLinear {
		t.Fatalf("strategy = %v under α = 1e12, want LINEAR", strat)
	}
	// With α ≈ 0 the comparison reduces to candidates vs n, so any query
	// whose candidate set is a strict subset of the data goes to LSH.
	if err := st.SetCost(core.CostModel{Alpha: 1e-12, Beta: 1}); err != nil {
		t.Fatal(err)
	}
	for _, q := range h.queries(data) {
		strat, qs := d.DecideStrategy(q)
		if qs.EstCandidates < float64(st.N()) {
			if strat != core.StrategyLSH {
				t.Fatalf("strategy = %v under α ≈ 0 with estimate %.1f < n = %d, want LSH",
					strat, qs.EstCandidates, st.N())
			}
			return
		}
	}
	t.Skip("every query's candidate estimate covered the whole store; LSH flip unobservable")
}

// testSetCostRejects pins the degenerate-model guard: models that are
// not Usable() must be refused and must leave the serving model
// untouched — a refitter bug can never load garbage constants.
func (h Harness[P]) testSetCostRejects(t *testing.T) {
	data := h.Data(60, 11)
	st := h.New(t, data, 7)
	before := st.Cost()
	for _, bad := range []core.CostModel{
		{},
		{Alpha: 0, Beta: 1},
		{Alpha: 1, Beta: 0},
		{Alpha: -1, Beta: 1},
		{Alpha: math.NaN(), Beta: 1},
		{Alpha: 1, Beta: math.Inf(1)},
	} {
		if err := st.SetCost(bad); err == nil {
			t.Fatalf("SetCost(%+v) accepted a degenerate model", bad)
		}
		if got := st.Cost(); got != before {
			t.Fatalf("Cost() = %+v after rejected SetCost(%+v), want untouched %+v", got, bad, before)
		}
	}
}

// testSetCostConcurrent exercises the one exemption from the
// single-writer contract: SetCost racing queries and other SetCost
// calls must stay safe (run under -race) and every query must observe
// one of the two models' decisions, never a torn mix.
func (h Harness[P]) testSetCostConcurrent(t *testing.T) {
	data := h.Data(150, 12)
	st := h.New(t, data, 7)
	queries := h.queries(data)
	models := [2]core.CostModel{
		{Alpha: 1e12, Beta: 1},
		{Alpha: 1e-12, Beta: 1},
	}
	// One synchronous swap first: the build-time model is gone before the
	// race starts, so whatever Cost() reports afterwards must be one of
	// the two racing models even if the scheduler starves the swappers.
	if err := st.SetCost(models[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := st.SetCost(models[(w+i)%2]); err != nil {
					t.Errorf("SetCost: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 40; i++ {
		for _, q := range queries {
			st.Query(q)
		}
	}
	close(stop)
	wg.Wait()
	if got := st.Cost(); got != models[0] && got != models[1] {
		t.Fatalf("Cost() = %+v after concurrent swaps, want one of %+v", got, models)
	}
}
