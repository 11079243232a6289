package covering

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/lsh"
	"repro/internal/storetest"
	"repro/internal/vector"
)

// The shard.Builder / compaction contracts — Append, CompactStore,
// DecideStrategy, QueryBatch — are pinned by the shared conformance
// suite; this file adds only the covering-specific surface (the
// per-call radius narrowing).

func TestStoreContract(t *testing.T) {
	storetest.Run(t, storetest.Harness[vector.Binary]{
		Name: "covering-hamming",
		New: func(t *testing.T, pts []vector.Binary, seed uint64) core.Store[vector.Binary] {
			ix, err := New(pts, 3, Config{HLLRegisters: 32, HLLThreshold: 8, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		Data: func(n int, seed uint64) []vector.Binary {
			pts, _ := randomPoints(n, n/3, 64, 3, seed)
			return pts
		},
		// NewAlt stays nil: the covering index is hard-wired to the
		// flat binary store, and the flat-vs-generic layout equivalence
		// is pinned by the core-hamming harness.
	})
}

// TestQueryRadiusNarrowing checks every r' in [0, r] against the ground
// truth on both entry points the radius crosses — QueryRadius and
// Keyer().Keys + QueryKeys — under one cost model that forces the LSH
// branch and one that forces the linear scan, so a radius dropped on
// either branch fails.
func TestQueryRadiusNarrowing(t *testing.T) {
	pts, center := randomPoints(500, 200, 64, 5, 17)
	ix, err := New(pts, 5, Config{Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	hamming := func(a, b vector.Binary) float64 { return float64(vector.Hamming(a, b)) }
	queries := append([]vector.Binary{center}, pts[:10]...)
	models := []struct {
		name string
		cost core.CostModel
		want core.Strategy
	}{
		{"lsh", core.CostModel{Alpha: 1e-6, Beta: 1}, core.StrategyLSH},
		{"linear", core.CostModel{Alpha: 1e6, Beta: 1}, core.StrategyLinear},
	}
	var ks lsh.Keys
	for _, m := range models {
		if err := ix.SetCost(m.cost); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			ix.Keyer().Keys(q, -1, &ks)
			for r := 0; r <= 5; r++ {
				truth := core.GroundTruth(pts, hamming, q, float64(r))
				out, stats := ix.QueryRadius(q, r)
				kout, kstats := ix.QueryKeys(q, &ks, r)
				for _, got := range []struct {
					path  string
					ids   []int32
					stats core.QueryStats
				}{{"QueryRadius", out, stats}, {"QueryKeys", kout, kstats}} {
					if got.stats.Strategy != m.want {
						t.Fatalf("%s model, query %d r=%d: %s chose %v", m.name, qi, r, got.path, got.stats.Strategy)
					}
					slices.Sort(got.ids)
					if !slices.Equal(got.ids, truth) {
						t.Fatalf("%s model, query %d r=%d: %s got %d ids, truth %d (narrowed report must stay exact)",
							m.name, qi, r, got.path, len(got.ids), len(truth))
					}
				}
			}
			// r < 0 and r > built radius both resolve to the built radius.
			a, _ := ix.QueryRadius(q, -1)
			b, _ := ix.Query(q)
			c, _ := ix.QueryRadius(q, 99)
			slices.Sort(a)
			slices.Sort(b)
			slices.Sort(c)
			if !slices.Equal(a, b) || !slices.Equal(c, b) {
				t.Fatalf("%s model, query %d: out-of-range overrides did not resolve to the built radius", m.name, qi)
			}
		}
	}
}

func TestAppendKeepsGuarantee(t *testing.T) {
	pts, center := randomPoints(600, 250, 64, 4, 21)
	half := len(pts) / 2
	ix, err := New(pts[:half:half], 4, Config{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Append(pts[half:]); err != nil {
		t.Fatal(err)
	}
	// Appended points are covered by the same drawn φ: zero false
	// negatives over the grown set.
	out, _ := ix.QueryLSH(center)
	truth := core.GroundTruth(pts, func(a, b vector.Binary) float64 {
		return float64(vector.Hamming(a, b))
	}, center, 4)
	if rec := core.Recall(out, truth); rec != 1 {
		t.Fatalf("recall %v after append, want 1", rec)
	}
	// Dimension mismatches are rejected.
	if err := ix.Append([]vector.Binary{vector.NewBinary(32)}); err == nil {
		t.Fatal("Append accepted a 32-bit point into a 64-bit index")
	}
}
