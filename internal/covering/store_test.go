package covering

import (
	"slices"
	"testing"

	"repro/internal/core"
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

func TestQueryRadiusNarrowing(t *testing.T) {
	pts, center := randomPoints(500, 200, 64, 5, 17)
	ix, err := New(pts, 5, Config{Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	hamming := func(a, b vector.Binary) float64 { return float64(vector.Hamming(a, b)) }
	queries := append([]vector.Binary{center}, pts[:10]...)
	for qi, q := range queries {
		for r := 0; r <= 5; r++ {
			out, _ := ix.QueryRadius(q, r)
			truth := core.GroundTruth(pts, hamming, q, float64(r))
			slices.Sort(out)
			if !slices.Equal(out, truth) {
				t.Fatalf("query %d r=%d: got %d ids, truth %d (narrowed report must stay exact)",
					qi, r, len(out), len(truth))
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
			t.Fatalf("query %d: out-of-range overrides did not resolve to the built radius", qi)
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
