package lsh

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/hll"
	"repro/internal/rng"
	"repro/internal/vector"
)

// randomBinaries returns n random dim-bit vectors.
func randomBinaries(n, dim int, seed uint64) []vector.Binary {
	r := rng.New(seed)
	pts := make([]vector.Binary, n)
	for i := range pts {
		b := vector.NewBinary(dim)
		for j := 0; j < dim; j++ {
			b.SetBit(j, r.Float64() < 0.5)
		}
		pts[i] = b
	}
	return pts
}

func mustBuild(t *testing.T, pts []vector.Binary, p Params) *Tables[vector.Binary] {
	t.Helper()
	tb, err := Build(pts, NewBitSampling(pts[0].Dim), p)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestBuildValidation(t *testing.T) {
	pts := randomBinaries(10, 64, 1)
	fam := NewBitSampling(64)
	cases := []Params{
		{K: 0, L: 5, HLLRegisters: 32},
		{K: 4, L: 0, HLLRegisters: 32},
		{K: 4, L: 5, HLLRegisters: 0},
		{K: 4, L: 5, HLLRegisters: 33},
		{K: 4, L: 5, HLLRegisters: 32, HLLThreshold: -1},
	}
	for i, p := range cases {
		if _, err := Build(pts, fam, p); err == nil {
			t.Errorf("case %d: Build accepted invalid params %+v", i, p)
		}
	}
	if _, err := Build(nil, fam, Params{K: 4, L: 5, HLLRegisters: 32}); err == nil {
		t.Error("Build accepted empty point set")
	}
}

func TestBuildBucketSizesSumToNL(t *testing.T) {
	const n, L = 500, 7
	pts := randomBinaries(n, 64, 2)
	tb := mustBuild(t, pts, Params{K: 4, L: L, HLLRegisters: 32, Seed: 1})
	total := 0
	for j := 0; j < tb.L(); j++ {
		for _, b := range tb.Table(j).Buckets {
			total += len(b.IDs)
		}
	}
	if total != n*L {
		t.Fatalf("total bucket entries = %d, want %d", total, n*L)
	}
}

func TestLookupFindsOwnBucket(t *testing.T) {
	// Querying with an indexed point must find it in every table.
	pts := randomBinaries(200, 64, 3)
	tb := mustBuild(t, pts, Params{K: 6, L: 10, HLLRegisters: 32, Seed: 2})
	for qi := 0; qi < 20; qi++ {
		bs := tb.Lookup(pts[qi])
		if len(bs) != 10 {
			t.Fatalf("point %d found in %d/10 of its own buckets", qi, len(bs))
		}
		for _, b := range bs {
			found := false
			for _, id := range b.IDs {
				if int(id) == qi {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("point %d missing from its own bucket", qi)
			}
		}
	}
}

func TestCollisionsMatchesBruteForce(t *testing.T) {
	pts := randomBinaries(300, 64, 4)
	tb := mustBuild(t, pts, Params{K: 3, L: 8, HLLRegisters: 32, Seed: 3})
	q := pts[0]
	bs := tb.Lookup(q)
	want := 0
	for j := 0; j < tb.L(); j++ {
		tab := tb.Table(j)
		key := tab.Hasher.Key(q)
		for i, p := range pts {
			if tab.Hasher.Key(p) == key {
				want++
			}
			_ = i
		}
	}
	if got := Collisions(bs); got != want {
		t.Fatalf("Collisions = %d, brute force = %d", got, want)
	}
}

func TestEstimateCandidatesAccuracy(t *testing.T) {
	// The HLL estimate of the distinct candidate count must be within a
	// few standard errors of the true distinct count.
	pts := randomBinaries(5000, 64, 5)
	tb := mustBuild(t, pts, Params{K: 2, L: 20, HLLRegisters: 128, Seed: 4})
	scratch := hll.New(128)
	for qi := 0; qi < 10; qi++ {
		q := pts[qi*13]
		bs := tb.Lookup(q)
		est := tb.EstimateCandidates(bs, scratch)
		truth := trueDistinct(bs)
		if truth == 0 {
			t.Fatal("query found no candidates; test setup broken")
		}
		rel := math.Abs(est-float64(truth)) / float64(truth)
		if rel > 0.30 {
			t.Errorf("query %d: estimate %v vs truth %d (rel err %v)", qi, est, truth, rel)
		}
	}
}

func trueDistinct(bs []*Bucket) int {
	seen := make(map[int32]bool)
	for _, b := range bs {
		for _, id := range b.IDs {
			seen[id] = true
		}
	}
	return len(seen)
}

func TestEstimateCandidatesNilScratchAllocates(t *testing.T) {
	pts := randomBinaries(100, 64, 6)
	tb := mustBuild(t, pts, Params{K: 2, L: 4, HLLRegisters: 32, Seed: 5})
	bs := tb.Lookup(pts[0])
	if est := tb.EstimateCandidates(bs, nil); est <= 0 {
		t.Fatalf("estimate = %v, want > 0", est)
	}
}

func TestEstimateCandidatesEmptyLookup(t *testing.T) {
	pts := randomBinaries(50, 64, 7)
	tb := mustBuild(t, pts, Params{K: 2, L: 4, HLLRegisters: 32, Seed: 6})
	if est := tb.EstimateCandidates(nil, nil); est != 0 {
		t.Fatalf("estimate over no buckets = %v, want 0", est)
	}
}

func TestHLLThresholdControlsSketching(t *testing.T) {
	// With threshold 1 every bucket is sketched; with a huge threshold
	// none are. Estimates must agree either way (on-demand trick).
	pts := randomBinaries(1000, 64, 8)
	all := mustBuild(t, pts, Params{K: 2, L: 6, HLLRegisters: 64, HLLThreshold: 1, Seed: 7})
	none := mustBuild(t, pts, Params{K: 2, L: 6, HLLRegisters: 64, HLLThreshold: 1 << 30, Seed: 7})

	sAll, sNone := all.Stats(), none.Stats()
	if sAll.SketchedBuckets != sAll.Buckets {
		t.Fatalf("threshold 1: %d/%d buckets sketched", sAll.SketchedBuckets, sAll.Buckets)
	}
	if sNone.SketchedBuckets != 0 {
		t.Fatalf("huge threshold: %d buckets sketched", sNone.SketchedBuckets)
	}

	for qi := 0; qi < 10; qi++ {
		q := pts[qi*7]
		estAll := all.EstimateCandidates(all.Lookup(q), nil)
		estNone := none.EstimateCandidates(none.Lookup(q), nil)
		if math.Abs(estAll-estNone) > 1e-9 {
			t.Fatalf("on-demand estimate %v differs from pre-built %v", estNone, estAll)
		}
	}
}

func TestDefaultThresholdIsM(t *testing.T) {
	pts := randomBinaries(2000, 64, 9)
	tb := mustBuild(t, pts, Params{K: 1, L: 3, HLLRegisters: 64, Seed: 8})
	for j := 0; j < tb.L(); j++ {
		for _, b := range tb.Table(j).Buckets {
			if len(b.IDs) >= 64 && b.Sketch == nil {
				t.Fatal("large bucket missing sketch")
			}
			if len(b.IDs) < 64 && b.Sketch != nil {
				t.Fatal("small bucket carries sketch despite default threshold")
			}
		}
	}
}

func TestBuildDeterministicAcrossRuns(t *testing.T) {
	pts := randomBinaries(300, 64, 10)
	p := Params{K: 4, L: 6, HLLRegisters: 32, Seed: 11}
	a := mustBuild(t, pts, p)
	b := mustBuild(t, pts, p)
	q := pts[42]
	ba, bb := a.Lookup(q), b.Lookup(q)
	if len(ba) != len(bb) {
		t.Fatalf("lookup sizes differ: %d vs %d (parallel build nondeterminism?)", len(ba), len(bb))
	}
	for i := range ba {
		if len(ba[i].IDs) != len(bb[i].IDs) {
			t.Fatal("bucket contents differ across identical builds")
		}
		for j := range ba[i].IDs {
			if ba[i].IDs[j] != bb[i].IDs[j] {
				t.Fatal("bucket id order differs across identical builds")
			}
		}
	}
}

func TestConcurrentLookups(t *testing.T) {
	pts := randomBinaries(500, 64, 12)
	tb := mustBuild(t, pts, Params{K: 3, L: 8, HLLRegisters: 64, Seed: 13})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scratch := hll.New(64)
			for i := 0; i < 100; i++ {
				q := pts[(w*100+i)%len(pts)]
				bs := tb.Lookup(q)
				_ = Collisions(bs)
				_ = tb.EstimateCandidates(bs, scratch)
			}
		}(w)
	}
	wg.Wait()
}

func TestStats(t *testing.T) {
	pts := randomBinaries(400, 64, 14)
	tb := mustBuild(t, pts, Params{K: 2, L: 5, HLLRegisters: 32, Seed: 15})
	s := tb.Stats()
	if s.Tables != 5 || s.Points != 400 {
		t.Fatalf("Stats basic fields wrong: %+v", s)
	}
	if s.Buckets == 0 || s.MaxBucket == 0 || s.AvgBucket <= 0 {
		t.Fatalf("Stats sizes wrong: %+v", s)
	}
	if s.SketchBytes != s.SketchedBuckets*32 {
		t.Fatalf("SketchBytes = %d, want %d", s.SketchBytes, s.SketchedBuckets*32)
	}
}

func TestNAndParams(t *testing.T) {
	pts := randomBinaries(64, 64, 16)
	tb := mustBuild(t, pts, Params{K: 2, L: 3, HLLRegisters: 32, Seed: 17})
	if tb.N() != 64 {
		t.Fatalf("N = %d", tb.N())
	}
	if got := tb.Params().HLLThreshold; got != 32 {
		t.Fatalf("default threshold = %d, want m", got)
	}
}

func TestCompactRewritesBuckets(t *testing.T) {
	pts := randomBinaries(300, 64, 9)
	p := Params{K: 4, L: 8, HLLRegisters: 32, HLLThreshold: 4, Seed: 9}
	tb := mustBuild(t, pts, p)

	// Drop every third point; survivors renumber by rank.
	remap := make([]int32, len(pts))
	live := 0
	for i := range remap {
		if i%3 == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = int32(live)
		live++
	}
	ct, err := tb.Compact(remap, live)
	if err != nil {
		t.Fatal(err)
	}
	if ct.N() != live {
		t.Fatalf("compacted N = %d, want %d", ct.N(), live)
	}
	if tb.N() != len(pts) {
		t.Fatalf("source tables mutated: N = %d", tb.N())
	}

	// Survivors must sit in the same buckets under the same keys with
	// rewritten ids; the per-table id multisets must be exactly the
	// remapped survivors, and sketches must be rebuilt per threshold.
	for j := 0; j < tb.L(); j++ {
		src, dst := tb.Table(j), ct.Table(j)
		if src.Hasher != dst.Hasher {
			t.Fatalf("table %d: hasher was not kept", j)
		}
		total := 0
		for key, b := range src.Buckets {
			var want []int32
			for _, id := range b.IDs {
				if nid := remap[id]; nid >= 0 {
					want = append(want, nid)
				}
			}
			nb := dst.Buckets[key]
			if len(want) == 0 {
				if nb != nil {
					t.Fatalf("table %d bucket %x should have been dropped", j, key)
				}
				continue
			}
			if nb == nil {
				t.Fatalf("table %d bucket %x vanished", j, key)
			}
			if !slices.Equal(nb.IDs, want) {
				t.Fatalf("table %d bucket %x ids = %v, want %v", j, key, nb.IDs, want)
			}
			total += len(nb.IDs)
			if len(want) >= p.HLLThreshold {
				if nb.Sketch == nil {
					t.Fatalf("table %d bucket %x missing rebuilt sketch", j, key)
				}
				fresh := hll.New(p.HLLRegisters)
				for _, id := range want {
					fresh.AddID(uint64(id))
				}
				if !slices.Equal(nb.Sketch.Registers(), fresh.Registers()) {
					t.Fatalf("table %d bucket %x sketch not rebuilt from live ids", j, key)
				}
			} else if nb.Sketch != nil {
				t.Fatalf("table %d bucket %x kept a sketch below threshold", j, key)
			}
		}
		if total != live {
			t.Fatalf("table %d holds %d ids after compaction, want %d", j, total, live)
		}
	}
}

func TestCompactValidation(t *testing.T) {
	pts := randomBinaries(20, 64, 10)
	tb := mustBuild(t, pts, Params{K: 3, L: 2, HLLRegisters: 32, Seed: 10})
	if _, err := tb.Compact(make([]int32, 5), 5); err == nil {
		t.Fatal("Compact accepted a short remap")
	}
	bad := make([]int32, 20)
	bad[0] = 25 // out of live range
	if _, err := tb.Compact(bad, 20); err == nil {
		t.Fatal("Compact accepted an out-of-range remap entry")
	}
	skewed := make([]int32, 20) // 20 zero entries: survivor count != live
	if _, err := tb.Compact(skewed, 5); err == nil {
		t.Fatal("Compact accepted a remap whose survivor count disagrees with live")
	}
	dup := make([]int32, 20) // two survivors sharing new id 0
	for i := range dup {
		dup[i] = -1
	}
	dup[3], dup[7] = 0, 0
	if _, err := tb.Compact(dup, 2); err == nil {
		t.Fatal("Compact accepted a remap with duplicate new ids")
	}
}

func TestLookupIntoReusesScratch(t *testing.T) {
	pts := randomBinaries(200, 64, 11)
	tb := mustBuild(t, pts, Params{K: 3, L: 10, HLLRegisters: 32, Seed: 11})
	buf := tb.LookupInto(pts[0], nil)
	if got, want := len(buf), len(tb.Lookup(pts[0])); got != want {
		t.Fatalf("LookupInto found %d buckets, Lookup %d", got, want)
	}
	buf2 := tb.LookupInto(pts[1], buf)
	if cap(buf) > 0 && len(buf2) > 0 && &buf2[0] != &buf[:1][0] {
		t.Fatal("LookupInto did not reuse the scratch backing array")
	}
	if got, want := len(buf2), len(tb.Lookup(pts[1])); got != want {
		t.Fatalf("reused LookupInto found %d buckets, want %d", got, want)
	}
}

// TestLookupKeysMatchesLookup: looking up precomputed keys — one per
// table, from each table's hasher — finds exactly Lookup's buckets.
func TestLookupKeysMatchesLookup(t *testing.T) {
	pts := randomBinaries(300, 64, 31)
	tb := mustBuild(t, pts, Params{K: 4, L: 9, HLLRegisters: 32, Seed: 32})
	var ks Keys
	for qi, q := range randomBinaries(40, 64, 33) {
		ks.Reset()
		for _, h := range tb.Hashers() {
			ks.Keys = append(ks.Keys, h.Key(q))
			ks.EndTable()
		}
		if got, want := tb.LookupKeys(&ks, nil), tb.Lookup(q); !slices.Equal(got, want) {
			t.Fatalf("query %d: LookupKeys found %d buckets, Lookup %d", qi, len(got), len(want))
		}
	}
}

// TestShareHashers: tables drawn from one seed are made to use the
// other's hasher objects; tables drawn from another seed are left alone.
func TestShareHashers(t *testing.T) {
	pts := randomBinaries(200, 64, 34)
	p := Params{K: 4, L: 6, HLLRegisters: 32, Seed: 35}
	a, b := mustBuild(t, pts[:100], p), mustBuild(t, pts[100:], p)
	p.Seed++
	c := mustBuild(t, pts[100:], p)

	if c.ShareHashers(a) {
		t.Fatal("tables drawn from another seed shared hashers")
	}
	if slices.Equal(c.Hashers(), a.Hashers()) {
		t.Fatal("refused ShareHashers still aliased hashers")
	}
	if slices.Equal(b.Hashers(), a.Hashers()) {
		t.Fatal("separately built tables alias hashers before ShareHashers")
	}
	before := b.Lookup(pts[150])
	if !b.ShareHashers(a) {
		t.Fatal("tables drawn from one seed did not share hashers")
	}
	if !slices.Equal(b.Hashers(), a.Hashers()) {
		t.Fatal("ShareHashers did not alias every table's hasher")
	}
	if after := b.Lookup(pts[150]); !slices.Equal(after, before) {
		t.Fatal("sharing hashers changed a lookup")
	}
}
