package pointstore

// Property tests for the flat stores: FlatL2 and FlatBinary must report
// exactly the ids their scalar references report — over radius sweeps,
// across verification chunk boundaries, and after every mutation
// (Append, Compact, dimension adoption on an empty store).

import (
	"math"
	"slices"
	"testing"

	"repro/internal/distance"
	"repro/internal/rng"
	"repro/internal/vector"
)

// randDense generates n uniform points in [0,1)^dim.
func randDense(n, dim int, seed uint64) []vector.Dense {
	r := rng.New(seed)
	pts := make([]vector.Dense, n)
	for i := range pts {
		p := make(vector.Dense, dim)
		for j := range p {
			p[j] = float32(r.Float64())
		}
		pts[i] = p
	}
	return pts
}

// randBinary generates n random dim-bit codes.
func randBinary(n, dim int, seed uint64) []vector.Binary {
	r := rng.New(seed)
	pts := make([]vector.Binary, n)
	for i := range pts {
		b := vector.NewBinary(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.5 {
				b.SetBit(j, true)
			}
		}
		pts[i] = b
	}
	return pts
}

// radiusSweep picks radii spanning empty to near-total result sets from
// the pairwise distance distribution of (q, pts).
func radiusSweep(pts []vector.Dense, q vector.Dense) []float64 {
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = math.Sqrt(vector.L2Sq(q, p))
	}
	slices.Sort(ds)
	pick := func(frac float64) float64 { return ds[int(frac*float64(len(ds)-1))] }
	return []float64{0, pick(0.01), pick(0.1), pick(0.5), pick(0.9), ds[len(ds)-1]}
}

// assertSameIDs fails unless the two stores answer identically for the
// given query and radius, via both ScanRadius and VerifyRadius over a
// deterministic candidate subset. Both stores preserve candidate order,
// so the comparison is element-wise.
func assertSameIDs(t *testing.T, stage string, want, got Store[vector.Dense], q vector.Dense, r float64) {
	t.Helper()
	a := want.ScanRadius(q, r, nil)
	b := got.ScanRadius(q, r, nil)
	if !slices.Equal(a, b) {
		t.Fatalf("%s r=%g: ScanRadius want %v, got %v", stage, r, a, b)
	}
	n := want.Len()
	cands := make([]int32, 0, n/2+1)
	for i := 0; i < n; i += 2 {
		cands = append(cands, int32(i))
	}
	a = want.VerifyRadius(q, cands, r, nil)
	b = got.VerifyRadius(q, cands, r, nil)
	if !slices.Equal(a, b) {
		t.Fatalf("%s r=%g: VerifyRadius want %v, got %v", stage, r, a, b)
	}
}

// TestFlatL2DimAdoption pins the empty-store lifecycle: a store built
// over zero points has no dimension, adopts the first Append's, and
// answers like a store built over the same points afterwards.
func TestFlatL2DimAdoption(t *testing.T) {
	t.Run("off", func(t *testing.T) {
		st, err := NewFlatL2(nil, ModeOff)
		if err != nil {
			t.Fatal(err)
		}
		if st.Dim() != 0 || st.Len() != 0 {
			t.Fatalf("empty store dim=%d n=%d", st.Dim(), st.Len())
		}
		// Queries against the empty store are no-ops, any dim.
		if got := st.ScanRadius(make(vector.Dense, 10), 1, nil); len(got) != 0 {
			t.Fatalf("empty ScanRadius returned %v", got)
		}
		pts := randDense(50, 10, 3)
		if err := st.Append(pts); err != nil {
			t.Fatal(err)
		}
		if st.Dim() != 10 {
			t.Fatalf("dim = %d after adoption, want 10", st.Dim())
		}
		want, err := NewFlatL2(pts, ModeOff)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range pts[:4] {
			for _, r := range radiusSweep(pts, q) {
				assertSameIDs(t, "adopted", want, st, q, r)
			}
		}
		if err := st.Append([]vector.Dense{make(vector.Dense, 4)}); err == nil {
			t.Fatal("Append accepted a wrong-dim point after adoption")
		}
	})
}

// TestFlatL2Stats pins the counter accounting: every candidate that
// enters VerifyRadius or ScanRadius is counted once.
func TestFlatL2Stats(t *testing.T) {
	pts := randDense(200, 8, 13)
	st, err := NewFlatL2(pts, ModeOff)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int32, st.Len())
	for i := range ids {
		ids[i] = int32(i)
	}
	for _, q := range pts[:5] {
		st.VerifyRadius(q, ids, 0.3, nil)
	}
	st.ScanRadius(pts[0], 0.3, nil)
	got := st.Stats()
	if got.Layout != "flat" || got.Kernel != vector.L2Kernel() {
		t.Fatalf("layout/kernel = %q/%q", got.Layout, got.Kernel)
	}
	if got.Points != len(pts) {
		t.Fatalf("Points = %d, want %d", got.Points, len(pts))
	}
	if want := uint64(6 * len(pts)); got.Verified != want {
		t.Fatalf("Verified = %d, want %d", got.Verified, want)
	}
}

// TestFlatL2MatchesScalar pins FlatL2 against the scalar
// reference — vector.L2Sq(q, point) ≤ r² per candidate, in input order —
// over candidate lists that cross the verification chunk boundary, hold
// duplicates and run backwards, at dims with and without a dim%4 tail.
func TestFlatL2MatchesScalar(t *testing.T) {
	for _, dim := range []int{1, 3, 4, 5, 8, 33, 128} {
		pts := randDense(300, dim, uint64(100+dim))
		r := rng.New(uint64(dim))
		ids := make([]int32, 0, 2*len(pts))
		for i := len(pts) - 1; i >= 0; i-- {
			ids = append(ids, int32(i))
		}
		for i := 0; i < len(pts); i++ {
			ids = append(ids, int32(r.Intn(len(pts))))
		}
		st, err := NewFlatL2(pts, ModeOff)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range pts[:4] {
			radii := radiusSweep(pts, q)
			// A radius exactly at one point's distance.
			radii = append(radii, math.Sqrt(vector.L2Sq(q, pts[len(pts)-1])))
			for _, rad := range radii {
				var wantScan, wantVerify []int32
				for i, p := range pts {
					if vector.L2Sq(q, p) <= rad*rad {
						wantScan = append(wantScan, int32(i))
					}
				}
				for _, id := range ids {
					if vector.L2Sq(q, pts[id]) <= rad*rad {
						wantVerify = append(wantVerify, id)
					}
				}
				if got := st.ScanRadius(q, rad, nil); !slices.Equal(got, wantScan) {
					t.Fatalf("dim %d query %d r=%g: ScanRadius %v, want %v", dim, qi, rad, got, wantScan)
				}
				if got := st.VerifyRadius(q, ids, rad, nil); !slices.Equal(got, wantVerify) {
					t.Fatalf("dim %d query %d r=%g: VerifyRadius %v, want %v", dim, qi, rad, got, wantVerify)
				}
			}
		}
	}
}

// TestFlatL2VerifyOutOfRangePanics: a candidate id outside the store is
// a caller bug and must panic, as an out-of-range index does, in any
// position of a chunk — never read another row.
func TestFlatL2VerifyOutOfRangePanics(t *testing.T) {
	pts := randDense(70, 8, 3)
	st, err := NewFlatL2(pts, ModeOff)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int32{{70}, {-1}, {0, 1, 2, 69, 70}, append(make([]int32, 66), 1<<30)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("VerifyRadius(%v...) did not panic", bad[len(bad)-1])
				}
			}()
			st.VerifyRadius(pts[0], bad, 10, nil)
		}()
	}
}

// TestFlatL2Validation pins the error paths: mixed dimensions at build
// and append, and mismatched Compact inputs.
func TestFlatL2Validation(t *testing.T) {
	if _, err := NewFlatL2([]vector.Dense{make(vector.Dense, 3), make(vector.Dense, 4)}, ModeOff); err == nil {
		t.Fatal("NewFlatL2 accepted mixed dims")
	}
	st, err := NewFlatL2(randDense(10, 3, 1), ModeOff)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]vector.Dense{make(vector.Dense, 5)}); err == nil {
		t.Fatal("Append accepted a wrong-dim point")
	}
	if _, err := st.Compact(make([]bool, 3), 1); err == nil {
		t.Fatal("Compact accepted a wrong-length dead slice")
	}
	if _, err := st.Compact(make([]bool, 10), 99); err == nil {
		t.Fatal("Compact accepted a wrong live count")
	}
}

// TestFlatBinaryMatchesGeneric pins the word-level Hamming store
// against the generic exact store over a full radius sweep.
func TestFlatBinaryMatchesGeneric(t *testing.T) {
	pts := randBinary(200, 96, 17)
	flat, err := NewFlatBinary(pts)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGeneric(pts, distance.Hamming)
	cands := make([]int32, 0, len(pts)/2)
	for i := 0; i < len(pts); i += 2 {
		cands = append(cands, int32(i))
	}
	for _, q := range pts[:8] {
		for _, r := range []float64{0, 8, 24, 48, 96} {
			a := gen.ScanRadius(q, r, nil)
			b := flat.ScanRadius(q, r, nil)
			if !slices.Equal(a, b) {
				t.Fatalf("r=%g: ScanRadius generic %v != flat %v", r, a, b)
			}
			a = gen.VerifyRadius(q, cands, r, nil)
			b = flat.VerifyRadius(q, cands, r, nil)
			if !slices.Equal(a, b) {
				t.Fatalf("r=%g: VerifyRadius generic %v != flat %v", r, a, b)
			}
		}
	}
}

// TestFlatBinaryMutations pins append (including dimension adoption on
// the empty store) and compact against the generic store.
func TestFlatBinaryMutations(t *testing.T) {
	pts := randBinary(120, 64, 19)
	flat, err := NewFlatBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Append(pts[:60]); err != nil {
		t.Fatal(err)
	}
	if flat.Dim() != 64 {
		t.Fatalf("dim = %d after adoption, want 64", flat.Dim())
	}
	if err := flat.Append(pts[60:]); err != nil {
		t.Fatal(err)
	}
	gen := NewGeneric(pts, distance.Hamming)
	compare := func(stage string, g, f Store[vector.Binary]) {
		t.Helper()
		for _, q := range pts[:5] {
			for _, r := range []float64{0, 6, 20, 64} {
				a := g.ScanRadius(q, r, nil)
				b := f.ScanRadius(q, r, nil)
				if !slices.Equal(a, b) {
					t.Fatalf("%s r=%g: generic %v != flat %v", stage, r, a, b)
				}
			}
		}
	}
	compare("grown", gen, flat)

	dead := make([]bool, len(pts))
	live := 0
	for i := range dead {
		if i%4 == 1 {
			dead[i] = true
		} else {
			live++
		}
	}
	cg, err := gen.Compact(dead, live)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := flat.Compact(dead, live)
	if err != nil {
		t.Fatal(err)
	}
	compare("compacted", cg, cf)
}
