package pointstore

// Property tests for the flat stores: the SQ8-filtered + exact-recheck
// pipeline must report exactly the ids the exact-only store reports —
// on random data over a radius sweep, on adversarial near-boundary
// constructions, and after every mutation (Append in- and out-of-range,
// Compact, dimension adoption on an empty store).

import (
	"fmt"
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
func assertSameIDs(t *testing.T, stage string, exact, quant Store[vector.Dense], q vector.Dense, r float64) {
	t.Helper()
	a := exact.ScanRadius(q, r, nil)
	b := quant.ScanRadius(q, r, nil)
	if !slices.Equal(a, b) {
		t.Fatalf("%s r=%g: ScanRadius exact %v != quant %v", stage, r, a, b)
	}
	n := exact.Len()
	cands := make([]int32, 0, n/2+1)
	for i := 0; i < n; i += 2 {
		cands = append(cands, int32(i))
	}
	a = exact.VerifyRadius(q, cands, r, nil)
	b = quant.VerifyRadius(q, cands, r, nil)
	if !slices.Equal(a, b) {
		t.Fatalf("%s r=%g: VerifyRadius exact %v != quant %v", stage, r, a, b)
	}
}

// TestSQ8MatchesExactRandom is the headline property: on random data,
// the SQ8 store's answers equal the exact store's for every radius in a
// sweep from empty to all-inclusive result sets.
func TestSQ8MatchesExactRandom(t *testing.T) {
	for _, dim := range []int{3, 8, 32} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			pts := randDense(300, dim, uint64(dim))
			exact, err := NewFlatL2(pts, ModeOff)
			if err != nil {
				t.Fatal(err)
			}
			quant, err := NewFlatL2(pts, ModeSQ8)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range pts[:10] {
				for _, r := range radiusSweep(pts, q) {
					assertSameIDs(t, fmt.Sprintf("query %d", qi), exact, quant, q, r)
				}
			}
		})
	}
}

// TestSQ8NearBoundary places points at distances straddling r as
// tightly as float32 geometry allows — exactly r, r scaled by ±1 ulp-ish
// factors, and decode-cell-boundary coordinates — where a pre-filter
// with a broken bound would diverge first.
func TestSQ8NearBoundary(t *testing.T) {
	const dim = 8
	const r = 0.25
	rr := rng.New(99)
	q := make(vector.Dense, dim)
	for j := range q {
		q[j] = float32(rr.Float64())
	}
	var pts []vector.Dense
	// Points at distance r·f along random directions, f straddling 1.
	for _, f := range []float64{0.999, 0.999999, 1, 1.000001, 1.001, 0.5, 2} {
		for k := 0; k < 8; k++ {
			dir := make([]float64, dim)
			var norm float64
			for j := range dir {
				dir[j] = rr.Normal()
				norm += dir[j] * dir[j]
			}
			norm = math.Sqrt(norm)
			p := make(vector.Dense, dim)
			for j := range p {
				p[j] = q[j] + float32(dir[j]/norm*r*f)
			}
			pts = append(pts, p)
		}
	}
	// Background spread so the SQ8 fit has a non-degenerate range, plus
	// points sitting exactly on quantization cell boundaries of that fit.
	pts = append(pts, randDense(100, dim, 7)...)
	exact, err := NewFlatL2(pts, ModeOff)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := NewFlatL2(pts, ModeSQ8)
	if err != nil {
		t.Fatal(err)
	}
	cell := make(vector.Dense, dim)
	for j := 0; j < dim; j++ {
		// Half-way between two codes: the worst decode error per dim.
		cell[j] = quant.q.minv[j] + quant.q.scale[j]*127.5
	}
	if err := exact.Append([]vector.Dense{cell}); err != nil {
		t.Fatal(err)
	}
	if err := quant.Append([]vector.Dense{cell}); err != nil {
		t.Fatal(err)
	}
	for _, rad := range []float64{0, r * 0.5, r * 0.999999, r, r * 1.000001, r * 4} {
		assertSameIDs(t, "boundary", exact, quant, q, rad)
	}
	// The crafted cell-boundary point must be found at its own location.
	got := quant.ScanRadius(cell, 0, nil)
	if !slices.Contains(got, int32(quant.Len()-1)) {
		t.Fatalf("cell-boundary point missing from its own r=0 scan: %v", got)
	}
}

// TestSQ8Mutations walks the full mutation lifecycle and re-checks
// equivalence at every step: in-range Append (incremental encode, no
// refit), out-of-range Append (forced refit), Compact (fit carried,
// codes gathered).
func TestSQ8Mutations(t *testing.T) {
	pts := randDense(240, 12, 5)
	exact, err := NewFlatL2(pts[:120:120], ModeOff)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := NewFlatL2(pts[:120:120], ModeSQ8)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, e, z Store[vector.Dense]) {
		t.Helper()
		for _, q := range pts[:6] {
			for _, r := range radiusSweep(e.Slice(), q) {
				assertSameIDs(t, stage, e, z, q, r)
			}
		}
	}
	check("build", exact, quant)

	// In-range append: every value of pts is in [0,1), but the fitted
	// range is the observed min/max, so some rows may still force a
	// refit; assert only that equivalence holds.
	if err := exact.Append(pts[120:]); err != nil {
		t.Fatal(err)
	}
	if err := quant.Append(pts[120:]); err != nil {
		t.Fatal(err)
	}
	check("append", exact, quant)

	// Out-of-range append must refit: values far outside [0,1).
	far := randDense(20, 12, 6)
	for _, p := range far {
		for j := range p {
			p[j] = p[j]*10 - 5
		}
	}
	refitsBefore := quant.Stats().QuantRefits
	if err := exact.Append(far); err != nil {
		t.Fatal(err)
	}
	if err := quant.Append(far); err != nil {
		t.Fatal(err)
	}
	if got := quant.Stats().QuantRefits; got != refitsBefore+1 {
		t.Fatalf("QuantRefits = %d after out-of-range append, want %d", got, refitsBefore+1)
	}
	check("refit", exact, quant)

	// Compact a third away; the survivors' answers must stay equal and
	// the receivers must stay usable.
	n := exact.Len()
	dead := make([]bool, n)
	live := 0
	for i := range dead {
		if i%3 == 0 {
			dead[i] = true
		} else {
			live++
		}
	}
	ce, err := exact.Compact(dead, live)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := quant.Compact(dead, live)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Len() != live || cq.Len() != live {
		t.Fatalf("compacted lengths %d/%d, want %d", ce.Len(), cq.Len(), live)
	}
	check("compact", ce, cq)
	check("receiver-after-compact", exact, quant)
}

// TestFlatL2DimAdoption pins the empty-store lifecycle: a store built
// over zero points has no dimension, adopts the first Append's, refits
// the (dimensionless) SQ8 state, and answers correctly afterwards.
func TestFlatL2DimAdoption(t *testing.T) {
	for _, mode := range []Mode{ModeOff, ModeSQ8} {
		t.Run(mode.String(), func(t *testing.T) {
			st, err := NewFlatL2(nil, mode)
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
			exact, err := NewFlatL2(pts, ModeOff)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range pts[:4] {
				for _, r := range radiusSweep(pts, q) {
					assertSameIDs(t, "adopted", exact, st, q, r)
				}
			}
			if err := st.Append([]vector.Dense{make(vector.Dense, 4)}); err == nil {
				t.Fatal("Append accepted a wrong-dim point after adoption")
			}
		})
	}
}

// TestLUTDistMatchesDecode pins the ADC identity: the lookup-table sum
// must equal the decode-then-subtract quantized distance (same real
// arithmetic, modulo float32 rounding absorbed by qslack).
func TestLUTDistMatchesDecode(t *testing.T) {
	pts := randDense(60, 16, 11)
	st, err := NewFlatL2(pts, ModeSQ8)
	if err != nil {
		t.Fatal(err)
	}
	z := st.q
	q := pts[0]
	lut := z.buildLUT(q)
	defer z.putLUT(lut)
	for i := 0; i < st.Len(); i++ {
		codes := z.codes[i*st.dim : (i+1)*st.dim]
		var want float64
		for j, c := range codes {
			d := float64(q[j]) - (float64(z.minv[j]) + float64(z.scale[j])*float64(c))
			want += d * d
		}
		got := lutDistSq(lut, codes)
		if diff := math.Abs(got - want); diff > qslack*(want+1) {
			t.Fatalf("row %d: lut %g vs decode %g (diff %g)", i, got, want, diff)
		}
	}
}

// TestFlatL2Stats pins the counter accounting: every verified candidate
// is either rejected by the pre-filter or re-checked exactly, and the
// quantized copy is one byte per coordinate.
func TestFlatL2Stats(t *testing.T) {
	pts := randDense(200, 8, 13)
	st, err := NewFlatL2(pts, ModeSQ8)
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
	got := st.Stats()
	if got.Layout != "flat" || got.Quant != "sq8" || got.Kernel != vector.L2Kernel() {
		t.Fatalf("layout/quant/kernel = %q/%q/%q", got.Layout, got.Quant, got.Kernel)
	}
	if got.QuantBytes != int64(len(pts)*8) {
		t.Fatalf("QuantBytes = %d, want %d", got.QuantBytes, len(pts)*8)
	}
	if got.Verified != uint64(5*len(ids)) {
		t.Fatalf("Verified = %d, want %d", got.Verified, 5*len(ids))
	}
	if got.QuantRejected+got.QuantAccepted+got.QuantRechecked != got.Verified {
		t.Fatalf("rejected %d + accepted %d + rechecked %d != verified %d",
			got.QuantRejected, got.QuantAccepted, got.QuantRechecked, got.Verified)
	}
	if got.QuantBound <= 0 {
		t.Fatalf("QuantBound = %g, want > 0 for a non-degenerate fit", got.QuantBound)
	}
}

// TestFlatL2MatchesScalar pins both FlatL2 modes against the scalar
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
		for _, mode := range []Mode{ModeOff, ModeSQ8} {
			st, err := NewFlatL2(pts, mode)
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
						t.Fatalf("dim %d %s query %d r=%g: ScanRadius %v, want %v", dim, mode, qi, rad, got, wantScan)
					}
					if got := st.VerifyRadius(q, ids, rad, nil); !slices.Equal(got, wantVerify) {
						t.Fatalf("dim %d %s query %d r=%g: VerifyRadius %v, want %v", dim, mode, qi, rad, got, wantVerify)
					}
				}
			}
		}
	}
}

// TestFlatL2VerifyOutOfRangePanics: a candidate id outside the store is
// a caller bug and must panic, as an out-of-range index does, in both
// modes and in any position of a chunk — never read another row.
func TestFlatL2VerifyOutOfRangePanics(t *testing.T) {
	pts := randDense(70, 8, 3)
	for _, mode := range []Mode{ModeOff, ModeSQ8} {
		st, err := NewFlatL2(pts, mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]int32{{70}, {-1}, {0, 1, 2, 69, 70}, append(make([]int32, 66), 1<<30)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: VerifyRadius(%v...) did not panic", mode, bad[len(bad)-1])
					}
				}()
				st.VerifyRadius(pts[0], bad, 10, nil)
			}()
		}
	}
}

// TestFlatL2Validation pins the error paths: mixed dimensions at build
// and append, and mismatched Compact inputs.
func TestFlatL2Validation(t *testing.T) {
	if _, err := NewFlatL2([]vector.Dense{make(vector.Dense, 3), make(vector.Dense, 4)}, ModeOff); err == nil {
		t.Fatal("NewFlatL2 accepted mixed dims")
	}
	st, err := NewFlatL2(randDense(10, 3, 1), ModeSQ8)
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
	flat := EmptyFlatBinary(0)
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
