package pointstore

import (
	"fmt"
	"sync/atomic"

	"repro/internal/vector"
)

// FlatL2 stores Dense points struct-of-arrays: one contiguous []float32
// of n rows × dim columns, plus id-aligned aliasing Dense headers for
// the Slice/At accessors. Radius verification compares squared distances
// against r² with the batch kernel vector.L2SqToMany — no per-candidate
// math.Sqrt, no pointer chase per point.
type FlatL2 struct {
	dim  int
	n    int
	flat []float32      // n*dim, row-major
	hdrs []vector.Dense // hdrs[i] aliases flat row i

	verified atomic.Uint64
}

// DenseL2Builder returns a Builder producing FlatL2 stores. This is the
// layout behind every L2 index.
func DenseL2Builder() Builder[vector.Dense] {
	return func(points []vector.Dense) (Store[vector.Dense], error) {
		return NewFlatL2(points, ModeOff)
	}
}

// NewFlatL2 copies points into a fresh struct-of-arrays store. All
// points must share one dimension. The Mode argument is ignored (ModeOff
// is the only mode; see Mode).
func NewFlatL2(points []vector.Dense, _ Mode) (*FlatL2, error) {
	dim := 0
	if len(points) > 0 {
		dim = len(points[0])
	}
	s := &FlatL2{dim: dim, n: len(points), flat: make([]float32, 0, len(points)*dim)}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("pointstore: point %d has dim %d, want %d", i, len(p), dim)
		}
		s.flat = append(s.flat, p...)
	}
	s.rebuildHeaders()
	return s, nil
}

// rebuildHeaders re-derives the id-aligned aliasing Dense headers after
// the flat backing moved or grew.
func (s *FlatL2) rebuildHeaders() {
	if cap(s.hdrs) < s.n {
		s.hdrs = make([]vector.Dense, s.n)
	}
	s.hdrs = s.hdrs[:s.n]
	for i := 0; i < s.n; i++ {
		s.hdrs[i] = s.flat[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
	}
}

// Len returns the stored point count.
func (s *FlatL2) Len() int { return s.n }

// Dim returns the point dimension.
func (s *FlatL2) Dim() int { return s.dim }

// At returns the point with the given id (an aliasing header into the
// flat backing; treat as read-only).
func (s *FlatL2) At(id int32) vector.Dense { return s.hdrs[id] }

// Slice exposes the id-aligned point headers (read-only).
func (s *FlatL2) Slice() []vector.Dense { return s.hdrs }

// Append adds points.
func (s *FlatL2) Append(pts []vector.Dense) error {
	if len(pts) == 0 {
		return nil
	}
	if s.n == 0 && s.dim == 0 {
		// A store built from zero points has no dimension yet; it
		// adopts the first batch's.
		s.dim = len(pts[0])
	}
	for i, p := range pts {
		if len(p) != s.dim {
			return fmt.Errorf("pointstore: Append point %d has dim %d, want %d", i, len(p), s.dim)
		}
	}
	for _, p := range pts {
		s.flat = append(s.flat, p...)
	}
	s.n += len(pts)
	s.rebuildHeaders()
	return nil
}

// Compact returns a new FlatL2 over the survivors.
func (s *FlatL2) Compact(dead []bool, live int) (Store[vector.Dense], error) {
	if len(dead) != s.n {
		return nil, fmt.Errorf("pointstore: Compact with %d dead flags for %d points", len(dead), s.n)
	}
	ns := &FlatL2{dim: s.dim, n: live, flat: make([]float32, 0, live*s.dim)}
	for i := 0; i < s.n; i++ {
		if !dead[i] {
			ns.flat = append(ns.flat, s.flat[i*s.dim:(i+1)*s.dim]...)
		}
	}
	if len(ns.flat) != live*s.dim {
		return nil, fmt.Errorf("pointstore: Compact expected %d survivors, found %d", live, len(ns.flat)/max(s.dim, 1))
	}
	ns.rebuildHeaders()
	return ns, nil
}

// verifyChunk is how many candidates one batch of the exact kernel
// covers: the distances of a chunk live on the stack.
const verifyChunk = 64

// VerifyRadius filters the candidate ids: the reported set is exactly
// {id : L2(point[id], q) ≤ r}, in input order. Exact distances come
// from vector.L2SqToMany a chunk at a time, so they run on the four-row
// AVX2 kernel where the CPU has it; an id outside the store panics
// there before any row is read.
func (s *FlatL2) VerifyRadius(q vector.Dense, ids []int32, r float64, out []int32) []int32 {
	if s.n > 0 && len(q) != s.dim {
		panic(fmt.Sprintf("pointstore: VerifyRadius query dim %d, want %d", len(q), s.dim))
	}
	s.verified.Add(uint64(len(ids)))
	v := verifier{s: s, q: q, r2: r * r}
	for len(ids) > 0 {
		c := ids[:min(len(ids), verifyChunk)]
		out = v.chunk(c, out)
		ids = ids[len(c):]
	}
	return out
}

// ScanRadius scans every stored row (the LINEAR arm). The scan walks
// the flat backing sequentially in id order, a chunk of consecutive
// rows per batch of the exact kernel.
func (s *FlatL2) ScanRadius(q vector.Dense, r float64, out []int32) []int32 {
	if s.n > 0 && len(q) != s.dim {
		panic(fmt.Sprintf("pointstore: ScanRadius query dim %d, want %d", len(q), s.dim))
	}
	s.verified.Add(uint64(s.n))
	v := verifier{s: s, q: q, r2: r * r}
	var ids [verifyChunk]int32
	for base := 0; base < s.n; base += verifyChunk {
		c := ids[:min(s.n-base, verifyChunk)]
		for k := range c {
			c[k] = int32(base + k)
		}
		out = v.chunk(c, out)
	}
	return out
}

// verifier carries one VerifyRadius/ScanRadius call's state across its
// chunks: the store, the query and the squared radius.
type verifier struct {
	s  *FlatL2
	q  vector.Dense
	r2 float64
}

// chunk appends to out, in input order, the ids of c (at most
// verifyChunk of them) within r of the query.
func (v *verifier) chunk(c []int32, out []int32) []int32 {
	var d [verifyChunk]float64
	vector.L2SqToMany(d[:len(c)], v.q, v.s.flat, v.s.dim, c)
	for k, id := range c {
		if d[k] <= v.r2 {
			out = append(out, id)
		}
	}
	return out
}

// Stats returns the layout and counters.
func (s *FlatL2) Stats() Stats {
	return Stats{
		Layout:   "flat",
		Kernel:   vector.L2Kernel(),
		Points:   s.n,
		Verified: s.verified.Load(),
	}
}
