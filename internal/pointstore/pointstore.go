// Package pointstore owns point storage and candidate verification for
// the hybrid indexes. The paper's Algorithm 2 bottoms out in exactly two
// loops — the LINEAR arm and the LSH candidate filter — and both are
// "distance(point[id], q) <= r" over whatever layout the points live in.
// This package turns that layout into a first-class, swappable layer:
//
//   - Generic[P] wraps a plain []P plus a distance function — the
//     pre-refactor behavior, used by the metrics without a specialized
//     layout (L1, cosine, angular, Jaccard).
//   - FlatL2 stores Dense points struct-of-arrays (one contiguous
//     []float32, dim columns) and verifies with squared-distance kernels.
//   - FlatBinary stores Binary points as one contiguous []uint64 word
//     matrix with an unrolled popcount kernel (Hamming).
//
// Every store implements the same Store[P] contract: batch
// VerifyRadius over candidate id lists, ScanRadius for the linear arm,
// Append/Compact keeping the layout coherent, and Stats for
// observability. core.Index, covering.Index and (through core) the
// multi-probe and sharded modes all verify through this layer.
package pointstore

import (
	"fmt"
	"sync/atomic"

	"repro/internal/distance"
)

// Mode is the former quantization selector of NewFlatL2. Exact storage
// is the only layout left, so ModeOff is its only value; the type and
// NewFlatL2's Mode argument are kept only so the perfbench harness,
// which calls NewFlatL2(points, ModeOff), keeps compiling.
type Mode uint8

// ModeOff stores exact values only.
const ModeOff Mode = 0

// Stats is a point-in-time snapshot of one store's layout and
// verification counters. The counters are cumulative since the store was
// built (Compact starts a fresh store and fresh counters).
type Stats struct {
	// Layout is "generic" or "flat".
	Layout string `json:"layout"`
	// Kernel names the distance kernel verification runs on: "avx2"
	// when a FlatL2 store computes exact L2 distances with the four-row
	// assembly kernel, "generic" for the pure-Go loops (every other
	// layout and metric, and FlatL2 on a CPU or GOARCH without AVX2 —
	// the same answers, several times slower per candidate).
	Kernel string `json:"kernel"`
	// Points is the stored point count.
	Points int `json:"points"`
	// Verified counts candidates that entered radius verification
	// (VerifyRadius ids plus ScanRadius points).
	Verified uint64 `json:"verified"`
}

// Add accumulates other's point and verification counts into s (for
// aggregating shard stats); layout and kernel are taken from other when
// s is empty.
func (s *Stats) Add(other Stats) {
	if s.Layout == "" {
		s.Layout, s.Kernel = other.Layout, other.Kernel
	}
	s.Points += other.Points
	s.Verified += other.Verified
}

// Store is the storage + verification contract. Reads (At, Slice,
// VerifyRadius, ScanRadius, Stats) are safe concurrently; Append and
// Compact follow the single-writer rule of the index that owns the
// store.
type Store[P any] interface {
	// Len returns the stored point count.
	Len() int
	// At returns the point with the given id.
	At(id int32) P
	// Slice exposes all points, id-aligned (read-only; for
	// serialization and compaction hand-off).
	Slice() []P
	// Append adds points, assigning ids upward from Len.
	Append(pts []P) error
	// Compact returns a new store holding only the points with
	// dead[id] == false, renumbered by rank among survivors; live is the
	// expected survivor count.
	Compact(dead []bool, live int) (Store[P], error)
	// VerifyRadius appends to out the ids (in input order) whose
	// distance to q is at most r.
	VerifyRadius(q P, ids []int32, r float64, out []int32) []int32
	// ScanRadius appends to out every stored id within r of q (the
	// LINEAR arm).
	ScanRadius(q P, r float64, out []int32) []int32
	// Stats returns a snapshot of the layout and verification counters.
	Stats() Stats
}

// Builder constructs a store over an initial point set. Index
// configuration carries a Builder so each metric picks its layout.
type Builder[P any] func(points []P) (Store[P], error)

// Generic wraps a plain []P and a distance function: the layout-agnostic
// fallback store. Verification is one distance call per candidate,
// exactly the pre-refactor code path.
type Generic[P any] struct {
	pts      []P
	dist     distance.Func[P]
	verified atomic.Uint64
}

// GenericBuilder returns a Builder producing Generic stores over dist.
func GenericBuilder[P any](dist distance.Func[P]) Builder[P] {
	return func(points []P) (Store[P], error) {
		return NewGeneric(points, dist), nil
	}
}

// NewGeneric builds a Generic store. The slice is aliased, not copied
// (matching the historical Index behavior for unspecialized metrics).
func NewGeneric[P any](points []P, dist distance.Func[P]) *Generic[P] {
	return &Generic[P]{pts: points, dist: dist}
}

// Len returns the stored point count.
func (g *Generic[P]) Len() int { return len(g.pts) }

// At returns point id.
func (g *Generic[P]) At(id int32) P { return g.pts[id] }

// Slice exposes the backing point slice.
func (g *Generic[P]) Slice() []P { return g.pts }

// Append adds points.
func (g *Generic[P]) Append(pts []P) error {
	g.pts = append(g.pts, pts...)
	return nil
}

// Compact returns a new Generic over the survivors.
func (g *Generic[P]) Compact(dead []bool, live int) (Store[P], error) {
	if len(dead) != len(g.pts) {
		return nil, fmt.Errorf("pointstore: Compact with %d dead flags for %d points", len(dead), len(g.pts))
	}
	pts := make([]P, 0, live)
	for i := range g.pts {
		if !dead[i] {
			pts = append(pts, g.pts[i])
		}
	}
	return NewGeneric(pts, g.dist), nil
}

// VerifyRadius filters ids by exact distance.
func (g *Generic[P]) VerifyRadius(q P, ids []int32, r float64, out []int32) []int32 {
	for _, id := range ids {
		if g.dist(g.pts[id], q) <= r {
			out = append(out, id)
		}
	}
	g.verified.Add(uint64(len(ids)))
	return out
}

// ScanRadius scans all points.
func (g *Generic[P]) ScanRadius(q P, r float64, out []int32) []int32 {
	for i := range g.pts {
		if g.dist(g.pts[i], q) <= r {
			out = append(out, int32(i))
		}
	}
	g.verified.Add(uint64(len(g.pts)))
	return out
}

// Stats returns the layout and counters.
func (g *Generic[P]) Stats() Stats {
	return Stats{
		Layout:   "generic",
		Kernel:   "generic",
		Points:   len(g.pts),
		Verified: g.verified.Load(),
	}
}
