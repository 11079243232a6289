package main

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/vector"
)

// truth is the benchmark's own copy of every point the index has held,
// by id, with the ids deleted so far. Answers are checked against it by
// exact distance, never against anything the server computed.
type truth struct {
	mu     sync.RWMutex
	rows   []vector.Dense // rows[id]; nil until an append is acknowledged
	dead   []bool
	r2     float64
	stamps sync.Pool // *stampSet, for duplicate detection
}

type stampSet struct {
	seen []uint32
	gen  uint32
}

func newTruth(points []vector.Dense, radius float64) *truth {
	t := &truth{rows: slices.Clone(points), dead: make([]bool, len(points)), r2: radius * radius}
	t.stamps.New = func() any { return &stampSet{} }
	return t
}

// add records acknowledged appends.
func (t *truth) add(ids []int32, pts []vector.Dense) error {
	if len(ids) != len(pts) {
		return fmt.Errorf("append acknowledged %d ids for %d points", len(ids), len(pts))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, id := range ids {
		for int(id) >= len(t.rows) {
			t.rows = append(t.rows, nil)
			t.dead = append(t.dead, false)
		}
		if t.rows[id] != nil {
			return fmt.Errorf("append reused id %d", id)
		}
		t.rows[id] = pts[i]
	}
	return nil
}

func (t *truth) kill(ids []int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		t.dead[id] = true
	}
}

// within reports whether a and b lie within the radius. The tolerance
// absorbs summation-order rounding between this loop and the server's
// unrolled kernels; it is far below any real distance gap.
func (t *truth) within(a, b vector.Dense) bool {
	var s float64
	for j := range a {
		d := float64(a[j]) - float64(b[j])
		s += d * d
	}
	return s <= t.r2*(1+1e-9)
}

// pending is an id a server reported before the benchmark saw the
// append that created it (a follower can replay a frame before the
// writer's acknowledgement reaches the client).
type pending struct {
	q  vector.Dense
	id int32
}

// checkAnswer verifies one reported id set for query q: ids are
// distinct, known, and within the radius; with live set, no id may be
// deleted. Unknown ids go to later when it is non-nil, else fail.
func (t *truth) checkAnswer(q vector.Dense, ids []int32, live bool, later func(pending)) error {
	st := t.stamps.Get().(*stampSet)
	defer t.stamps.Put(st)
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(st.seen) < len(t.rows)+1024 {
		st.seen = make([]uint32, len(t.rows)+4096)
		st.gen = 0
	}
	st.gen++
	for _, id := range ids {
		if id < 0 {
			return fmt.Errorf("negative id %d", id)
		}
		if int(id) >= len(t.rows) || t.rows[id] == nil {
			if later == nil {
				return fmt.Errorf("unknown id %d", id)
			}
			later(pending{q, id})
			continue
		}
		if st.seen[id] == st.gen {
			return fmt.Errorf("id %d reported twice", id)
		}
		st.seen[id] = st.gen
		if live && t.dead[id] {
			return fmt.Errorf("deleted id %d reported", id)
		}
		if !t.within(q, t.rows[id]) {
			return fmt.Errorf("id %d lies outside the radius", id)
		}
	}
	return nil
}

// checkPending re-checks deferred ids once every append is known.
func (t *truth) checkPending(ps []pending) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, p := range ps {
		if int(p.id) >= len(t.rows) || t.rows[p.id] == nil {
			return fmt.Errorf("id %d was never appended", p.id)
		}
		if !t.within(p.q, t.rows[p.id]) {
			return fmt.Errorf("id %d lies outside the radius", p.id)
		}
	}
	return nil
}

// exact returns the live ids within the radius of q by linear scan.
func (t *truth) exact(q vector.Dense) []int32 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []int32
	for id, p := range t.rows {
		if p != nil && !t.dead[id] && t.within(q, p) {
			out = append(out, int32(id))
		}
	}
	return out
}

// recallOf is |reported ∩ exact| / |exact|, 1 for an empty truth.
func recallOf(reported, exact []int32) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := make(map[int32]struct{}, len(exact))
	for _, id := range exact {
		in[id] = struct{}{}
	}
	hit := 0
	for _, id := range reported {
		if _, ok := in[id]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// sameIDs reports whether two answers hold the same id set.
func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	x, y := slices.Clone(a), slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}
