package persist

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/shard"
	"repro/internal/vector"
)

// Covering-LSH snapshots. A covering index stores no LSH family and no
// per-table hashers — its 2^(r+1)−1 tables are fully determined by the
// integer radius r and the random map φ — so its snapshot replaces the
// "meta" section with a "covr" section carrying exactly those
// parameters, and its "tabl" sections hold buckets only:
//
//	plain (kind 1):   "covr" | "pnts" | "tabl" × (2^(r+1)−1) | "end!"
//	sharded (kind 2): "smet" | "tomb" | "covr"(radius marker)
//	                  | ("sids" + plain covering sections) × S | "end!"
//
// The kind-1 "covr" payload is radius, dim, n, the HLL geometry, the
// cost model, the construction seed and the dim φ entries; the sharded
// structure-level "covr" holds only the shared radius (each shard's own
// "covr" carries its full per-shard parameters, φ included — shards
// built from one seed draw equal φ, but each shard's is recorded, so
// files whose shards carry different φ load too). Readers of either
// mode reject the other's files with ErrCoverMode rather than guessing:
// a covering file has no (k, L, δ) to hand a plain reader, and a plain
// file has no φ to hand this one.
// Both sections are sanctioned in-v1 extensions like "prob": files that
// carry neither are byte-identical to the original layout.

// writeCovrSection encodes one covering index's parameters over n
// points.
func writeCovrSection(w io.Writer, ix *covering.Index, n int) error {
	var e enc
	e.u32(uint32(ix.Radius()))
	e.u32(uint32(ix.Dim()))
	e.u64(uint64(n))
	e.u32(uint32(ix.HLLRegisters()))
	e.u32(uint32(ix.HLLThreshold()))
	e.f64(ix.Cost().Alpha)
	e.f64(ix.Cost().Beta)
	e.u64(ix.Seed())
	for _, v := range ix.Phi() {
		e.u32(v)
	}
	return writeSection(w, "covr", e.b)
}

// coverMeta is the decoded "covr" section of one covering index.
type coverMeta struct {
	radius, dim, n int
	m, thresh      int
	alpha, beta    float64
	seed           uint64
	phi            []uint32
}

// im bridges to the shared binary-point and bucket codecs, which read
// their geometry from an indexMeta.
func (cm *coverMeta) im() *indexMeta {
	return &indexMeta{
		metric: MetricHamming,
		dim:    cm.dim,
		n:      cm.n,
		params: lsh.Params{K: 1, L: covering.NumTables(cm.radius), HLLRegisters: cm.m, HLLThreshold: cm.thresh},
	}
}

// readCovrSection reads and validates a kind-1 (or per-shard) "covr"
// section.
func (s *sectionStream) readCovrSection() (*coverMeta, error) {
	payload, err := s.read("covr")
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	cm := &coverMeta{}
	cm.radius = int(d.u32())
	cm.dim = int(d.u32())
	cm.n = int(d.u64())
	cm.m = int(d.u32())
	cm.thresh = int(d.u32())
	cm.alpha = d.f64()
	cm.beta = d.f64()
	cm.seed = d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if cm.radius < 1 || cm.radius > covering.MaxRadius {
		return nil, corrupt("covering radius %d outside [1,%d]", cm.radius, covering.MaxRadius)
	}
	if cm.dim < 1 || cm.dim > maxDim {
		return nil, corrupt("dim %d outside [1,%d]", cm.dim, maxDim)
	}
	if cm.radius >= cm.dim {
		return nil, corrupt("covering radius %d >= dim %d", cm.radius, cm.dim)
	}
	if cm.n < 0 || cm.n > 1<<31-1 {
		return nil, corrupt("point count %d outside [0,2^31)", cm.n)
	}
	if cm.m < hll.MinM || cm.m > hll.MaxM || cm.m&(cm.m-1) != 0 {
		return nil, corrupt("HLL registers %d not a power of two in [%d,%d]", cm.m, hll.MinM, hll.MaxM)
	}
	if cm.thresh < 1 {
		return nil, corrupt("HLL threshold %d, want >= 1", cm.thresh)
	}
	if !(cm.alpha > 0) || math.IsInf(cm.alpha, 0) || !(cm.beta > 0) || math.IsInf(cm.beta, 0) {
		return nil, corrupt("cost model (%v, %v) not positive and finite", cm.alpha, cm.beta)
	}
	if !d.need(cm.dim * 4) {
		return nil, d.err
	}
	cm.phi = make([]uint32, cm.dim)
	bits := uint(cm.radius + 1)
	for i := range cm.phi {
		cm.phi[i] = d.u32()
		if cm.phi[i] >= 1<<bits {
			return nil, corrupt("φ(%d) = %#x outside {0,1}^%d", i, cm.phi[i], bits)
		}
	}
	if err := d.done("covr"); err != nil {
		return nil, err
	}
	return cm, nil
}

// writeCoveringBody writes the "covr", "pnts" and per-table "tabl"
// sections of one covering index over points, taking each table's
// buckets from buckets when it is non-nil (a compacted snapshot view,
// see compactShard) and from the index otherwise.
func writeCoveringBody(w io.Writer, ix *covering.Index, points []vector.Binary, buckets []map[uint64]*lsh.Bucket) error {
	if err := writeCovrSection(w, ix, len(points)); err != nil {
		return err
	}
	im := &indexMeta{dim: ix.Dim(), n: len(points)}
	var e enc
	if err := writeBinaryPoints(&e, im, points); err != nil {
		return err
	}
	if err := writeSection(w, "pnts", e.b); err != nil {
		return err
	}
	for t := 0; t < ix.Tables(); t++ {
		bm := ix.TableBuckets(t)
		if buckets != nil {
			bm = buckets[t]
		}
		e = enc{}
		if err := writeBuckets(&e, bm, im.n); err != nil {
			return err
		}
		if err := writeSection(w, "tabl", e.b); err != nil {
			return err
		}
	}
	return nil
}

// readCoveringBody reads one covering index's sections and reassembles
// it without re-hashing.
func readCoveringBody(ss *sectionStream) (*covering.Index, *coverMeta, error) {
	cm, err := ss.readCovrSection()
	if err != nil {
		return nil, nil, err
	}
	im := cm.im()
	payload, err := ss.read("pnts")
	if err != nil {
		return nil, nil, err
	}
	d := &dec{b: payload}
	points, err := readBinaryPoints(d, im)
	if err != nil {
		return nil, nil, err
	}
	if err := d.done("pnts"); err != nil {
		return nil, nil, err
	}
	tables := make([]map[uint64]*lsh.Bucket, covering.NumTables(cm.radius))
	for t := range tables {
		payload, err = ss.read("tabl")
		if err != nil {
			return nil, nil, err
		}
		d = &dec{b: payload}
		buckets, err := readBuckets(d, im)
		if err != nil {
			return nil, nil, err
		}
		if err := d.done("tabl"); err != nil {
			return nil, nil, err
		}
		tables[t] = buckets
	}
	ix, err := covering.Restore(points, cm.radius, cm.phi, cm.seed, tables, covering.Config{
		HLLRegisters: cm.m,
		HLLThreshold: cm.thresh,
		Cost:         core.CostModel{Alpha: cm.alpha, Beta: cm.beta},
	})
	if err != nil {
		return nil, nil, corrupt("restoring covering index: %v", err)
	}
	return ix, cm, nil
}

// coverPublicMeta summarizes a covering snapshot.
func coverPublicMeta(cm *coverMeta, n, shards int) Meta {
	return Meta{
		Metric:      MetricHamming,
		Dim:         cm.dim,
		N:           n,
		Radius:      float64(cm.radius),
		L:           covering.NumTables(cm.radius),
		Shards:      shards,
		CoverRadius: cm.radius,
		Seed:        cm.seed,
	}
}

// WriteCovering writes a complete snapshot of a covering index and
// returns the number of bytes written. The output is deterministic:
// equal indexes (same points, same drawn φ) serialize to equal bytes.
// The index must not be mutated concurrently.
func WriteCovering(w io.Writer, ix *covering.Index) (int64, error) {
	cw := &countWriter{w: w}
	if err := writeHeader(cw, kindIndex); err != nil {
		return cw.n, err
	}
	if err := writeCoveringBody(cw, ix, ix.Points(), nil); err != nil {
		return cw.n, err
	}
	if err := writeSection(cw, "end!", nil); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadCovering reads a covering-index snapshot written by WriteCovering;
// the restored index answers queries id-for-id identically to the saved
// one (same φ, same buckets, same sketches). Plain hybrid snapshots are
// rejected with ErrCoverMode — they record a (k, L, δ) structure this
// reader has no use for, and silently rebuilding would change answers.
func ReadCovering(r io.Reader) (*covering.Index, Meta, error) {
	ss := &sectionStream{r: r}
	kind, err := readHeader(r)
	if err != nil {
		return nil, Meta{}, err
	}
	if kind != kindIndex {
		return nil, Meta{}, corrupt("snapshot holds a sharded index; use the sharded covering reader")
	}
	tag, err := ss.peek()
	if err != nil {
		return nil, Meta{}, err
	}
	if tag != "covr" {
		return nil, Meta{}, fmt.Errorf("%w: snapshot holds a plain hybrid index; use the plain reader", ErrCoverMode)
	}
	ix, cm, err := readCoveringBody(ss)
	if err != nil {
		return nil, Meta{}, err
	}
	if _, err := ss.read("end!"); err != nil {
		return nil, Meta{}, err
	}
	return ix, coverPublicMeta(cm, cm.n, 0), nil
}

// WriteShardedCovering writes a snapshot of a sharded covering index;
// see WriteSharded for the consistency guarantees (appends blocked,
// queries flowing, tombstoned points compacted out with their ids kept
// reserved). Every shard must be a covering index; the shared radius is
// recorded once in the structure-level "covr" marker.
func WriteShardedCovering(w io.Writer, s *shard.Sharded[vector.Binary]) (int64, error) {
	cw := &countWriter{w: w}
	err := s.Snapshot(func(shards []shard.ShardSnapshot[vector.Binary], nextID int32, tombstones []int32) error {
		covs := make([]*covering.Index, len(shards))
		radius := 0
		for j, sv := range shards {
			cov, ok := sv.Index.(*covering.Index)
			if !ok {
				return fmt.Errorf("persist: shard %d holds %T, want *covering.Index", j, sv.Index)
			}
			if j == 0 {
				radius = cov.Radius()
			} else if cov.Radius() != radius {
				return fmt.Errorf("persist: shard %d has covering radius %d, shard 0 has %d", j, cov.Radius(), radius)
			}
			covs[j] = cov
		}
		if err := writeHeader(cw, kindSharded); err != nil {
			return err
		}
		var e enc
		e.str(MetricHamming)
		e.u32(uint32(len(shards)))
		e.i32(nextID)
		if err := writeSection(cw, "smet", e.b); err != nil {
			return err
		}
		e = enc{}
		e.u64(uint64(len(tombstones)))
		for _, id := range tombstones {
			e.i32(id)
		}
		if err := writeSection(cw, "tomb", e.b); err != nil {
			return err
		}
		e = enc{}
		e.u32(uint32(radius))
		if err := writeSection(cw, "covr", e.b); err != nil {
			return err
		}
		tombs := make(map[int32]struct{}, len(tombstones))
		for _, id := range tombstones {
			tombs[id] = struct{}{}
		}
		for j, cov := range covs {
			points, ids, buckets, err := compactShard(cov.Core(), shards[j].IDs, tombs)
			if err != nil {
				return err
			}
			e = enc{}
			e.u64(uint64(len(ids)))
			for _, id := range ids {
				e.i32(id)
			}
			if err := writeSection(cw, "sids", e.b); err != nil {
				return err
			}
			if err := writeCoveringBody(cw, cov, points, buckets); err != nil {
				return err
			}
		}
		return writeSection(cw, "end!", nil)
	})
	return cw.n, err
}

// ReadShardedCovering reads a sharded covering snapshot written by
// WriteShardedCovering and reassembles the sharded index: per-shard φ,
// buckets and sketches are restored exactly, the global id space keeps
// its tombstone holes, and appends continue from the saved high-water id
// mark. Classic sharded snapshots are rejected with ErrCoverMode.
func ReadShardedCovering(r io.Reader) (*shard.Sharded[vector.Binary], Meta, error) {
	ss := &sectionStream{r: r}
	kind, err := readHeader(r)
	if err != nil {
		return nil, Meta{}, err
	}
	if kind != kindSharded {
		return nil, Meta{}, corrupt("snapshot holds a plain index; use the plain covering reader")
	}

	payload, err := ss.read("smet")
	if err != nil {
		return nil, Meta{}, err
	}
	d := &dec{b: payload}
	gotMetric := d.str()
	nshards := int(d.u32())
	nextID := d.i32()
	if err := d.done("smet"); err != nil {
		return nil, Meta{}, err
	}
	if gotMetric != MetricHamming {
		return nil, Meta{}, fmt.Errorf("%w: snapshot holds metric %q, want %q", ErrMetric, gotMetric, MetricHamming)
	}
	if nshards < 1 || nshards > maxShards {
		return nil, Meta{}, corrupt("shard count %d outside [1,%d]", nshards, maxShards)
	}
	if nextID < 0 {
		return nil, Meta{}, corrupt("next id %d negative", nextID)
	}

	tombstones, err := readTombSection(ss, nextID)
	if err != nil {
		return nil, Meta{}, err
	}

	tag, err := ss.peek()
	if err != nil {
		return nil, Meta{}, err
	}
	if tag != "covr" {
		return nil, Meta{}, fmt.Errorf("%w: snapshot holds a classic sharded index; use the plain sharded reader", ErrCoverMode)
	}
	payload, err = ss.read("covr")
	if err != nil {
		return nil, Meta{}, err
	}
	d = &dec{b: payload}
	radius := int(d.u32())
	if err := d.done("covr"); err != nil {
		return nil, Meta{}, err
	}
	if radius < 1 || radius > covering.MaxRadius {
		return nil, Meta{}, corrupt("covering radius %d outside [1,%d]", radius, covering.MaxRadius)
	}

	shards := make([]shard.ShardSnapshot[vector.Binary], nshards)
	live := 0
	var first *coverMeta
	for j := range shards {
		payload, err = ss.read("sids")
		if err != nil {
			return nil, Meta{}, err
		}
		d = &dec{b: payload}
		nids := d.count(4, "shard id")
		ids := make([]int32, nids)
		for i := range ids {
			ids[i] = d.i32()
		}
		if err := d.done("sids"); err != nil {
			return nil, Meta{}, err
		}
		ix, cm, err := readCoveringBody(ss)
		if err != nil {
			return nil, Meta{}, err
		}
		if cm.radius != radius {
			return nil, Meta{}, corrupt("shard %d has covering radius %d, structure says %d", j, cm.radius, radius)
		}
		if first == nil {
			first = cm
		} else if cm.dim != first.dim {
			return nil, Meta{}, corrupt("shard %d has dim %d, shard 0 has %d", j, cm.dim, first.dim)
		}
		shards[j] = shard.ShardSnapshot[vector.Binary]{Index: ix, IDs: ids}
		live += len(ids)
	}
	if _, err := ss.read("end!"); err != nil {
		return nil, Meta{}, err
	}
	if live+len(tombstones) != int(nextID) {
		return nil, Meta{}, corrupt("%d live + %d tombstoned ids, want %d allocated", live, len(tombstones), nextID)
	}
	if len(tombstones) > 0 {
		for _, sv := range shards {
			for _, id := range sv.IDs {
				if _, ok := slices.BinarySearch(tombstones, id); ok {
					return nil, Meta{}, corrupt("id %d is both live and tombstoned", id)
				}
			}
		}
	}
	sh, err := shard.Restore(shards, nextID, tombstones)
	if err != nil {
		return nil, Meta{}, corrupt("restoring shards: %v", err)
	}
	meta := coverPublicMeta(first, live, nshards)
	return sh, meta, nil
}
