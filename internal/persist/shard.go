package persist

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/lsh"
	"repro/internal/multiprobe"
	"repro/internal/shard"
	"repro/internal/vector"
)

// WriteSharded writes a snapshot of a sharded index and returns the
// number of bytes written. It takes a consistent view of the structure
// (appends are blocked for the duration; queries keep flowing) and
// compacts tombstoned points out of every shard: their ids are recorded
// in the tombstone section so the id space's holes survive the reload,
// but the points themselves, their bucket entries and their sketch
// contributions are not serialized.
//
// Multi-probe shards are handled transparently: the shared probe
// configuration T is recorded once in the structure-level "prob"
// section and each shard's wrapped plain index is serialized as usual,
// so a reload probes identical bucket sequences.
func WriteSharded[P any](w io.Writer, metric string, s *shard.Sharded[P]) (int64, error) {
	c, err := codecFor[P](metric)
	if err != nil {
		return 0, err
	}
	cw := &countWriter{w: w}
	err = s.Snapshot(func(shards []shard.ShardSnapshot[P], nextID int32, tombstones []int32) error {
		probes := 0
		cores := make([]*core.Index[P], len(shards))
		for j, sv := range shards {
			ix, p, err := splitStore(sv.Index)
			if err != nil {
				return fmt.Errorf("persist: shard %d: %w", j, err)
			}
			if j == 0 {
				probes = p
			} else if p != probes {
				return fmt.Errorf("persist: shard %d has probe config %d, shard 0 has %d", j, p, probes)
			}
			cores[j] = ix
		}
		if err := writeHeader(cw, kindSharded); err != nil {
			return err
		}
		var e enc
		e.str(metric)
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
		if probes > 0 {
			if probes > maxProbes {
				return fmt.Errorf("persist: probe count %d exceeds the format cap %d", probes, maxProbes)
			}
			if err := writeProbeSection(cw, probes); err != nil {
				return err
			}
		}
		tombs := make(map[int32]struct{}, len(tombstones))
		for _, id := range tombstones {
			tombs[id] = struct{}{}
		}
		for j, sv := range shards {
			points, ids, buckets, err := compactShard(cores[j], sv.IDs, tombs)
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
			if err := writeIndexParts(cw, c, cores[j], points, buckets, 0); err != nil {
				return err
			}
		}
		return writeSection(cw, "end!", nil)
	})
	return cw.n, err
}

// splitStore unwraps one shard's store into the plain core index that
// carries its serializable state plus the multi-probe configuration T
// (0 for a plain shard).
func splitStore[P any](st core.Store[P]) (*core.Index[P], int, error) {
	switch v := any(st).(type) {
	case *core.Index[P]:
		return v, 0, nil
	case *multiprobe.Index:
		ix, ok := any(v.Core()).(*core.Index[P])
		if !ok {
			return nil, 0, fmt.Errorf("multi-probe shard does not store the requested point type")
		}
		return ix, v.Probes(), nil
	default:
		return nil, 0, fmt.Errorf("unsupported shard index type %T", st)
	}
}

// wrapProbes rewraps a restored plain shard index as a multi-probe
// index with the snapshot's probe configuration; it only succeeds for
// the dense p-stable metrics.
func wrapProbes[P any](ix *core.Index[P], probes int) (core.Store[P], error) {
	dix, ok := any(ix).(*core.Index[vector.Dense])
	if !ok {
		return nil, corrupt("probe section on a metric that does not store dense points")
	}
	mp, err := multiprobe.FromCore(dix, probes)
	if err != nil {
		return nil, corrupt("restoring multi-probe shard: %v", err)
	}
	st, ok := any(mp).(core.Store[P])
	if !ok {
		return nil, corrupt("restoring multi-probe shard: point type mismatch")
	}
	return st, nil
}

// compactShard filters a shard's tombstoned points out of its view:
// the surviving points and global ids are returned along with per-table
// bucket maps whose local ids are remapped to the compacted positions
// and whose sketches are rebuilt over the surviving ids (HLLs cannot
// un-absorb a deletion, so rebuild is the only sound option). The bucket
// rewrite is lsh.Tables.Compact — the same code the online
// shard.Sharded.Compact path runs — so a snapshot of a tombstoned index
// and a snapshot of the same index compacted online are byte-identical.
// Covering shards run through it too, via their wrapped core index.
// When the shard holds no tombstoned point the original (live,
// read-locked) state is returned without copying.
func compactShard[P any](ix *core.Index[P], gids []int32, tombs map[int32]struct{}) ([]P, []int32, []map[uint64]*lsh.Bucket, error) {
	dead := false
	if len(tombs) > 0 {
		for _, gid := range gids {
			if _, d := tombs[gid]; d {
				dead = true
				break
			}
		}
	}
	if !dead {
		return ix.Points(), gids, nil, nil
	}

	all := ix.Points()
	remap := make([]int32, len(all)) // old local id -> new local id, -1 = dropped
	points := make([]P, 0, len(all))
	ids := make([]int32, 0, len(gids))
	for l, gid := range gids {
		if _, d := tombs[gid]; d {
			remap[l] = -1
			continue
		}
		remap[l] = int32(len(points))
		points = append(points, all[l])
		ids = append(ids, gid)
	}

	nt, err := ix.Tables().Compact(remap, len(points))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("persist: compacting shard for snapshot: %w", err)
	}
	buckets := make([]map[uint64]*lsh.Bucket, nt.L())
	for j := range buckets {
		buckets[j] = nt.Table(j).Buckets
	}
	return points, ids, buckets, nil
}

// readTombSection reads and validates the "tomb" section shared by the
// classic and covering sharded layouts: the sorted tombstoned ids, each
// inside [0, nextID).
func readTombSection(ss *sectionStream, nextID int32) ([]int32, error) {
	payload, err := ss.read("tomb")
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	nt := d.count(4, "tombstone")
	tombstones := make([]int32, nt)
	for i := range tombstones {
		tombstones[i] = d.i32()
		if tombstones[i] < 0 || tombstones[i] >= nextID {
			return nil, corrupt("tombstone id %d outside [0,%d)", tombstones[i], nextID)
		}
		if i > 0 && tombstones[i] <= tombstones[i-1] {
			return nil, corrupt("tombstone ids not strictly increasing at %d", i)
		}
	}
	if err := d.done("tomb"); err != nil {
		return nil, err
	}
	return tombstones, nil
}

// ReadSharded reads a sharded snapshot, requiring it to hold the given
// metric, and reassembles the sharded index: per-shard hash functions,
// buckets and sketches are restored exactly, the global id space keeps
// its tombstone holes, and appends continue from the saved high-water
// id mark. A shard whose table-t hasher encodes byte-identically to
// shard 0's reuses shard 0's decoded hasher, so a snapshot of shards
// sharing one function set reloads shared (and hashes each query once);
// older snapshots with per-shard functions reload per-shard and answer
// exactly as before. A snapshot carrying a "prob" section comes back as
// multi-probe shards with the saved T (Meta.Probes reports it).
func ReadSharded[P any](r io.Reader, metric string) (*shard.Sharded[P], Meta, error) {
	c, err := codecFor[P](metric)
	if err != nil {
		return nil, Meta{}, err
	}
	ss := &sectionStream{r: r}
	kind, err := readHeader(r)
	if err != nil {
		return nil, Meta{}, err
	}
	if kind != kindSharded {
		return nil, Meta{}, corrupt("snapshot holds a plain index; use the plain reader")
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
	if gotMetric != metric {
		return nil, Meta{}, fmt.Errorf("%w: snapshot holds metric %q, want %q", ErrMetric, gotMetric, metric)
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

	probes, err := ss.readProbeSection()
	if err != nil {
		return nil, Meta{}, err
	}
	if tag, err := ss.peek(); err != nil {
		return nil, Meta{}, err
	} else if tag == "covr" {
		return nil, Meta{}, fmt.Errorf("%w: snapshot holds a covering sharded index; use the sharded covering reader", ErrCoverMode)
	}

	shards := make([]shard.ShardSnapshot[P], nshards)
	live := 0
	var first *indexMeta
	shared := &sharedHashers[P]{}
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
		ix, m, err := readIndexBody(ss, c, shared)
		if err != nil {
			return nil, Meta{}, err
		}
		shared.recorded = true
		if m.probes != 0 {
			return nil, Meta{}, corrupt("shard %d carries its own probe section; the probe config is structure-level", j)
		}
		if first == nil {
			first = m
		} else if m.dim != first.dim || m.radius != first.radius {
			return nil, Meta{}, corrupt("shard %d has dim %d r %v, shard 0 has dim %d r %v",
				j, m.dim, m.radius, first.dim, first.radius)
		}
		store := core.Store[P](ix)
		if probes > 0 {
			if store, err = wrapProbes(ix, probes); err != nil {
				return nil, Meta{}, err
			}
		}
		shards[j] = shard.ShardSnapshot[P]{Index: store, IDs: ids}
		live += len(ids)
	}
	if _, err := ss.read("end!"); err != nil {
		return nil, Meta{}, err
	}
	// Canonical invariant: every allocated id is either live in exactly
	// one shard or tombstoned (shard.Restore rejects cross-shard
	// duplicates and out-of-range ids; tombstoned live ids would break
	// the count too).
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
	meta := publicMeta(first, nshards)
	meta.N = live
	meta.Probes = probes
	return sh, meta, nil
}
