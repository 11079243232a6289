package hybridlsh

import (
	"fmt"
	"io"

	"repro/internal/persist"
)

// Index persistence. Every index type serializes to the versioned
// hybridlsh-snap/v1 binary snapshot format (magic, format version,
// CRC32-protected sections) via WriteTo, and reloads via the matching
// Read function: points, configuration, every drawn hash function, all
// bucket tables, the per-bucket HyperLogLog registers and the cost
// model are preserved exactly, so a loaded plain index answers queries
// id-for-id identically to the saved one — same hashes, same sketches,
// same hybrid strategy decisions — without re-hashing a single point.
//
// Sharded snapshots additionally preserve each shard's hash functions
// (shards sharing one drawn set reload sharing it, so queries stay
// hashed once) and the global id space: tombstoned points are compacted
// out of the stored shards but their ids stay reserved, so deleted ids
// remain deleted (and are never reused) after a reload, and Append
// continues from the saved high-water mark. Compaction shrinks the
// buckets the deleted points occupied, so a reloaded shard may decide a
// borderline query with the other strategy than the live structure
// (which filters tombstones at query time instead); reported sets then
// agree up to the per-point δ guarantee. With no intervening deletes
// the sharded round trip is exact as well.
//
// Multi-probe snapshots additionally record the probe configuration T
// (the format's optional "prob" section); the plain and multi-probe
// readers each reject the other's snapshots rather than silently
// dropping or inventing T.
//
// Covering snapshots record the integer radius and the random map φ
// (the format's "covr" section, which replaces "meta" — a covering
// index has no LSH family) plus the mask-table buckets, so a reload
// keeps the zero-false-negatives guarantee bit for bit; the plain and
// covering readers likewise reject each other's snapshots with a typed
// error.
//
// The decoder rejects corrupt, truncated or adversarial input with an
// error (persist.ErrBadMagic / ErrVersion / ErrMetric / ErrProbeMode /
// ErrCorrupt equivalents) rather than panicking; see internal/persist
// and docs/SNAPSHOT_FORMAT.md for the format layout and compatibility
// promise.

// SnapshotFormat names the snapshot wire format the WriteTo methods
// produce. Readers accept exactly this version; incompatible layout
// changes bump it.
const SnapshotFormat = persist.FormatName

// WriteTo writes a snapshot of the index; it implements io.WriterTo.
// The index must not be appended to concurrently.
func (ix *L2Index) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteIndex(w, persist.MetricL2, ix.Index)
}

// ReadL2Index reloads an L2 index snapshot written by WriteTo.
func ReadL2Index(r io.Reader) (*L2Index, error) {
	ix, _, err := persist.ReadIndex[Dense](r, persist.MetricL2)
	if err != nil {
		return nil, err
	}
	return &L2Index{ix}, nil
}

// WriteTo writes a snapshot of the index; it implements io.WriterTo.
// The index must not be appended to concurrently.
func (ix *L1Index) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteIndex(w, persist.MetricL1, ix.Index)
}

// ReadL1Index reloads an L1 index snapshot written by WriteTo.
func ReadL1Index(r io.Reader) (*L1Index, error) {
	ix, _, err := persist.ReadIndex[Dense](r, persist.MetricL1)
	if err != nil {
		return nil, err
	}
	return &L1Index{ix}, nil
}

// WriteTo writes a snapshot of the index; it implements io.WriterTo.
// The index must not be appended to concurrently.
func (ix *HammingIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteIndex(w, persist.MetricHamming, ix.Index)
}

// ReadHammingIndex reloads a Hamming index snapshot written by WriteTo.
func ReadHammingIndex(r io.Reader) (*HammingIndex, error) {
	ix, _, err := persist.ReadIndex[Binary](r, persist.MetricHamming)
	if err != nil {
		return nil, err
	}
	return &HammingIndex{ix}, nil
}

// WriteTo writes a snapshot of the index; it implements io.WriterTo.
// The index must not be appended to concurrently.
func (ix *CosineIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteIndex(w, persist.MetricCosine, ix.Index)
}

// ReadCosineIndex reloads a cosine index snapshot written by WriteTo.
func ReadCosineIndex(r io.Reader) (*CosineIndex, error) {
	ix, _, err := persist.ReadIndex[Sparse](r, persist.MetricCosine)
	if err != nil {
		return nil, err
	}
	return &CosineIndex{ix}, nil
}

// WriteTo writes a snapshot of the index; it implements io.WriterTo.
// The index must not be appended to concurrently.
func (ix *JaccardIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteIndex(w, persist.MetricJaccard, ix.Index)
}

// ReadJaccardIndex reloads a Jaccard index snapshot written by WriteTo.
func ReadJaccardIndex(r io.Reader) (*JaccardIndex, error) {
	ix, _, err := persist.ReadIndex[Binary](r, persist.MetricJaccard)
	if err != nil {
		return nil, err
	}
	return &JaccardIndex{ix}, nil
}

// WriteTo writes a snapshot of the index, including the family's
// Monte-Carlo-calibrated collision-probability curve; it implements
// io.WriterTo. The index must not be appended to concurrently.
func (ix *AngularIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteIndex(w, persist.MetricAngular, ix.Index)
}

// ReadAngularIndex reloads an angular (cross-polytope) index snapshot
// written by WriteTo; the calibrated curve is restored rather than
// re-measured.
func ReadAngularIndex(r io.Reader) (*AngularIndex, error) {
	ix, _, err := persist.ReadIndex[Dense](r, persist.MetricAngular)
	if err != nil {
		return nil, err
	}
	return &AngularIndex{ix}, nil
}

// WriteTo writes a snapshot of the index, including the probe
// configuration (the snapshot format's optional "prob" section), so a
// reload probes identical bucket sequences; it implements io.WriterTo.
// The index must not be appended to concurrently.
func (ix *MultiProbeL2Index) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteMultiProbe(w, persist.MetricL2, ix.Index)
}

// ReadMultiProbeL2Index reloads a multi-probe L2 index snapshot written
// by WriteTo. Plain (probe-less) snapshots are rejected rather than
// silently assigned a default T.
func ReadMultiProbeL2Index(r io.Reader) (*MultiProbeL2Index, error) {
	ix, _, err := persist.ReadMultiProbe(r, persist.MetricL2)
	if err != nil {
		return nil, err
	}
	return &MultiProbeL2Index{ix}, nil
}

// WriteTo writes a snapshot of the index, including the covering
// parameters — the integer radius and the drawn map φ (the snapshot
// format's "covr" section) — so a reload keeps the zero-false-negatives
// guarantee bit for bit; it implements io.WriterTo. The index must not
// be appended to concurrently.
func (ix *CoveringHammingIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteCovering(w, ix.Index)
}

// ReadCoveringHammingIndex reloads a covering index snapshot written by
// WriteTo. Plain hybrid snapshots are rejected rather than silently
// rebuilt under different guarantees.
func ReadCoveringHammingIndex(r io.Reader) (*CoveringHammingIndex, error) {
	ix, _, err := persist.ReadCovering(r)
	if err != nil {
		return nil, err
	}
	return &CoveringHammingIndex{ix}, nil
}

// WriteTo writes a snapshot of the sharded index; it implements
// io.WriterTo. It takes a consistent view (appends block for the
// duration, queries keep flowing) and compacts tombstoned points out of
// the snapshot while keeping their ids reserved.
func (s *ShardedL2Index) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteSharded(w, persist.MetricL2, s.Sharded)
}

// ReadShardedL2Index reloads a sharded L2 snapshot written by WriteTo.
// Multi-probe sharded snapshots are rejected (use
// ReadShardedMultiProbeL2Index so the probe configuration is kept).
func ReadShardedL2Index(r io.Reader) (*ShardedL2Index, error) {
	sh, meta, err := persist.ReadSharded[Dense](r, persist.MetricL2)
	if err != nil {
		return nil, err
	}
	if meta.Probes != 0 {
		return nil, fmt.Errorf("hybridlsh: snapshot holds a multi-probe sharded index (T=%d); use ReadShardedMultiProbeL2Index", meta.Probes)
	}
	return &ShardedL2Index{sh}, nil
}

// WriteTo writes a snapshot of the sharded multi-probe index, including
// the shared probe configuration; see (*ShardedL2Index).WriteTo for the
// consistency guarantees.
func (s *ShardedMultiProbeL2Index) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteSharded(w, persist.MetricL2, s.Sharded)
}

// ReadShardedMultiProbeL2Index reloads a sharded multi-probe L2
// snapshot written by WriteTo: per-shard hash functions, buckets,
// sketches and the probe configuration are restored exactly, so answers
// are id-for-id identical to the saved index.
func ReadShardedMultiProbeL2Index(r io.Reader) (*ShardedMultiProbeL2Index, error) {
	sh, meta, err := persist.ReadSharded[Dense](r, persist.MetricL2)
	if err != nil {
		return nil, err
	}
	if meta.Probes == 0 {
		return nil, fmt.Errorf("hybridlsh: snapshot holds a plain sharded index; use ReadShardedL2Index")
	}
	return &ShardedMultiProbeL2Index{Sharded: sh, probes: meta.Probes}, nil
}

// WriteTo writes a snapshot of the sharded index; see
// (*ShardedL2Index).WriteTo.
func (s *ShardedHammingIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteSharded(w, persist.MetricHamming, s.Sharded)
}

// ReadShardedHammingIndex reloads a sharded Hamming snapshot written by
// WriteTo. Covering sharded snapshots are rejected (use
// ReadShardedCoveringHammingIndex so the guarantee-carrying φ tables are
// kept).
func ReadShardedHammingIndex(r io.Reader) (*ShardedHammingIndex, error) {
	sh, _, err := persist.ReadSharded[Binary](r, persist.MetricHamming)
	if err != nil {
		return nil, err
	}
	return &ShardedHammingIndex{sh}, nil
}

// WriteTo writes a snapshot of the sharded covering index, including
// every shard's covering parameters; see (*ShardedL2Index).WriteTo for
// the consistency guarantees.
func (s *ShardedCoveringHammingIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteShardedCovering(w, s.Sharded)
}

// ReadShardedCoveringHammingIndex reloads a sharded covering snapshot
// written by WriteTo: per-shard φ maps, buckets, sketches and the shared
// radius are restored exactly, so answers are id-for-id identical to the
// saved index and the zero-false-negatives guarantee survives the round
// trip. Classic sharded Hamming snapshots are rejected (use
// ReadShardedHammingIndex).
func ReadShardedCoveringHammingIndex(r io.Reader) (*ShardedCoveringHammingIndex, error) {
	sh, meta, err := persist.ReadShardedCovering(r)
	if err != nil {
		return nil, err
	}
	return &ShardedCoveringHammingIndex{Sharded: sh, radius: meta.CoverRadius}, nil
}
