package persist

// The legacy "quan" section. Older writers recorded with it that an L2
// index kept an SQ8-quantized verification copy; today's writer never
// emits it, and the reader validates and drops it. Pinned here: the
// checked-in sharded snapshot that carries one per shard loads and
// answers like an exact rebuild, re-writing it strips the sections, a
// section spliced in by hand round-trips the same way, and malformed or
// misplaced sections are refused.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/shard"
	"repro/internal/vector"
)

// goldenSQ8Path holds a 2-shard L2 snapshot (the golden-l2 index's
// points and configuration, seed 42) written while the server could
// keep an SQ8 copy of the points: each shard's sections include a
// "quan" marker.
const goldenSQ8Path = "testdata/golden-sq8-sharded-l2-v1.snap"

// section locates one framed section in a snapshot: its tag and the
// byte range [off, end) of the whole frame.
type section struct {
	tag      string
	off, end int
}

// sections walks a well-formed snapshot's section frames.
func sections(t *testing.T, snap []byte) []section {
	t.Helper()
	var out []section
	for off := len(magic) + 5; off < len(snap); {
		if off+12 > len(snap) {
			t.Fatalf("truncated section frame at %d", off)
		}
		end := off + 12 + int(binary.LittleEndian.Uint64(snap[off+4:])) + 4
		out = append(out, section{tag: string(snap[off : off+4]), off: off, end: end})
		off = end
	}
	return out
}

// stripQuan returns snap without its "quan" section frames.
func stripQuan(t *testing.T, snap []byte) []byte {
	t.Helper()
	out := slices.Clone(snap[:len(magic)+5])
	for _, s := range sections(t, snap) {
		if s.tag != "quan" {
			out = append(out, snap[s.off:s.end]...)
		}
	}
	return out
}

// spliceQuan inserts a "quan" frame with the given payload right before
// the first "pnts" section, where older writers placed it.
func spliceQuan(t *testing.T, snap []byte, payload byte) []byte {
	t.Helper()
	var sec bytes.Buffer
	if err := writeSection(&sec, "quan", []byte{payload}); err != nil {
		t.Fatal(err)
	}
	for _, s := range sections(t, snap) {
		if s.tag == "pnts" {
			return slices.Concat(snap[:s.off], sec.Bytes(), snap[s.off:])
		}
	}
	t.Fatal("no pnts section")
	return nil
}

// countTag counts the sections carrying tag.
func countTag(t *testing.T, snap []byte, tag string) int {
	t.Helper()
	n := 0
	for _, s := range sections(t, snap) {
		if s.tag == tag {
			n++
		}
	}
	return n
}

// buildL2 builds a plain L2 index over the flat store.
func buildL2(t *testing.T) (*core.Index[vector.Dense], []byte) {
	t.Helper()
	ix, err := core.NewIndex(denseData(tn, tdim, 31), cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, MetricL2, ix); err != nil {
		t.Fatal(err)
	}
	return ix, buf.Bytes()
}

// goldenSQ8Rebuild builds the exact structure the SQ8 golden snapshot
// was written from, over the exact flat store.
func goldenSQ8Rebuild(t *testing.T) *shard.Sharded[vector.Dense] {
	t.Helper()
	s, err := shard.New(denseData(48, 6, 1234), 2, 42, func(part []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		return core.NewIndex(part, core.Config[vector.Dense]{
			Family:       lsh.NewPStableL2(6, 0.8),
			Distance:     distance.L2,
			Radius:       0.4,
			Delta:        0.1,
			L:            4,
			HLLRegisters: 16,
			HLLThreshold: 3,
			Cost:         core.CostModel{Alpha: 1, Beta: 8},
			Seed:         seed,
			Store:        pointstore.DenseL2Builder(),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestQuantSectionRoundTrip: a plain L2 snapshot with a hand-spliced
// "quan" section loads, answers id for id like the index it snapshots,
// and re-writes to the snapshot without the section.
func TestQuantSectionRoundTrip(t *testing.T) {
	ix, snap := buildL2(t)
	legacy := spliceQuan(t, snap, 1)
	loaded, _, err := ReadIndex[vector.Dense](bytes.NewReader(legacy), MetricL2)
	if err != nil {
		t.Fatalf("reader rejects a legacy quan section: %v", err)
	}
	assertIdentical(t, ix, loaded, denseData(tq, tdim, 32))
	var again bytes.Buffer
	if _, err := WriteIndex(&again, MetricL2, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap) {
		t.Fatal("re-writing a snapshot with a quan section does not reproduce the section-free bytes")
	}
}

// TestQuantSectionAdditive: the section only ever sat beside the exact
// data. Today's writer emits none, and the SQ8 golden minus its "quan"
// frames is byte for byte what the writer produces for the exact
// rebuild of the same structure.
func TestQuantSectionAdditive(t *testing.T) {
	_, snap := buildL2(t)
	if n := countTag(t, snap, "quan"); n != 0 {
		t.Fatalf("plain L2 snapshot has %d quan sections, want 0", n)
	}
	golden, err := os.ReadFile(goldenSQ8Path)
	if err != nil {
		t.Fatalf("missing golden snapshot: %v", err)
	}
	fresh := rewrite(t, goldenSQ8Rebuild(t))
	if n := countTag(t, fresh, "quan"); n != 0 {
		t.Fatalf("sharded L2 snapshot has %d quan sections, want 0", n)
	}
	if !bytes.Equal(stripQuan(t, golden), fresh) {
		t.Fatal("SQ8 golden minus its quan sections differs from the exact rebuild's snapshot")
	}
}

// TestShardedQuantRoundTrip: the checked-in SQ8 snapshot (one quan
// section per shard) loads, answers id for id like the exact rebuild
// from the same points and seed, and re-writes to its quan-stripped
// bytes.
func TestShardedQuantRoundTrip(t *testing.T) {
	golden, err := os.ReadFile(goldenSQ8Path)
	if err != nil {
		t.Fatalf("missing golden snapshot: %v", err)
	}
	if n := countTag(t, golden, "quan"); n != 2 {
		t.Fatalf("golden has %d quan sections, want 2 (one per shard)", n)
	}
	loaded, meta, err := ReadSharded[vector.Dense](bytes.NewReader(golden), MetricL2)
	if err != nil {
		t.Fatalf("reader rejects the SQ8 golden snapshot: %v", err)
	}
	if meta.N != 48 || meta.Dim != 6 || meta.Shards != 2 {
		t.Fatalf("golden meta = %+v", meta)
	}
	if got := loaded.Stats().Store.Layout; got != "flat" {
		t.Fatalf("restored store layout = %q, want flat", got)
	}
	assertShardedIdentical(t, goldenSQ8Rebuild(t), loaded, append(denseData(48, 6, 1234), denseData(tq, 6, 1236)...))
	if again := rewrite(t, loaded); !bytes.Equal(again, stripQuan(t, golden)) {
		t.Fatal("re-writing the SQ8 golden does not produce its quan-stripped bytes")
	}
}

func TestQuantSectionCorruption(t *testing.T) {
	_, snap := buildL2(t)
	legacy := spliceQuan(t, snap, 1)
	var at int
	for _, s := range sections(t, legacy) {
		if s.tag == "quan" {
			at = s.off + 12 // tag[4] + length u64
		}
	}

	// An unknown mode value is invalid even with a fixed CRC.
	if _, _, err := ReadIndex[vector.Dense](bytes.NewReader(spliceQuan(t, snap, 7)), MetricL2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mode=7 section: err = %v, want ErrCorrupt", err)
	}
	// Mode "off" was never recorded (absence encoded it).
	if _, _, err := ReadIndex[vector.Dense](bytes.NewReader(spliceQuan(t, snap, 0)), MetricL2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mode=0 section: err = %v, want ErrCorrupt", err)
	}
	// A bit flip must fail the CRC.
	mut := slices.Clone(legacy)
	mut[at] ^= 0x01
	if _, _, err := ReadIndex[vector.Dense](bytes.NewReader(mut), MetricL2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped quan payload: err = %v, want ErrCorrupt", err)
	}
	// A longer payload is refused even with a matching CRC.
	mut = slices.Clone(legacy[:at-8])
	mut = binary.LittleEndian.AppendUint64(mut, 2)
	mut = append(mut, 1, 0)
	mut = binary.LittleEndian.AppendUint32(mut, crc32.ChecksumIEEE([]byte{1, 0}))
	mut = append(mut, legacy[at+1+4:]...)
	if _, _, err := ReadIndex[vector.Dense](bytes.NewReader(mut), MetricL2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("two-byte quan payload: err = %v, want ErrCorrupt", err)
	}
}

// TestQuantRejectedForNonL2 splices a well-formed quan section into a
// Hamming snapshot: the reader must refuse it — only L2 indexes ever
// carried one.
func TestQuantRejectedForNonL2(t *testing.T) {
	c := cfg[vector.Binary](lsh.NewBitSampling(64), distance.Hamming, 6)
	ix, err := core.NewIndex(binaryData(100, 64, 33), c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, MetricHamming, ix); err != nil {
		t.Fatal(err)
	}
	mut := spliceQuan(t, buf.Bytes(), 1)
	if _, _, err := ReadIndex[vector.Binary](bytes.NewReader(mut), MetricHamming); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hamming snapshot with quan section: err = %v, want ErrCorrupt", err)
	}
}
