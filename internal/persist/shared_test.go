package persist

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/hashutil"
	"repro/internal/lsh"
	"repro/internal/multiprobe"
	"repro/internal/shard"
	"repro/internal/vector"
)

// aliasedTables counts, over shards 1..S-1 and their tables, how many
// table hashers are shard 0's very object, and how many tables there
// are in total.
func aliasedTables(t *testing.T, s *shard.Sharded[vector.Dense]) (aliased, total int) {
	t.Helper()
	err := s.Snapshot(func(view []shard.ShardSnapshot[vector.Dense], _ int32, _ []int32) error {
		tabs := func(j int) *lsh.Tables[vector.Dense] {
			return view[j].Index.(interface {
				Tables() *lsh.Tables[vector.Dense]
			}).Tables()
		}
		t0 := tabs(0)
		for j := 1; j < len(view); j++ {
			tj := tabs(j)
			for k := 0; k < tj.L(); k++ {
				total++
				if tj.Table(k).Hasher == t0.Table(k).Hasher {
					aliased++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return aliased, total
}

// rewrite re-encodes a loaded sharded index.
func rewrite(t *testing.T, s *shard.Sharded[vector.Dense]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteSharded(&buf, MetricL2, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedSnapshotReloadsShared: shards built from one seed share
// one drawn function set; their snapshot stores each shard's hashers
// as before (the layout is unchanged) and reloads with every shard's
// table-t hasher aliased to shard 0's, so the reload hashes each query
// once too. Re-writing the reload reproduces the snapshot byte for
// byte.
func TestShardedSnapshotReloadsShared(t *testing.T) {
	classic := newShardedL2(t, denseData(tn, tdim, 51), 4, 52)
	probing, err := shard.New(denseData(tn, tdim, 53), 3, 54, func(part []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		c := cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4)
		c.Seed = seed
		ix, err := core.NewIndex(part, c)
		if err != nil {
			return nil, err
		}
		return multiprobe.FromCore(ix, 6)
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*shard.Sharded[vector.Dense]{"classic": classic, "multiprobe": probing} {
		if !s.Stats().SharedKeys {
			t.Fatalf("%s: built shards do not share keys", name)
		}
		loaded, snap := shardedRoundTrip(t, s)
		if !loaded.Stats().SharedKeys {
			t.Fatalf("%s: reloaded shards do not share keys", name)
		}
		if aliased, total := aliasedTables(t, loaded); aliased != total || total == 0 {
			t.Fatalf("%s: %d of %d reloaded table hashers alias shard 0's, want all", name, aliased, total)
		}
		assertShardedIdentical(t, s, loaded, denseData(tq, tdim, 55))
		if again := rewrite(t, loaded); !bytes.Equal(again, snap) {
			t.Fatalf("%s: re-writing the reload changed the snapshot (%d vs %d bytes)", name, len(again), len(snap))
		}
	}
}

// goldenPerShardPath holds a sharded v1 snapshot (3 shards over the
// golden-l2 index's points and configuration, seed 42) written while
// each shard still drew its functions from its own per-shard seed.
const goldenPerShardPath = "testdata/golden-sharded-l2-v1.snap"

// TestGoldenPerShardSnapshot: a sharded snapshot from before shards
// shared one function set reloads unaliased on the per-shard path.
// Rebuilding that structure — each shard from the per-shard seed the
// writer derived — and writing it reproduces the file byte for byte,
// and the reload answers id for id like the rebuild.
func TestGoldenPerShardSnapshot(t *testing.T) {
	golden, err := os.ReadFile(goldenPerShardPath)
	if err != nil {
		t.Fatalf("missing golden snapshot: %v", err)
	}
	loaded, _, err := ReadSharded[vector.Dense](bytes.NewReader(golden), MetricL2)
	if err != nil {
		t.Fatalf("reader rejects the per-shard golden snapshot: %v", err)
	}
	if loaded.Stats().SharedKeys {
		t.Fatal("per-shard golden snapshot reloads with shared keys")
	}
	if aliased, total := aliasedTables(t, loaded); aliased != 0 || total == 0 {
		t.Fatalf("%d of %d reloaded table hashers alias shard 0's, want none", aliased, total)
	}

	pts := denseData(48, 6, 1234)
	const shards, seed = 3, 42
	views := make([]shard.ShardSnapshot[vector.Dense], shards)
	for j := range views {
		var part []vector.Dense
		for i := j; i < len(pts); i += shards {
			part = append(part, pts[i])
			views[j].IDs = append(views[j].IDs, int32(i))
		}
		ix, err := core.NewIndex(part, core.Config[vector.Dense]{
			Family:       lsh.NewPStableL2(6, 0.8),
			Distance:     distance.L2,
			Radius:       0.4,
			Delta:        0.1,
			L:            4,
			HLLRegisters: 16,
			HLLThreshold: 3,
			Cost:         core.CostModel{Alpha: 1, Beta: 8},
			Seed:         hashutil.Mix64(seed ^ (0x9e3779b97f4a7c15 * uint64(j+1))),
		})
		if err != nil {
			t.Fatal(err)
		}
		views[j].Index = ix
	}
	rebuilt, err := shard.Restore(views, int32(len(pts)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again := rewrite(t, rebuilt); !bytes.Equal(again, golden) {
		t.Fatalf("rebuilt per-shard structure writes %d bytes that differ from the golden %d", len(again), len(golden))
	}
	assertShardedIdentical(t, rebuilt, loaded, append(pts, denseData(tq, 6, 1235)...))
	if again := rewrite(t, loaded); !bytes.Equal(again, golden) {
		t.Fatal("re-writing the reload changed the golden snapshot")
	}
}
