package hybridlsh

import (
	"fmt"

	"repro/internal/core"
)

// Option customizes index construction. The defaults reproduce the paper's
// experimental setting: δ = 0.1, L = 50 tables, m = 128 HLL registers,
// k solved from the family's p₁(r) (or the paper's fixed k for the
// p-stable families).
type Option func(*options)

type options struct {
	delta         float64
	tables        int
	k             int
	hllRegs       int
	hllThresh     int
	seed          uint64
	cost          core.CostModel
	slotWidth     float64
	shards        int
	compactThresh float64
	probes        int
	radius        int
	cacheSize     int
}

// shardCount resolves the shard count for the sharded constructors
// (default 4).
func (o options) shardCount() int {
	if o.shards == 0 {
		return 4
	}
	return o.shards
}

func applyOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// overlay applies the collected options onto a metric-specific base config.
func overlay[P any](o options, base core.Config[P]) core.Config[P] {
	base.Delta = o.delta
	base.L = o.tables
	base.K = o.k
	base.HLLRegisters = o.hllRegs
	base.HLLThreshold = o.hllThresh
	base.Seed = o.seed
	base.Cost = o.cost
	return base
}

func errEmpty(fn string) error {
	return fmt.Errorf("hybridlsh: %s on empty point set", fn)
}

// WithDelta sets the per-point failure probability δ ∈ (0, 1); each true
// r-near neighbor is reported with probability ≥ 1 − δ. Default 0.1.
func WithDelta(delta float64) Option { return func(o *options) { o.delta = delta } }

// WithTables sets the number of hash tables L. Default 50.
func WithTables(l int) Option { return func(o *options) { o.tables = l } }

// WithK fixes the concatenation length k instead of solving it from p₁(r).
func WithK(k int) Option { return func(o *options) { o.k = k } }

// WithHLLRegisters sets the HyperLogLog register count m (power of two,
// 16–65536). Default 128 (≤ ~9% standard estimate error).
func WithHLLRegisters(m int) Option { return func(o *options) { o.hllRegs = m } }

// WithHLLThreshold sets the minimum bucket size that receives a pre-built
// sketch; smaller buckets are folded into the query-time merge on demand.
// Default: the register count m.
func WithHLLThreshold(t int) Option { return func(o *options) { o.hllThresh = t } }

// WithSeed fixes the construction seed for reproducibility. Default 0.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithCostModel supplies calibrated cost constants (see Calibrate). The
// default model uses β/α = 8.
func WithCostModel(c CostModel) Option { return func(o *options) { o.cost = c } }

// WithShards sets the partition count of the sharded constructors
// (NewShardedL2Index, NewShardedHammingIndex); plain constructors ignore
// it. Default 4; the constructors clamp it to the point count.
func WithShards(s int) Option {
	return func(o *options) {
		if s < 1 {
			panic(fmt.Sprintf("hybridlsh: WithShards(%d), want >= 1", s))
		}
		o.shards = s
	}
}

// WithCompactionThreshold sets the sharded constructors' auto-compaction
// trigger: a shard is compacted — dead points dropped from its buckets,
// sketches rebuilt from live ids, hash functions kept — once Delete
// pushes its tombstoned-point ratio above t. Default 0.20; t >= 1
// disables auto-compaction (explicit Compact/CompactAll still work).
// Plain (unsharded) constructors ignore it.
func WithCompactionThreshold(t float64) Option {
	return func(o *options) {
		if t <= 0 {
			panic(fmt.Sprintf("hybridlsh: WithCompactionThreshold(%v), want > 0", t))
		}
		o.compactThresh = t
	}
}

// WithCache installs a result cache of the given entry capacity on the
// sharded constructors: repeated queries (bit-identical points, same
// probe/radius override) are answered from an LRU without fanning out,
// and generation counters bumped by Append/Delete/Compact guarantee a
// cached answer is never served across a mutation — no resurrected
// tombstones, no missed new points. Plain (unsharded) constructors
// ignore it. Default: no cache.
func WithCache(entries int) Option {
	return func(o *options) {
		if entries < 1 {
			panic(fmt.Sprintf("hybridlsh: WithCache(%d), want >= 1", entries))
		}
		o.cacheSize = entries
	}
}

// WithProbes sets T, the number of extra buckets a multi-probe index
// probes per table beyond the home bucket (NewMultiProbeL2Index,
// NewShardedMultiProbeL2Index; ignored by the classic constructors).
// Default 10. Larger T raises recall at fixed (k, L) — the multi-probe
// trade: fewer tables, more probes per table.
func WithProbes(t int) Option {
	return func(o *options) {
		if t < 1 {
			panic(fmt.Sprintf("hybridlsh: WithProbes(%d), want >= 1", t))
		}
		o.probes = t
	}
}

// WithRadius sets the integer covering radius r of the covering-LSH
// constructors (NewCoveringHammingIndex, NewShardedCoveringHammingIndex;
// ignored by every other constructor, whose radius is the float argument
// they take directly). Default covering.DefaultRadius = 2. A covering
// index maintains 2^(r+1) − 1 tables, so r is capped at 12.
func WithRadius(r int) Option {
	return func(o *options) {
		if r < 1 {
			panic(fmt.Sprintf("hybridlsh: WithRadius(%d), want >= 1", r))
		}
		o.radius = r
	}
}

// WithSlotWidth overrides the p-stable slot width w (L1/L2 indexes only;
// ignored elsewhere). Defaults: w = 4r for L1, w = 2r for L2, the paper's
// settings.
func WithSlotWidth(w float64) Option {
	return func(o *options) {
		if w <= 0 {
			panic(fmt.Sprintf("hybridlsh: WithSlotWidth(%v), want > 0", w))
		}
		o.slotWidth = w
	}
}
