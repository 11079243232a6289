package obs

import (
	"repro/internal/core"
	"repro/internal/shard"
)

// ShardTrace is one shard's slice of a fanned-out query: the complete
// Algorithm-2 record of the decision that shard made. Times are
// microseconds (matching the serving API's wall_us).
type ShardTrace struct {
	// Shard is the shard index the record belongs to.
	Shard int `json:"shard"`
	// Strategy is "lsh" or "linear" — the path that answered.
	Strategy string `json:"strategy"`
	// Collisions is Σ bucket sizes over the probed buckets (exact).
	Collisions int `json:"collisions"`
	// HLLMerged reports whether the decision actually merged the bucket
	// sketches; false means a collision-count bound short-circuited it
	// and EstCandidates holds that bound.
	HLLMerged bool `json:"hll_merged"`
	// EstCandidates is the HLL candidate-size estimate (or the
	// short-circuit bound) the decision compared costs with.
	EstCandidates float64 `json:"est_candidates"`
	// Candidates is the number of distinct candidates actually examined
	// (n for a linear answer) — the ground truth EstCandidates tried to
	// predict on the LSH path.
	Candidates int `json:"candidates"`
	// Results is the shard's report size before tombstone filtering.
	Results int `json:"results"`
	// LSHCost and LinearCost are the two sides of Equation (1) vs (2).
	LSHCost    float64 `json:"lsh_cost"`
	LinearCost float64 `json:"linear_cost"`
	// EstimateUS and SearchUS split the shard's time into Algorithm-2
	// steps 1–3 (bucket lookup, HLL merge, cost comparison) and the
	// chosen search.
	EstimateUS float64 `json:"estimate_us"`
	SearchUS   float64 `json:"search_us"`
}

// QueryTrace is the full decision trace of one served query: the
// aggregate view plus every shard's Algorithm-2 record. It is echoed on
// /query responses when the request sets "trace": true and feeds the
// sampled access log.
type QueryTrace struct {
	// Strategy summarizes the fan-out: "lsh" or "linear" when every
	// shard agreed, "mixed" otherwise.
	Strategy string `json:"strategy"`
	// LSHShards and LinearShards count the per-shard decisions.
	LSHShards    int `json:"lsh_shards"`
	LinearShards int `json:"linear_shards"`
	// Collisions, EstCandidates and Candidates are summed over shards.
	Collisions    int     `json:"collisions"`
	EstCandidates float64 `json:"est_candidates"`
	Candidates    int     `json:"candidates"`
	// Results is the merged report size after tombstone filtering.
	Results int `json:"results"`
	// Alpha and Beta are the cost model the decisions used.
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	// Probes is the effective extra-probe count (multi-probe backends
	// only); Radius the effective reporting radius (covering backends
	// only).
	Probes *int `json:"probes,omitempty"`
	Radius *int `json:"radius,omitempty"`
	// HashUS is the query's hashing when the shards share it (computed
	// once, before the fan-out; 0 when every shard hashes on its own).
	// EstimateUS sums HashUS and the per-shard estimate splits, SearchUS
	// the per-shard search splits; MaxShardUS is the fan-out's critical
	// path (HashUS plus the slowest shard) and WallUS the end-to-end
	// latency including merge and tombstone filtering.
	HashUS     float64 `json:"hash_us"`
	EstimateUS float64 `json:"estimate_us"`
	SearchUS   float64 `json:"search_us"`
	MaxShardUS float64 `json:"max_shard_us"`
	WallUS     float64 `json:"wall_us"`
	// Shards holds the per-shard records, indexed by shard.
	Shards []ShardTrace `json:"shards"`
}

// us converts nanoseconds to fractional microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// NewQueryTrace assembles the decision trace of one fanned-out query
// from the shard layer's aggregated stats and the index's cost model.
func NewQueryTrace(st shard.QueryStats, cost core.CostModel) *QueryTrace {
	tr := &QueryTrace{
		LSHShards:    st.LSHShards,
		LinearShards: st.LinearShards,
		Collisions:   st.Collisions,
		Candidates:   st.Candidates,
		Results:      st.Results,
		Alpha:        cost.Alpha,
		Beta:         cost.Beta,
		HashUS:       us(st.HashTime.Nanoseconds()),
		EstimateUS:   us(st.HashTime.Nanoseconds()),
		MaxShardUS:   us(st.MaxShardTime.Nanoseconds()),
		WallUS:       us(st.WallTime.Nanoseconds()),
		Shards:       make([]ShardTrace, len(st.PerShard)),
	}
	switch {
	case st.LinearShards == 0:
		tr.Strategy = core.StrategyLSH.String()
	case st.LSHShards == 0:
		tr.Strategy = core.StrategyLinear.String()
	default:
		tr.Strategy = "mixed"
	}
	for j, qs := range st.PerShard {
		tr.EstCandidates += qs.EstCandidates
		tr.EstimateUS += us(qs.EstimateTime.Nanoseconds())
		tr.SearchUS += us(qs.SearchTime.Nanoseconds())
		tr.Shards[j] = ShardTrace{
			Shard:         j,
			Strategy:      qs.Strategy.String(),
			Collisions:    qs.Collisions,
			HLLMerged:     qs.Estimated,
			EstCandidates: qs.EstCandidates,
			Candidates:    qs.Candidates,
			Results:       qs.Results,
			LSHCost:       qs.LSHCost,
			LinearCost:    qs.LinearCost,
			EstimateUS:    us(qs.EstimateTime.Nanoseconds()),
			SearchUS:      us(qs.SearchTime.Nanoseconds()),
		}
	}
	return tr
}
