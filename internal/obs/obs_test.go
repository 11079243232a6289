package obs

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/stats"
)

// mixedQueryStats is a two-shard fan-out where shard 0 answered via LSH
// (sketches merged, estimate 90 vs 100 actual) and shard 1 fell back to
// the linear scan.
func mixedQueryStats() shard.QueryStats {
	return shard.QueryStats{
		PerShard: []core.QueryStats{
			{
				Strategy: core.StrategyLSH, Collisions: 240,
				Estimated: true, EstCandidates: 90, Candidates: 100, Results: 7,
				LSHCost: 500, LinearCost: 2000,
				EstimateTime: 20 * time.Microsecond, SearchTime: 100 * time.Microsecond,
			},
			{
				Strategy: core.StrategyLinear, Collisions: 900,
				Estimated: false, EstCandidates: 950, Candidates: 1000, Results: 3,
				LSHCost: 2600, LinearCost: 2000,
				EstimateTime: 5 * time.Microsecond, SearchTime: 400 * time.Microsecond,
			},
		},
		LSHShards: 1, LinearShards: 1,
		Collisions: 1140, Candidates: 1100, Results: 10,
		MaxShardTime: 405 * time.Microsecond,
		WallTime:     450 * time.Microsecond,
	}
}

func TestNewQueryTrace(t *testing.T) {
	st := mixedQueryStats()
	tr := NewQueryTrace(st, core.CostModel{Alpha: 1.5, Beta: 2.5})
	if tr.Strategy != "mixed" || tr.LSHShards != 1 || tr.LinearShards != 1 {
		t.Fatalf("strategy summary = %q (%d/%d)", tr.Strategy, tr.LSHShards, tr.LinearShards)
	}
	if tr.Alpha != 1.5 || tr.Beta != 2.5 {
		t.Fatalf("cost model = %v/%v", tr.Alpha, tr.Beta)
	}
	if tr.Collisions != 1140 || tr.Candidates != 1100 || tr.Results != 10 {
		t.Fatalf("aggregates = %d/%d/%d", tr.Collisions, tr.Candidates, tr.Results)
	}
	if tr.EstCandidates != 90+950 {
		t.Fatalf("EstCandidates = %v, want %v", tr.EstCandidates, 90+950)
	}
	if tr.EstimateUS != 25 || tr.SearchUS != 500 || tr.MaxShardUS != 405 || tr.WallUS != 450 {
		t.Fatalf("times = %v/%v/%v/%v", tr.EstimateUS, tr.SearchUS, tr.MaxShardUS, tr.WallUS)
	}
	if tr.Probes != nil || tr.Radius != nil {
		t.Fatal("probes/radius set on a classic trace")
	}
	if len(tr.Shards) != 2 {
		t.Fatalf("len(Shards) = %d", len(tr.Shards))
	}
	s0 := tr.Shards[0]
	if s0.Shard != 0 || s0.Strategy != "lsh" || !s0.HLLMerged || s0.EstCandidates != 90 ||
		s0.LSHCost != 500 || s0.LinearCost != 2000 || s0.EstimateUS != 20 || s0.SearchUS != 100 {
		t.Fatalf("shard 0 trace = %+v", s0)
	}
	if s1 := tr.Shards[1]; s1.Strategy != "linear" || s1.HLLMerged {
		t.Fatalf("shard 1 trace = %+v", s1)
	}

	// Hashing shared by the shards counts once, in the estimate stage.
	st.HashTime = 10 * time.Microsecond
	if tr := NewQueryTrace(st, core.CostModel{Alpha: 1, Beta: 1}); tr.HashUS != 10 || tr.EstimateUS != 35 {
		t.Fatalf("hash/estimate = %v/%v, want 10/35", tr.HashUS, tr.EstimateUS)
	}

	uniform := st
	uniform.PerShard = st.PerShard[:1]
	uniform.LSHShards, uniform.LinearShards = 1, 0
	if tr := NewQueryTrace(uniform, core.CostModel{}); tr.Strategy != "lsh" {
		t.Fatalf("all-LSH strategy = %q", tr.Strategy)
	}
	uniform.LSHShards, uniform.LinearShards = 0, 1
	if tr := NewQueryTrace(uniform, core.CostModel{}); tr.Strategy != "linear" {
		t.Fatalf("all-linear strategy = %q", tr.Strategy)
	}
}

func TestQueryStatsHelpers(t *testing.T) {
	lsh := core.QueryStats{Strategy: core.StrategyLSH, LSHCost: 5, LinearCost: 9,
		Estimated: true, EstCandidates: 80, Candidates: 100}
	if got := lsh.ChosenCost(); got != 5 {
		t.Fatalf("ChosenCost(lsh) = %v", got)
	}
	if r, ok := lsh.EstimateErrorRatio(); !ok || r != 0.8 {
		t.Fatalf("EstimateErrorRatio = %v, %v; want 0.8", r, ok)
	}
	lin := core.QueryStats{Strategy: core.StrategyLinear, LSHCost: 5, LinearCost: 9,
		Estimated: true, EstCandidates: 80, Candidates: 100}
	if got := lin.ChosenCost(); got != 9 {
		t.Fatalf("ChosenCost(linear) = %v", got)
	}
	if _, ok := lin.EstimateErrorRatio(); ok {
		t.Fatal("linear answer reported an estimate-error ratio")
	}
	short := lsh
	short.Estimated = false
	if _, ok := short.EstimateErrorRatio(); ok {
		t.Fatal("short-circuited estimate reported a ratio")
	}
	empty := lsh
	empty.Candidates = 0
	if _, ok := empty.EstimateErrorRatio(); ok {
		t.Fatal("zero-candidate answer reported a ratio")
	}
}

func TestDriftMonitor(t *testing.T) {
	d := NewDriftMonitor(16)
	if s := d.Snapshot(); s.TimeRatio != 0 || s.EstimateError.Count != 0 {
		t.Fatalf("fresh snapshot = %+v", s)
	}
	// 10 LSH answers at 2 ns/cost-unit with estimate ratio 0.9, 10
	// linear answers at 1 ns/cost-unit.
	for i := 0; i < 10; i++ {
		d.Record(core.QueryStats{
			Strategy: core.StrategyLSH, Estimated: true,
			EstCandidates: 90, Candidates: 100,
			LSHCost: 500, LinearCost: 2000, SearchTime: 1000 * time.Nanosecond,
		})
		d.Record(core.QueryStats{
			Strategy: core.StrategyLinear,
			LSHCost:  2600, LinearCost: 2000, SearchTime: 2000 * time.Nanosecond,
		})
	}
	s := d.Snapshot()
	if s.EstimateError.Count != 10 || math.Abs(s.EstimateError.P50-0.9) > 1e-9 {
		t.Fatalf("estimate-error window = %+v", s.EstimateError)
	}
	if math.Abs(s.LSHNsPerCost.P50-2) > 1e-9 || math.Abs(s.LinearNsPerCost.P50-1) > 1e-9 {
		t.Fatalf("ns-per-cost p50s = %v / %v; want 2 / 1", s.LSHNsPerCost.P50, s.LinearNsPerCost.P50)
	}
	if math.Abs(s.TimeRatio-2) > 1e-9 {
		t.Fatalf("TimeRatio = %v, want 2", s.TimeRatio)
	}
	// Zero-cost and zero-time answers must not divide by zero or skew
	// the windows.
	d.Record(core.QueryStats{Strategy: core.StrategyLSH})
	if got := d.Snapshot().LSHNsPerCost.Count; got != 10 {
		t.Fatalf("zero-cost answer recorded: count = %d", got)
	}
	d.RecordQuery(mixedQueryStats())
	s = d.Snapshot()
	if s.LSHNsPerCost.Count != 11 || s.LinearNsPerCost.Count != 11 || s.EstimateError.Count != 11 {
		t.Fatalf("RecordQuery did not fold both shard answers: %+v", s)
	}
}

func TestServerMetricsRecordQuery(t *testing.T) {
	r := NewRegistry()
	m := NewServerMetrics(r, 64)
	const queries = 5
	for i := 0; i < queries; i++ {
		m.RecordQuery(mixedQueryStats())
	}
	exp := parse(t, r)
	if v, _ := exp.Value("hybridlsh_queries_total", nil); v != queries {
		t.Fatalf("queries_total = %v, want %d", v, queries)
	}
	for _, strat := range []string{"lsh", "linear"} {
		if v, _ := exp.Value("hybridlsh_shard_answers_total", map[string]string{"strategy": strat}); v != queries {
			t.Fatalf("shard_answers_total{%s} = %v, want %d", strat, v, queries)
		}
		if v, _ := exp.Value("hybridlsh_search_seconds_count", map[string]string{"strategy": strat}); v != queries {
			t.Fatalf("search_seconds_count{%s} = %v, want %d", strat, v, queries)
		}
	}
	if v, _ := exp.Value("hybridlsh_query_wall_seconds_count", nil); v != queries {
		t.Fatalf("wall_seconds_count = %v, want %d", v, queries)
	}
	// Only the sketch-merged LSH answer feeds the estimate-error
	// histogram: one observation of 0.9 per query.
	if v, _ := exp.Value("hybridlsh_estimate_error_ratio_count", nil); v != queries {
		t.Fatalf("estimate_error_ratio_count = %v, want %d", v, queries)
	}
	if v, _ := exp.Value("hybridlsh_estimate_error_ratio_bucket", map[string]string{"le": "0.9"}); v != queries {
		t.Fatalf("estimate_error_ratio le=0.9 = %v, want %d", v, queries)
	}
	// Drift gauges refresh on scrape.
	if v, _ := exp.Value("hybridlsh_drift_ns_per_cost", map[string]string{"strategy": "lsh"}); v <= 0 {
		t.Fatalf("drift_ns_per_cost{lsh} = %v, want > 0", v)
	}
	if v, _ := exp.Value("hybridlsh_drift_time_ratio", nil); v <= 0 {
		t.Fatalf("drift_time_ratio = %v, want > 0", v)
	}
}

func TestRegisterTopology(t *testing.T) {
	r := NewRegistry()
	fetched := 0
	RegisterTopology(r, func() shard.Stats {
		fetched++
		return shard.Stats{
			Shards:     2,
			ShardSizes: []int{30, 12}, Live: 40, Tombstones: 3,
			DeadInBuckets: []int{2, 0}, DeadTotal: 2,
			Compactions: []int64{1, 0}, CompactionsTotal: 1,
			ShardQueries:    []int64{7, 7},
			ShardQueryNanos: []int64{2_000_000_000, 1_000_000_000},
			ShardAppends:    []int64{5, 6},
			SharedKeys:      true,
			HashNanos:       3_000_000_000,
		}
	})
	exp := parse(t, r)
	if fetched != 1 {
		t.Fatalf("topology fetched %d times per scrape, want 1", fetched)
	}
	globals := map[string]float64{
		"hybridlsh_points_live":               40,
		"hybridlsh_tombstones_total":          3,
		"hybridlsh_dead_in_buckets":           2,
		"hybridlsh_compactions_total":         1,
		"hybridlsh_points_appended_total":     11,
		"hybridlsh_shards":                    2,
		"hybridlsh_shared_hash_seconds_total": 3,
	}
	for name, want := range globals {
		if v, ok := exp.Value(name, nil); !ok || v != want {
			t.Fatalf("%s = %v, %v; want %v", name, v, ok, want)
		}
	}
	perShard := map[string][2]float64{
		"hybridlsh_shard_points":        {30, 12},
		"hybridlsh_shard_dead":          {2, 0},
		"hybridlsh_shard_compactions":   {1, 0},
		"hybridlsh_shard_queries":       {7, 7},
		"hybridlsh_shard_query_seconds": {2, 1},
		"hybridlsh_shard_appends":       {5, 6},
	}
	for name, want := range perShard {
		for j, w := range want {
			if v, ok := exp.Value(name, map[string]string{"shard": shardLabel(j)}); !ok || v != w {
				t.Fatalf("%s{shard=%d} = %v, %v; want %v", name, j, v, ok, w)
			}
		}
	}
}

func TestShardLabel(t *testing.T) {
	for _, tc := range []struct {
		j    int
		want string
	}{{0, "0"}, {9, "9"}, {10, "10"}, {12, "12"}, {128, "128"}} {
		if got := shardLabel(tc.j); got != tc.want {
			t.Fatalf("shardLabel(%d) = %q, want %q", tc.j, got, tc.want)
		}
	}
}

func TestRegisterLatencyRecorder(t *testing.T) {
	r := NewRegistry()
	rec := stats.NewRecorder(8)
	for _, v := range []float64{10, 20, 30, 40} {
		rec.Observe(v)
	}
	RegisterLatencyRecorder(r, rec)
	exp := parse(t, r)
	if v, _ := exp.Value("hybridlsh_latency_observations_total", nil); v != 4 {
		t.Fatalf("observations_total = %v, want 4", v)
	}
	if v, _ := exp.Value("hybridlsh_latency_p50_us", nil); v <= 0 {
		t.Fatalf("p50 gauge = %v, want > 0", v)
	}
}
