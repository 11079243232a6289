package main

// heavy maps every per-layer metric the traced run measures to the
// workload where its layer does the most work, where the self-test
// requires it to be non-zero. BENCHMARK.json lists which of them a run
// reports, and their units.
var heavy = map[string]string{
	"http.overhead_us":            "corel-query",
	"http.resp_bytes_per_query":   "corel-query",
	"router.hop_us":               "replicated-rw",
	"router.hedge_rate":           "replicated-rw",
	"hybridserve.cpu_us_per_op":   "corel-query",
	"obs.record_us":               "corel-query",
	"shard.fanout_us":             "dense128-batch",
	"shard.allocs_per_query":      "dense128-batch",
	"core.query_us":               "corel-query",
	"core.lsh_share":              "corel-query",
	"core.merge_share":            "corel-query",
	"core.dedup_us":               "corel-query",
	"core.dup_ratio":              "corel-query",
	"lsh.hash_us":                 "dense128-batch",
	"lsh.lookup_us":               "dense128-batch",
	"lsh.build_s":                 "corel-query",
	"hll.merge_us":                "corel-query",
	"pointstore.verify_us":        "corel-query",
	"pointstore.scan_us":          "corel-query",
	"pointstore.cands_per_result": "corel-query",
	"multiprobe.query_us":         "replicated-rw",
	"persist.snapshot_write_s":    "corel-query",
	"persist.snapshot_load_s":     "corel-query",
	"persist.snapshot_bytes":      "corel-query",
	"shard.append_us":             "replicated-rw",
	"shard.delete_us":             "replicated-rw",
	"shard.compactions":           "replicated-rw",
	"replica.wal_append_us":       "replicated-rw",
	"replica.wal_bytes_per_write": "replicated-rw",
	"replica.replay_us":           "replicated-rw",
	"replica.lag_ms":              "replicated-rw",
	"trace_overhead_pct":          "corel-query",
}
