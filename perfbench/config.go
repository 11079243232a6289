package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// The shape of a run, the same for every workload.
const (
	// setupReps is how many times a run builds, snapshots and boots;
	// setup_s is their median.
	setupReps = 5
	// truthSample is the number of held-out queries recall is measured
	// on, kept out of the request stream.
	truthSample = 200
	// openShare is the share of --seconds spent in open-loop phases; the
	// rest is the closed-loop throughput phases.
	openShare = 0.75
	// cycles splits the measured time into this many alternating
	// open-loop and closed-loop phases.
	cycles = 6
)

// workloadsJSON holds every workload's parameters and the reasons for
// them; BENCHMARK.json names the workloads and metrics, this file says
// how each workload is generated and driven.
//
//go:embed workloads.json
var workloadsJSON []byte

// Config is the parsed workloads.json plus the metric list of
// BENCHMARK.json.
type Config struct {
	// Delta is the per-point failure probability the indexes are built
	// for; the recall floor derives from it.
	Delta float64 `json:"delta"`
	// PinnedServerFlags are appended to every hybridserve command line;
	// workloads.json gives the reason next to them.
	PinnedServerFlags []string   `json:"pinned_server_flags"`
	Workloads         []Workload `json:"workloads"`

	// EndToEnd and PerLayer are the metrics BENCHMARK.json lists, in its
	// order: a timed run reports the first, a traced run the second.
	EndToEnd, PerLayer []metricDef `json:"-"`
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// Workload is one traffic mix over one generated corpus.
type Workload struct {
	Name   string    `json:"name"`
	Data   DataSpec  `json:"data"`
	Radius float64   `json:"radius"`
	Index  IndexSpec `json:"index"`
	// Topology is "single" (one hybridserve loaded from the snapshot) or
	// "replicated" (a -waldir writer, one -hydrate follower, a router).
	Topology string `json:"topology"`
	// Batch is the number of points per read request: 1 sends /query,
	// more sends /batch.
	Batch int `json:"batch"`
	// ReadRate is the open-loop read request rate (requests/s).
	ReadRate float64    `json:"read_rate"`
	Writes   *WriteSpec `json:"writes,omitempty"`
	// WarmupRequests are sent closed-loop before any timing.
	WarmupRequests int `json:"warmup_requests"`
	// LatencyLimitUS is the workload's stated SLO, printed beside the
	// measured tails.
	LatencyLimitUS LatencyLimits `json:"latency_limit_us"`
}

// DataSpec parameterises a workload's generator. The corpus is drawn
// from CorpusSeed, fixed per workload the way the paper's datasets are
// fixed; --seed picks the held-out queries, hash functions, request
// order and write stream.
type DataSpec struct {
	Kind       string  `json:"kind"` // "corel" or "mixture"
	CorpusSeed uint64  `json:"corpus_seed"`
	Scale      float64 `json:"scale,omitempty"`
	N          int     `json:"n,omitempty"`
	Dim        int     `json:"dim,omitempty"`
	Clusters   int     `json:"clusters,omitempty"`
	Exponent   float64 `json:"exponent,omitempty"`
	SigmaMin   float64 `json:"sigma_min,omitempty"`
	SigmaMax   float64 `json:"sigma_max,omitempty"`
	Queries    int     `json:"queries"`
	// Jitter is the per-coordinate Gaussian σ added to a held-out query
	// each time the stream wraps around, so no point is sent twice.
	Jitter float64 `json:"jitter"`
}

// IndexSpec picks the root constructor and its options.
type IndexSpec struct {
	Kind   string `json:"kind"` // "classic" or "multiprobe"
	Shards int    `json:"shards"`
	Probes int    `json:"probes,omitempty"`
	Tables int    `json:"tables,omitempty"`
}

// WriteSpec is replicated-rw's open-loop write stream, sent to the
// writer beside the reads.
type WriteSpec struct {
	AppendRate   float64 `json:"append_rate"`
	AppendPoints int     `json:"append_points"`
	DeleteRate   float64 `json:"delete_rate"`
	DeleteIDs    int     `json:"delete_ids"`
}

// LatencyLimits are the workload's stated SLO (read and write p99).
type LatencyLimits struct {
	ReadP99  float64 `json:"read_p99"`
	WriteP99 float64 `json:"write_p99"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// loadConfig parses the embedded workloads.json and reads the metric
// list from the BENCHMARK.json at benchPath. Every workload there must
// be defined here, and every per-layer metric must be one the traced
// run measures (a key of heavy).
func loadConfig(benchPath string) (*Config, error) {
	var c Config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return nil, err
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", benchPath, err)
	}
	for _, w := range bj.Workloads {
		if _, err := c.workload(w.Name); err != nil {
			return nil, fmt.Errorf("%s: %w", benchPath, err)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), bj.EndToEnd...), bj.PerLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			return nil, fmt.Errorf("%s: metric name %q is malformed or repeated", benchPath, m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range bj.PerLayer {
		if _, ok := heavy[m.Name]; !ok {
			return nil, fmt.Errorf("%s: the traced run does not measure per-layer metric %q", benchPath, m.Name)
		}
	}
	c.EndToEnd, c.PerLayer = bj.EndToEnd, bj.PerLayer
	return &c, nil
}

func (c *Config) workload(name string) (*Workload, error) {
	for i := range c.Workloads {
		if c.Workloads[i].Name == name {
			return &c.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
