package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	hybridlsh "repro"
)

// mustRaw marshals a point into the raw JSON form the backend parses.
func mustRaw(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func multiProbeConfig() config {
	cfg := testConfig()
	cfg.probes = 16
	cfg.tables = 10
	return cfg
}

// TestMultiProbeQueryEndToEnd: a -probes server must answer exactly
// what the library answers on the same index, report the effective T,
// and accept per-request overrides. LSH misses each true neighbor with
// probability up to δ on any draw, so the served answers are checked
// against ground truth only where a draw cannot matter: every id lies
// within r, and recall over the queries stays at least 1 − δ.
func TestMultiProbeQueryEndToEnd(t *testing.T) {
	cfg := multiProbeConfig()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	lib := s.be.(*engine[hybridlsh.Dense]).store()
	points := seedDense(cfg.n, cfg.dim, cfg.seed)

	nonEmpty := 0
	found := map[int]int{} // per T: true neighbors served
	total := 0
	for qi := 0; qi < 10; qi++ {
		q := points[qi*37]
		truth := hybridlsh.GroundTruth(points, q, cfg.radius)
		total += len(truth)
		if len(truth) > 0 {
			nonEmpty++
		}
		// The configured T, then a wider per-request override that the
		// response must echo as the effective T.
		for _, probes := range []int{cfg.probes, 32} {
			body := map[string]any{"point": toFloats(q)}
			if probes != cfg.probes {
				body["probes"] = probes
			}
			var res queryResult
			post(t, ts.URL+"/query", body, http.StatusOK, &res)
			want, _, err := lib.QueryProbes(q, probes)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sortedIDs(res.IDs), sortedIDs(want)) {
				t.Errorf("query %d T=%d: served ids (%d) != library answer (%d)", qi, probes, len(res.IDs), len(want))
			}
			for _, id := range res.IDs {
				if !slices.Contains(truth, id) {
					t.Errorf("query %d T=%d: served id %d lies outside r", qi, probes, id)
				}
			}
			found[probes] += len(res.IDs)
			if res.Probes == nil || *res.Probes != probes {
				t.Errorf("query %d: response probes = %v, want %d", qi, res.Probes, probes)
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every query had empty ground truth; test instance broken")
	}
	for probes, n := range found {
		if recall := float64(n) / float64(total); recall < 1-0.1 {
			t.Errorf("T=%d: recall %.3f over the queries, want >= 1-δ = 0.9", probes, recall)
		}
	}

	// Batch with an override.
	q0, q1 := points[0], points[37]
	var batch struct {
		Results []queryResult `json:"results"`
	}
	post(t, ts.URL+"/batch", map[string]any{
		"points": []any{toFloats(q0), toFloats(q1)}, "probes": 16,
	}, http.StatusOK, &batch)
	if len(batch.Results) != 2 {
		t.Fatalf("batch returned %d results, want 2", len(batch.Results))
	}
	for i, r := range batch.Results {
		if r.Probes == nil || *r.Probes != 16 {
			t.Errorf("batch result %d probes = %v, want 16", i, r.Probes)
		}
	}

	// Probe counters in /stats: 20 single queries + 10 overrides + 2
	// batch members, all probed.
	var st struct {
		MultiProbe struct {
			Enabled         bool  `json:"enabled"`
			Probes          int   `json:"probes"`
			ProbedQueries   int64 `json:"probed_queries"`
			ProbesUsedTotal int64 `json:"probes_used_total"`
			OverrideQueries int64 `json:"override_queries"`
		} `json:"multiprobe"`
	}
	get(t, ts.URL+"/stats", &st)
	if !st.MultiProbe.Enabled || st.MultiProbe.Probes != cfg.probes {
		t.Fatalf("stats multiprobe = %+v, want enabled with T=%d", st.MultiProbe, cfg.probes)
	}
	if st.MultiProbe.ProbedQueries != 22 {
		t.Errorf("probed_queries = %d, want 22", st.MultiProbe.ProbedQueries)
	}
	if st.MultiProbe.OverrideQueries != 12 {
		t.Errorf("override_queries = %d, want 12", st.MultiProbe.OverrideQueries)
	}
	if want := int64(10*cfg.probes + 10*32 + 2*16); st.MultiProbe.ProbesUsedTotal != want {
		t.Errorf("probes_used_total = %d, want %d", st.MultiProbe.ProbesUsedTotal, want)
	}
}

// TestMultiProbeOverrideRejectedOnClassic: a classic server must reject
// the "probes" field instead of silently ignoring it.
func TestMultiProbeOverrideRejectedOnClassic(t *testing.T) {
	cfg := testConfig()
	ts := startServer(t, cfg)
	points := seedDense(cfg.n, cfg.dim, cfg.seed)
	var out map[string]any
	post(t, ts.URL+"/query", map[string]any{"point": toFloats(points[0]), "probes": 5},
		http.StatusBadRequest, &out)
	post(t, ts.URL+"/batch", map[string]any{"points": []any{toFloats(points[0])}, "probes": 5},
		http.StatusBadRequest, &out)

	// And /stats reports the mode as disabled.
	var st struct {
		MultiProbe struct {
			Enabled bool `json:"enabled"`
		} `json:"multiprobe"`
	}
	get(t, ts.URL+"/stats", &st)
	if st.MultiProbe.Enabled {
		t.Fatal("classic server reports multiprobe enabled")
	}
}

func TestMultiProbeBadOverrides(t *testing.T) {
	cfg := multiProbeConfig()
	ts := startServer(t, cfg)
	points := seedDense(cfg.n, cfg.dim, cfg.seed)
	var out map[string]any
	post(t, ts.URL+"/query", map[string]any{"point": toFloats(points[0]), "probes": -1},
		http.StatusBadRequest, &out)
	// Oversized overrides are clamped, not rejected.
	var res queryResult
	post(t, ts.URL+"/query", map[string]any{"point": toFloats(points[0]), "probes": maxProbeOverride * 10},
		http.StatusOK, &res)
	if res.Probes == nil || *res.Probes != maxProbeOverride {
		t.Fatalf("huge override answered with probes = %v, want clamp to %d", res.Probes, maxProbeOverride)
	}
}

// TestMultiProbeSnapshotWarmRestart: the snapshot records the probe
// configuration, so a restarted server keeps serving multi-probe with
// identical answers — even when the boot flags say otherwise.
func TestMultiProbeSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "index.snap")

	cfg := multiProbeConfig()
	cfg.snapshot = snap
	s1, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	points := seedDense(cfg.n, cfg.dim, cfg.seed)

	// Delete some points so the restart must preserve tombstones too,
	// then snapshot.
	del := []int32{3, 5, 8, 13, 21}
	s1.be.remove(del)
	if _, err := s1.be.snapshot(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatal(err)
	}

	pre := make([][]int32, 8)
	for qi := range pre {
		res, err := s1.be.query(mustRaw(t, toFloats(points[qi*41])), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		pre[qi] = sortedIDs(res.IDs)
	}

	// Boot a second server from the snapshot with classic flags: the
	// snapshot must win and restore the multi-probe mode.
	cfg2 := testConfig()
	cfg2.snapshot = snap
	cfg2.probes = 0
	s2, err := newServer(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.loadedFrom != snap {
		t.Fatalf("second server did not warm-start (loadedFrom = %q)", s2.loadedFrom)
	}
	if s2.cfg.probes != cfg.probes {
		t.Fatalf("restored probes = %d, want %d", s2.cfg.probes, cfg.probes)
	}
	for qi := range pre {
		res, err := s2.be.query(mustRaw(t, toFloats(points[qi*41])), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sortedIDs(res.IDs), pre[qi]) {
			t.Fatalf("query %d: restored answers differ from live answers", qi)
		}
		if res.Probes == nil || *res.Probes != cfg.probes {
			t.Fatalf("query %d: restored server answered with probes = %v, want %d", qi, res.Probes, cfg.probes)
		}
	}
}
