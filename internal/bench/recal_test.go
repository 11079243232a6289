package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRecalExperiment(t *testing.T) {
	cfg := DefaultConfig(0.02)
	cfg.Queries = 30
	res, err := RecalExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != cfg.Queries || res.Shards != 4 || res.Answers != cfg.Queries*res.Shards {
		t.Fatalf("shape mismatch: %+v", res)
	}
	if res.SkewFactor < recalSkews[len(recalSkews)-1] {
		t.Fatalf("skew factor %v not from %v", res.SkewFactor, recalSkews)
	}
	if res.FreshBetaOverAlpha <= 0 || res.SkewedBetaOverAlpha <= 0 || res.RefitBetaOverAlpha <= 0 {
		t.Fatalf("degenerate model ratios: %+v", res)
	}
	// The experiment's acceptance invariant, same as the CI gate: at
	// least one refit adopted, and agreement with the fresh model's
	// decisions must not get worse.
	if res.Refits < 1 {
		t.Fatalf("no refit adopted: %+v", res)
	}
	if res.MatchAfter < res.MatchBefore {
		t.Fatalf("refits lost decision agreement: before %.2f, after %.2f", res.MatchBefore, res.MatchAfter)
	}
	if res.MatchBefore < 0 || res.MatchBefore > 1 || res.MatchAfter < 0 || res.MatchAfter > 1 {
		t.Fatalf("match fractions outside [0,1]: %+v", res)
	}

	var out bytes.Buffer
	PrintRecal(&out, res)
	if !strings.Contains(out.String(), "refitted") {
		t.Errorf("PrintRecal output missing refitted row: %q", out.String())
	}

	rep := NewJSONReport(cfg)
	rep.AddRecal(res)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Recal *struct {
			Refits      *int64   `json:"refits"`
			MatchBefore *float64 `json:"match_before"`
			MatchAfter  *float64 `json:"match_after"`
		} `json:"recal"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Recal == nil || decoded.Recal.Refits == nil ||
		decoded.Recal.MatchBefore == nil || decoded.Recal.MatchAfter == nil {
		t.Fatalf("report JSON missing recal gate fields: %s", buf.String())
	}
}

func TestCacheExperiment(t *testing.T) {
	cfg := DefaultConfig(0.02)
	cfg.Queries = 30
	res, err := CacheExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct != cfg.Queries || res.Stream != 20*cfg.Queries {
		t.Fatalf("shape mismatch: %+v", res)
	}
	// The CI gate's invariants: cached answers id-identical to uncached
	// ones, deletes never resurrected, and the Zipf stream actually hit.
	if res.Mismatches != 0 {
		t.Fatalf("%d cached answers differ from uncached baselines", res.Mismatches)
	}
	if res.StaleAfterDelete != 0 {
		t.Fatalf("cache served a stale answer after a delete: %+v", res)
	}
	if res.Hits < 1 || res.HitRate <= 0 || res.HitRate > 1 {
		t.Fatalf("degenerate hit accounting: %+v", res)
	}
	if res.UncachedP50US <= 0 || res.CachedP50US <= 0 {
		t.Fatalf("degenerate timings: %+v", res)
	}

	var out bytes.Buffer
	PrintCache(&out, res)
	if !strings.Contains(out.String(), "hit rate") {
		t.Errorf("PrintCache output missing summary: %q", out.String())
	}

	rep := NewJSONReport(cfg)
	rep.AddCache(res)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Cache *struct {
			Mismatches       *int64 `json:"mismatches"`
			StaleAfterDelete *int64 `json:"stale_after_delete"`
			Hits             *int64 `json:"hits"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Cache == nil || decoded.Cache.Mismatches == nil ||
		decoded.Cache.StaleAfterDelete == nil || decoded.Cache.Hits == nil {
		t.Fatalf("report JSON missing cache gate fields: %s", buf.String())
	}
}
