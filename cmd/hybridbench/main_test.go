package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
)

func tinyCfg() bench.Config {
	cfg := bench.DefaultConfig(0.005)
	cfg.Queries = 5
	cfg.Runs = 1
	return cfg
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", tinyCfg(), "", nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunSingleFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	for _, exp := range []string{"fig2a", "fig2d", "fig3"} {
		if err := run(exp, tinyCfg(), t.TempDir(), nil); err != nil {
			t.Errorf("run(%q): %v", exp, err)
		}
	}
}

func TestRunTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	if err := run("table1", tinyCfg(), t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
}

// TestJSONReport runs one figure with a report attached and checks the
// written file round-trips with the expected schema and content.
func TestJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	cfg := tinyCfg()
	rep := bench.NewJSONReport(cfg)
	if err := run("fig2a", cfg, "", rep); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.WriteJSON(f, rep); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	var got bench.JSONReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if got.Schema != bench.JSONSchema {
		t.Errorf("schema = %q, want %q", got.Schema, bench.JSONSchema)
	}
	if got.Config.Queries != cfg.Queries || got.Config.Seed != cfg.Seed {
		t.Errorf("config round-trip = %+v, want %+v", got.Config, cfg)
	}
	if len(got.Figures) != 1 || len(got.Figures[0].Rows) == 0 {
		t.Fatalf("report has %d figures, want 1 with rows", len(got.Figures))
	}
	if got.Figures[0].ID != "fig2a" || !got.Figures[0].Calibrated {
		t.Errorf("figure id/calibrated = %q/%v, want fig2a/true", got.Figures[0].ID, got.Figures[0].Calibrated)
	}
	if got.Figures[0].Dataset == "" || got.Figures[0].N == 0 {
		t.Errorf("figure metadata missing: %+v", got.Figures[0])
	}
}
