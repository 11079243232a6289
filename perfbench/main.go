// Command perfbench is the repository's end-to-end benchmark: it
// generates a workload's data from a seed, builds the index through the
// root constructors, serves it from real hybridserve (and hybridrouter)
// processes loaded from a snapshot, drives them over loopback, checks
// every answer, and prints the metrics named in BENCHMARK.json.
//
//	bash perfbench/run.sh --workload corel-query --seed 1 --seconds 12 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation in
// the loop. --trace 1 is the separate traced run: it replays the same
// request stream through each layer's public functions in process,
// records spans, and reports the per-layer metrics. The last line of
// standard output is always the one-line JSON result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runEnv is what a run needs besides its workload.
type runEnv struct {
	cfg     *Config
	binDir  string // hybridserve and hybridrouter binaries
	workDir string // snapshots, WALs, logs, spans, reports
	seed    uint64
	seconds float64
}

// metric is one named, unit-carrying number of a report.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything a run measured.
type report struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    []metric          `json:"metrics"`
	Properties []metric          `json:"properties"`
	Meta       map[string]string `json:"meta"`
	Breaches   []string          `json:"breaches,omitempty"`
}

func (r *report) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

func (r *report) prop(name string, v float64, unit string) {
	r.Properties = append(r.Properties, metric{name, v, unit})
}

// breach records a correctness failure; any breach fails the run.
func (r *report) breach(format string, args ...any) {
	r.Breaches = append(r.Breaches, fmt.Sprintf(format, args...))
}

// print writes the human-readable table and, last, the one-line result.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", r.Workload, r.Seed, r.Trace)
	keys := make([]string, 0, len(r.Meta))
	for k := range r.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "meta     %-28s %s\n", k, r.Meta[k])
	}
	for _, p := range r.Properties {
		fmt.Fprintf(w, "property %-28s %.6g %s\n", p.Name, p.Value, p.Unit)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "metric   %-28s %.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, b := range r.Breaches {
		fmt.Fprintf(w, "BREACH   %s\n", b)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = val{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see workloads.json)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 12, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	binDir := fs.String("bin", "", "directory holding the hybridserve and hybridrouter binaries")
	workDir := fs.String("work", "", "working directory for snapshots, WALs, logs and reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *binDir == "" || *workDir == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, --seconds > 0 and --trace 0|1")
		return 2
	}
	// run.sh starts the benchmark from the repository root.
	cfg, err := loadConfig("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, err := cfg.workload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir := filepath.Join(*workDir, fmt.Sprintf("%s-seed%d-trace%d-%d", w.Name, *seed, *trace, time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := &runEnv{cfg: cfg, binDir: *binDir, workDir: dir, seed: *seed, seconds: *seconds}
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(ctx, env, w)
	} else {
		rep, err = runTimed(ctx, env, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.Meta = runMeta(env)
	rep.Correct = len(rep.Breaches) == 0 && rep.Failed == 0
	if b, err := json.MarshalIndent(rep, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(dir, "report.json"), b, 0o644) // a convenience copy; stdout is authoritative
	}
	// Snapshots and WALs are large; the report, logs and spans stay.
	for _, pat := range []string{"*.snap", "wal*"} {
		matches, _ := filepath.Glob(filepath.Join(dir, pat))
		for _, m := range matches {
			os.RemoveAll(m)
		}
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness breach:", strings.Join(rep.Breaches, "; "))
		return 1
	}
	return 0
}
