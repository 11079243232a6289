// Command hybridbench regenerates every table and figure of the paper's
// evaluation (Section 4) on the synthetic dataset substitutes:
//
//	hybridbench -exp table1            # Table 1: HLL cost and error
//	hybridbench -exp fig2a             # Figure 2a: MNIST, Hamming
//	hybridbench -exp fig2b             # Figure 2b: Webspam, cosine
//	hybridbench -exp fig2c             # Figure 2c: CoverType, L1
//	hybridbench -exp fig2d             # Figure 2d: Corel, L2
//	hybridbench -exp fig3              # Figure 3: Webspam output sizes & LS%
//	hybridbench -exp persist           # build-once-load-many: snapshot load vs rebuild
//	hybridbench -exp delete            # tombstone skew vs online compaction
//	hybridbench -exp multiprobe        # multi-probe T vs L at fixed recall
//	hybridbench -exp covering          # covering LSH: guaranteed recall vs classic Hamming
//	hybridbench -exp serve             # serving-layer observability overhead (bare vs instrumented)
//	hybridbench -exp recal             # drift injection: online α/β refit vs a stale cost model
//	hybridbench -exp cache             # result cache: Zipf traffic, cached vs uncached p50
//	hybridbench -exp replica           # replicated serving: router overhead, hedge rate, convergence lag
//	hybridbench -exp all               # everything
//
// The -scale flag multiplies the paper's dataset sizes (default 0.05 so a
// full run finishes in minutes; use -scale 1 for paper scale). -paperratio
// replaces the calibrated cost model with the paper's per-dataset β/α
// ratios (10, 10, 6, 1), which reproduces the Figure-3 strategy-decision
// shape exactly; by default β/α is measured on this machine. -json FILE
// additionally writes every result of the run as one machine-readable
// report (schema hybridlsh-bench/v1) so the perf trajectory can be
// diffed across commits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bench"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: table1, fig2a, fig2b, fig2c, fig2d, fig3, persist, delete, multiprobe, covering, serve, recal, cache, verify, replica, all")
		scale      = flag.Float64("scale", 0.05, "fraction of the paper's dataset sizes (1.0 = paper scale)")
		queries    = flag.Int("queries", 100, "query-set size (paper: 100)")
		runs       = flag.Int("runs", 5, "timing runs to average (paper: 5)")
		seed       = flag.Uint64("seed", 1, "generation/construction seed")
		paperRatio = flag.Bool("paperratio", false, "use the paper's fixed β/α ratios instead of calibrating")
		csvDir     = flag.String("csv", "", "also write results as CSV files into this directory")
		jsonPath   = flag.String("json", "", "also write all results as one machine-readable JSON file (e.g. BENCH_results.json)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig(*scale)
	cfg.Queries = *queries
	cfg.Runs = *runs
	cfg.Seed = *seed
	cfg.Calibrate = !*paperRatio

	var rep *bench.JSONReport
	var jsonOut *os.File
	if *jsonPath != "" {
		// The run meta (the environment) is stamped once here,
		// before any experiment runs, so every report this invocation
		// writes carries an identical meta block.
		rep = bench.NewJSONReport(cfg)
		// Open the output before the (potentially minutes-long) run so an
		// unwritable path fails fast instead of discarding the results.
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hybridbench:", err)
			os.Exit(1)
		}
		jsonOut = f
	}
	if err := run(*exp, cfg, *csvDir, rep); err != nil {
		fmt.Fprintln(os.Stderr, "hybridbench:", err)
		os.Exit(1)
	}
	if rep != nil {
		err := bench.WriteJSON(jsonOut, rep)
		if cerr := jsonOut.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hybridbench:", err)
			os.Exit(1)
		}
	}
}

// run executes one experiment (or all), printing human-readable tables
// and accumulating into rep when non-nil.
func run(exp string, cfg bench.Config, csvDir string, rep *bench.JSONReport) error {
	switch exp {
	case "table1":
		return table1(cfg, csvDir, rep)
	case "fig2a":
		return fig2(cfg, csvDir, rep, bench.MNISTExperiment, "fig2a", "Figure 2a — MNIST-like, Hamming distance")
	case "fig2b":
		return fig2(cfg, csvDir, rep, bench.WebspamExperiment, "fig2b", "Figure 2b — Webspam-like, cosine distance")
	case "fig2c":
		return fig2(cfg, csvDir, rep, bench.CoverTypeExperiment, "fig2c", "Figure 2c — CoverType-like, L1 distance")
	case "fig2d":
		return fig2(cfg, csvDir, rep, bench.CorelExperiment, "fig2d", "Figure 2d — Corel-like, L2 distance")
	case "fig3":
		return fig3(cfg, csvDir, rep)
	case "persist":
		return persistExp(cfg, rep)
	case "delete":
		return deleteExp(cfg, rep)
	case "multiprobe":
		return multiProbeExp(cfg, rep)
	case "covering":
		return coveringExp(cfg, rep)
	case "serve":
		return serveExp(cfg, rep)
	case "recal":
		return recalExp(cfg, rep)
	case "cache":
		return cacheExp(cfg, rep)
	case "verify":
		return verifyExp(cfg, rep)
	case "replica":
		return replicaExp(cfg, rep)
	case "all":
		if err := table1(cfg, csvDir, rep); err != nil {
			return err
		}
		for _, e := range []struct {
			run   func(bench.Config) (*bench.Fig2Result, error)
			id    string
			title string
		}{
			{bench.MNISTExperiment, "fig2a", "Figure 2a — MNIST-like, Hamming distance"},
			{bench.WebspamExperiment, "fig2b", "Figure 2b — Webspam-like, cosine distance"},
			{bench.CoverTypeExperiment, "fig2c", "Figure 2c — CoverType-like, L1 distance"},
			{bench.CorelExperiment, "fig2d", "Figure 2d — Corel-like, L2 distance"},
		} {
			if err := fig2(cfg, csvDir, rep, e.run, e.id, e.title); err != nil {
				return err
			}
		}
		if err := fig3(cfg, csvDir, rep); err != nil {
			return err
		}
		if err := persistExp(cfg, rep); err != nil {
			return err
		}
		if err := deleteExp(cfg, rep); err != nil {
			return err
		}
		if err := multiProbeExp(cfg, rep); err != nil {
			return err
		}
		if err := coveringExp(cfg, rep); err != nil {
			return err
		}
		if err := serveExp(cfg, rep); err != nil {
			return err
		}
		if err := recalExp(cfg, rep); err != nil {
			return err
		}
		if err := cacheExp(cfg, rep); err != nil {
			return err
		}
		if err := verifyExp(cfg, rep); err != nil {
			return err
		}
		return replicaExp(cfg, rep)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// replicaExp runs the replicated-serving experiment: router fan-out
// overhead vs a direct replica hit, the hedge rate, and the delta-tail
// convergence lag after write bursts, gated on id-identical answers.
func replicaExp(cfg bench.Config, rep *bench.JSONReport) error {
	res, err := bench.ReplicaExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Replication — router fan-out vs direct replica, convergence lag")
	bench.PrintReplica(os.Stdout, res)
	fmt.Println()
	if rep != nil {
		rep.AddReplica(res)
	}
	return nil
}

// verifyExp runs the candidate-verification experiment: the same LSH
// candidate sets replayed through the pre-refactor verification and the
// flat struct-of-arrays store, with an id-identity gate across the arms.
func verifyExp(cfg bench.Config, rep *bench.JSONReport) error {
	res, err := bench.VerifyExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Point store — candidate verification: baseline vs flat")
	bench.PrintVerify(os.Stdout, res)
	fmt.Println()
	if rep != nil {
		rep.AddVerify(res)
	}
	return nil
}

// recalExp runs the drift-loop experiment: inject a stale cost model,
// let the recalibrator refit α/β from the drift windows alone, and
// report how much decision agreement with a fresh calibration returns.
func recalExp(cfg bench.Config, rep *bench.JSONReport) error {
	res, err := bench.RecalExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Recalibration — decision agreement with a fresh model, stale vs refitted")
	bench.PrintRecal(os.Stdout, res)
	fmt.Println()
	if rep != nil {
		rep.AddRecal(res)
	}
	return nil
}

// cacheExp runs the result-cache experiment: Zipf-skewed repeated
// traffic, cached vs uncached latency, with answer-equivalence and
// delete-invalidation gates.
func cacheExp(cfg bench.Config, rep *bench.JSONReport) error {
	res, err := bench.CacheExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Result cache — Zipf traffic, cached vs uncached query path")
	bench.PrintCache(os.Stdout, res)
	fmt.Println()
	if rep != nil {
		rep.AddCache(res)
	}
	return nil
}

// serveExp runs the observability-overhead experiment: the raw sharded
// query path vs the same path plus hybridserve's per-request metrics
// bookkeeping, with the p50 penalty as the headline number.
func serveExp(cfg bench.Config, rep *bench.JSONReport) error {
	res, err := bench.ServeExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Serving — observability overhead, bare vs instrumented query path")
	bench.PrintServe(os.Stdout, res)
	fmt.Println()
	if rep != nil {
		rep.AddServe(res)
	}
	return nil
}

// coveringExp runs the guaranteed-recall experiment: covering LSH's
// recall-1.0 structure vs the classic bit-sampling hybrid index at the
// same small Hamming radii.
func coveringExp(cfg bench.Config, rep *bench.JSONReport) error {
	res, err := bench.CoveringExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Covering LSH — guaranteed recall vs classic Hamming")
	bench.PrintCovering(os.Stdout, res)
	fmt.Println()
	if rep != nil {
		rep.AddCovering(res)
	}
	return nil
}

// multiProbeExp runs the multi-probe sweep: how few tables, probing T
// extra buckets each, match the classic L-table index's recall.
func multiProbeExp(cfg bench.Config, rep *bench.JSONReport) error {
	res, err := bench.MultiProbeExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Multi-probe — T probes vs L tables at fixed recall")
	bench.PrintMultiProbe(os.Stdout, res)
	fmt.Println()
	if rep != nil {
		rep.AddMultiProbe(res)
	}
	return nil
}

// deleteExp runs the tombstone-skew experiment: how delete-heavy traffic
// degrades query cost and strategy decisions, and what online shard
// compaction restores.
func deleteExp(cfg bench.Config, rep *bench.JSONReport) error {
	res, err := bench.DeleteExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Deletes — tombstone-skewed cost model vs online shard compaction")
	bench.PrintDelete(os.Stdout, res)
	fmt.Println()
	if rep != nil {
		rep.AddDelete(res)
	}
	return nil
}

// persistExp runs the build-once-load-many experiment: how much faster
// a snapshot reload is than a cold rebuild on the Corel-like dataset.
func persistExp(cfg bench.Config, rep *bench.JSONReport) error {
	res, err := bench.PersistExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Persistence — snapshot load vs cold rebuild (build-once-load-many)")
	bench.PrintPersist(os.Stdout, res)
	fmt.Println()
	if rep != nil {
		rep.AddPersist(res)
	}
	return nil
}

func table1(cfg bench.Config, csvDir string, rep *bench.JSONReport) error {
	rows, err := bench.Table1Experiment(cfg)
	if err != nil {
		return err
	}
	bench.PrintTable1(os.Stdout, rows)
	fmt.Println()
	if rep != nil {
		rep.AddTable1(rows)
	}
	if csvDir == "" {
		return nil
	}
	return writeCSV(csvDir, "table1.csv", func(w io.Writer) error {
		return bench.WriteTable1CSV(w, rows)
	})
}

func fig2(cfg bench.Config, csvDir string, rep *bench.JSONReport, f func(bench.Config) (*bench.Fig2Result, error), id, title string) error {
	res, err := f(cfg)
	if err != nil {
		return err
	}
	fmt.Println(title)
	bench.PrintFig2(os.Stdout, res)
	fmt.Println()
	if rep != nil {
		rep.AddFigure(id, cfg.Calibrate, res)
	}
	if csvDir == "" {
		return nil
	}
	return writeCSV(csvDir, id+".csv", func(w io.Writer) error {
		return bench.WriteFig2CSV(w, res)
	})
}

func fig3(cfg bench.Config, csvDir string, rep *bench.JSONReport) error {
	// Figure 3 is about the strategy decision; the paper's fixed β/α = 10
	// reproduces its shape regardless of this machine's constants.
	cfg.Calibrate = false
	res, err := bench.WebspamExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Figure 3 — Webspam-like output sizes and linear-search calls (β/α = 10, the paper's choice)")
	bench.PrintFig3(os.Stdout, res)
	fmt.Println()
	if rep != nil {
		rep.AddFigure("fig3", cfg.Calibrate, res)
	}
	if csvDir == "" {
		return nil
	}
	return writeCSV(csvDir, "fig3.csv", func(w io.Writer) error {
		return bench.WriteFig2CSV(w, res)
	})
}

// writeCSV creates dir/name and streams the writer callback into it.
func writeCSV(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
