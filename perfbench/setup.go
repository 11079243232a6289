package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	hybridlsh "repro"
	"repro/internal/shard"
	"repro/internal/vector"
)

// buildIndex builds the workload's index through the root constructors
// with the serving defaults the pinned server would use.
func buildIndex(w *Workload, data []vector.Dense, seed uint64) (*shard.Sharded[vector.Dense], error) {
	opts := []hybridlsh.Option{hybridlsh.WithShards(w.Index.Shards), hybridlsh.WithSeed(seed)}
	switch w.Index.Kind {
	case "classic":
		ix, err := hybridlsh.NewShardedL2Index(data, w.Radius, opts...)
		if err != nil {
			return nil, err
		}
		return ix.Sharded, nil
	case "multiprobe":
		ix, err := hybridlsh.NewShardedMultiProbeL2Index(data, w.Radius,
			append(opts, hybridlsh.WithProbes(w.Index.Probes), hybridlsh.WithTables(w.Index.Tables))...)
		if err != nil {
			return nil, err
		}
		return ix.Sharded, nil
	}
	return nil, fmt.Errorf("unknown index kind %q", w.Index.Kind)
}

// writeSnapshot writes sh to path as a hybridlsh-snap/v1 file through
// the root WriteTo and returns its size.
func writeSnapshot(w *Workload, sh *shard.Sharded[vector.Dense], path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var n int64
	if w.Index.Kind == "multiprobe" {
		n, err = (&hybridlsh.ShardedMultiProbeL2Index{Sharded: sh}).WriteTo(bw)
	} else {
		n, err = (&hybridlsh.ShardedL2Index{Sharded: sh}).WriteTo(bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// setupTimes splits one set-up into its parts.
type setupTimes struct {
	build, write, boot time.Duration
}

func (s setupTimes) total() time.Duration { return s.build + s.write + s.boot }

// setUp builds, snapshots and boots the workload reps times, keeping
// the last cluster running, and returns every repetition's times. The
// index is rebuilt each time so that set-up cost is measured whole.
func setUp(ctx context.Context, env *runEnv, w *Workload, data []vector.Dense, reps int) (*cluster, []setupTimes, error) {
	var cl *cluster
	var times []setupTimes
	for rep := 0; rep < reps; rep++ {
		if cl != nil {
			cl.stop()
			cl = nil
		}
		dir := filepath.Join(env.workDir, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		runtime.GC() // start every repetition from the same heap state
		var st setupTimes
		t0 := time.Now()
		sh, err := buildIndex(w, data, env.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("build: %w", err)
		}
		t1 := time.Now()
		snap := filepath.Join(env.workDir, "index.snap")
		if _, err = writeSnapshot(w, sh, snap); err != nil {
			return nil, nil, fmt.Errorf("snapshot: %w", err)
		}
		t2 := time.Now()
		if cl, err = boot(ctx, env, w, snap, dir); err != nil {
			return nil, nil, err
		}
		st.build, st.write, st.boot = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
		times = append(times, st)
	}
	return cl, times, nil
}

// medianOf is the median over set-up repetitions of one part, in
// seconds.
func medianOf(times []setupTimes, part func(setupTimes) time.Duration) float64 {
	v := make([]float64, len(times))
	for i, t := range times {
		v[i] = part(t).Seconds()
	}
	return median(v)
}
