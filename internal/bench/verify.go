package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/vector"
)

// VerifyResult reports the candidate-verification experiment: the
// wall time the same LSH candidate sets cost under the pre-refactor
// verification (per-point heap rows, per-candidate sqrt distance) and
// under the flat struct-of-arrays store, plus the correctness gate —
// both must report identical id sets.
type VerifyResult struct {
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	Dim     int     `json:"dim"`
	Metric  string  `json:"metric"`
	Radius  float64 `json:"radius"`
	Queries int     `json:"queries"`
	// Kernel is the distance kernel the flat store verified with
	// ("avx2" or "generic").
	Kernel string `json:"kernel"`
	// CandAvg is the mean LSH candidate-list size per query — the work
	// every arm verifies.
	CandAvg int `json:"cand_avg"`
	// BaselineSec is the pre-refactor arm: points as individually
	// allocated rows, one sqrt distance per candidate. FlatSec is the
	// exact struct-of-arrays batch verify. Each is the best total over
	// the configured runs.
	BaselineSec float64 `json:"baseline_sec"`
	FlatSec     float64 `json:"flat_sec"`
	// SpeedupVerify is BaselineSec/FlatSec; the CI gate requires >= 1.3.
	SpeedupVerify float64 `json:"speedup_verify"`
	// Mismatches counts queries whose flat-store id list differed from
	// the baseline's. Must be 0.
	Mismatches int `json:"mismatches"`
}

// baselineL2 is the pre-refactor distance kernel: a scalar loop and a
// sqrt per candidate, kept here so the refactored library can still be
// benchmarked against what it replaced.
func baselineL2(a, b vector.Dense) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// VerifyExperiment isolates candidate verification — the inner loop both
// of the paper's search arms bottom out in — on the Corel-like L2
// workload. It collects each query's real LSH candidate set (the deduped
// union of its L home buckets, exactly what core.Index verifies), then
// replays the identical sets through two verification arms: the
// pre-refactor layout (per-point heap rows, sqrt per candidate) and the
// flat struct-of-arrays store. Identical inputs make the arms
// answer-comparable id-for-id, which doubles as the mismatch gate.
func VerifyExperiment(cfg Config) (*VerifyResult, error) {
	ds := dataset.CorelLike(cfg.Scale, cfg.Seed)
	data, queries := dataset.SplitQueries(ds.Points, cfg.queries(len(ds.Points)), cfg.Seed+1)
	r := ds.Meta.PaperRadii[len(ds.Meta.PaperRadii)/2]

	ix, err := core.NewIndex(data, core.Config[vector.Dense]{
		Family:       lsh.NewPStableL2(ds.Meta.Dim, 2*r),
		Distance:     distance.L2,
		Radius:       r,
		Delta:        cfg.Delta,
		K:            7,
		L:            cfg.L,
		HLLRegisters: cfg.M,
		Seed:         cfg.Seed + 2,
	})
	if err != nil {
		return nil, err
	}

	// Collect each query's deduped candidate set from the index's own
	// tables — the exact id lists core.Index hands to VerifyRadius.
	tables := ix.Tables()
	seen := make([]int32, len(data))
	gen := int32(0)
	cands := make([][]int32, len(queries))
	total := 0
	for qi, q := range queries {
		gen++
		var ids []int32
		for j := 0; j < tables.L(); j++ {
			tab := tables.Table(j)
			b, ok := tab.Buckets[tab.Hasher.Key(q)]
			if !ok {
				continue
			}
			for _, id := range b.IDs {
				if seen[id] != gen {
					seen[id] = gen
					ids = append(ids, id)
				}
			}
		}
		cands[qi] = ids
		total += len(ids)
	}

	// The two storage arms over the same points.
	rows := make([]vector.Dense, len(data)) // individually allocated, as []P stores were
	for i, p := range data {
		rows[i] = append(vector.Dense(nil), p...)
	}
	flat, err := pointstore.NewFlatL2(data, pointstore.ModeOff)
	if err != nil {
		return nil, err
	}

	res := &VerifyResult{
		Dataset: ds.Meta.Name,
		N:       len(data),
		Dim:     ds.Meta.Dim,
		Metric:  "l2",
		Radius:  r,
		Queries: len(queries),
		Kernel:  vector.L2Kernel(),
		CandAvg: total / max(len(queries), 1),
	}

	baseline := make([][]int32, len(queries))
	timeArm := func(verify func(qi int, out []int32) []int32, check bool) (float64, error) {
		best := math.Inf(1)
		runs := max(cfg.Runs, 1)
		for run := 0; run < runs; run++ {
			out := make([]int32, 0, 256)
			start := time.Now()
			for qi := range queries {
				out = verify(qi, out[:0])
				if run == 0 {
					if !check {
						baseline[qi] = append([]int32(nil), out...)
					} else if !equalIDs(baseline[qi], out) {
						res.Mismatches++
					}
				}
			}
			if sec := time.Since(start).Seconds(); sec < best {
				best = sec
			}
		}
		return best, nil
	}

	res.BaselineSec, _ = timeArm(func(qi int, out []int32) []int32 {
		q := queries[qi]
		for _, id := range cands[qi] {
			if baselineL2(rows[id], q) <= r {
				out = append(out, id)
			}
		}
		return out
	}, false)
	res.FlatSec, _ = timeArm(func(qi int, out []int32) []int32 {
		return flat.VerifyRadius(queries[qi], cands[qi], r, out)
	}, true)
	if res.FlatSec > 0 {
		res.SpeedupVerify = res.BaselineSec / res.FlatSec
	}
	return res, nil
}

// equalIDs compares two id lists element-wise (every arm preserves the
// candidate input order, so no sorting is needed).
func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PrintVerify renders the verification-arm comparison.
func PrintVerify(w io.Writer, r *VerifyResult) {
	fmt.Fprintf(w, "  %s: n=%d dim=%d r=%.3g, %d queries, avg %d candidates (kernel %s)\n",
		r.Dataset, r.N, r.Dim, r.Radius, r.Queries, r.CandAvg, r.Kernel)
	fmt.Fprintf(w, "  baseline (rows+sqrt)   %8.3f ms\n", r.BaselineSec*1e3)
	fmt.Fprintf(w, "  flat (SoA, squared)    %8.3f ms\n", r.FlatSec*1e3)
	fmt.Fprintf(w, "  speedup_verify %.2fx   mismatches %d\n", r.SpeedupVerify, r.Mismatches)
}
