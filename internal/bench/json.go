package bench

import (
	"encoding/json"
	"io"
	"runtime"
)

// JSONSchema identifies the report layout; bump it when fields change
// incompatibly so downstream tooling can dispatch on it.
const JSONSchema = "hybridlsh-bench/v1"

// JSONFigure is one figure sweep in a report, keyed by the experiment
// id (fig2a…fig2d, fig3) so tooling can pair figures across commits —
// -exp all produces two webspam-like sweeps (fig2b and fig3) that are
// otherwise indistinguishable. Calibrated records whether this sweep
// measured β/α or used the paper's fixed ratio (fig3 always uses the
// fixed ratio regardless of the run-level config).
type JSONFigure struct {
	ID         string `json:"id"`
	Calibrated bool   `json:"calibrated"`
	*Fig2Result
}

// RunMeta pins the environment one report was produced in, so numbers
// compared across commits (BENCH_*.json files) can be discounted when
// the toolchain or machine shape changed underneath them.
type RunMeta struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// JSONReport is the machine-readable form of one hybridbench run: the
// configuration it ran under plus every experiment result it produced,
// in production order. cmd/hybridbench writes it via -json so the perf
// trajectory can be tracked across commits (BENCH_*.json files).
type JSONReport struct {
	Schema     string            `json:"schema"`
	Meta       RunMeta           `json:"meta"`
	Config     Config            `json:"config"`
	Table1     []Table1Row       `json:"table1,omitempty"`
	Figures    []JSONFigure      `json:"figures,omitempty"`
	Persist    *PersistResult    `json:"persist,omitempty"`
	Delete     *DeleteResult     `json:"delete,omitempty"`
	MultiProbe *MultiProbeResult `json:"multiprobe,omitempty"`
	Covering   *CoveringResult   `json:"covering,omitempty"`
	Serve      *ServeResult      `json:"serve,omitempty"`
	Recal      *RecalResult      `json:"recal,omitempty"`
	Cache      *CacheResult      `json:"cache,omitempty"`
	Verify     *VerifyResult     `json:"verify,omitempty"`
	Replica    *ReplicaResult    `json:"replica,omitempty"`
}

// NewJSONReport starts an empty report for the given configuration,
// stamped with the producing environment. The meta
// is collected exactly once, here: every report one invocation writes
// carries an identical RunMeta no matter which experiments ran, so
// BENCH_*.json files from the same run can be compared meta-for-meta.
func NewJSONReport(cfg Config) *JSONReport {
	return &JSONReport{
		Schema: JSONSchema,
		Meta:   CollectRunMeta(),
		Config: cfg,
	}
}

// CollectRunMeta gathers the environment stamp for one invocation.
func CollectRunMeta() RunMeta {
	return RunMeta{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// AddTable1 records the Table-1 rows of the run.
func (r *JSONReport) AddTable1(rows []Table1Row) { r.Table1 = rows }

// AddFigure appends one figure sweep to the report under its
// experiment id.
func (r *JSONReport) AddFigure(id string, calibrated bool, res *Fig2Result) {
	r.Figures = append(r.Figures, JSONFigure{ID: id, Calibrated: calibrated, Fig2Result: res})
}

// AddPersist records the build-once-load-many experiment of the run.
func (r *JSONReport) AddPersist(res *PersistResult) { r.Persist = res }

// AddDelete records the delete/compaction experiment of the run.
func (r *JSONReport) AddDelete(res *DeleteResult) { r.Delete = res }

// AddMultiProbe records the T-vs-L multi-probe sweep of the run.
func (r *JSONReport) AddMultiProbe(res *MultiProbeResult) { r.MultiProbe = res }

// AddCovering records the covering-vs-classic guaranteed-recall
// comparison of the run.
func (r *JSONReport) AddCovering(res *CoveringResult) { r.Covering = res }

// AddServe records the serving-layer observability-overhead experiment
// of the run.
func (r *JSONReport) AddServe(res *ServeResult) { r.Serve = res }

// AddRecal records the drift-injection recalibration experiment of the
// run.
func (r *JSONReport) AddRecal(res *RecalResult) { r.Recal = res }

// AddCache records the result-cache experiment of the run.
func (r *JSONReport) AddCache(res *CacheResult) { r.Cache = res }

// AddVerify records the candidate-verification experiment of the run.
func (r *JSONReport) AddVerify(res *VerifyResult) { r.Verify = res }

// AddReplica records the replicated-serving experiment of the run.
func (r *JSONReport) AddReplica(res *ReplicaResult) { r.Replica = res }

// WriteJSON writes the report as indented JSON.
func WriteJSON(w io.Writer, r *JSONReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
