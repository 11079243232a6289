package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunMetaIdenticalAcrossReports is the shape guarantee CI relies
// on: one invocation stamps its RunMeta exactly once, so every
// BENCH_*.json it writes carries a byte-identical meta block no matter
// which experiments each report recorded.
func TestRunMetaIdenticalAcrossReports(t *testing.T) {
	cfg := DefaultConfig(0.01)
	meta := CollectRunMeta()

	reports := []*JSONReport{
		NewJSONReport(cfg),
		NewJSONReport(cfg),
		NewJSONReport(cfg),
	}
	// Feed each report a different experiment mix — the meta must not
	// care.
	reports[0].AddTable1([]Table1Row{{Dataset: "x"}})
	reports[1].AddVerify(&VerifyResult{Kernel: "generic"})
	reports[2].AddFigure("fig2a", true, &Fig2Result{})
	reports[2].AddVerify(&VerifyResult{Kernel: "avx2"})

	var metas [][]byte
	for i, r := range reports {
		if r.Meta != meta {
			t.Errorf("report %d meta = %+v, want the invocation stamp %+v", i, r.Meta, meta)
		}
		b, err := json.Marshal(r.Meta)
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, b)
	}
	for i := 1; i < len(metas); i++ {
		if !bytes.Equal(metas[i], metas[0]) {
			t.Errorf("report %d meta %s differs from report 0 meta %s", i, metas[i], metas[0])
		}
	}

	// The stamp survives a full write/read round trip.
	var buf bytes.Buffer
	if err := WriteJSON(&buf, reports[1]); err != nil {
		t.Fatal(err)
	}
	var got JSONReport
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Meta != meta {
		t.Errorf("round-tripped meta = %+v, want %+v", got.Meta, meta)
	}
	if got.Verify == nil || got.Verify.Kernel != "generic" {
		t.Errorf("verify result lost in round trip: %+v", got.Verify)
	}
}
