package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func testConfig(t *testing.T) *Config {
	t.Helper()
	cfg, err := loadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, w := range testConfig(t).Workloads {
		a, err := generate(&w, 7, 30)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(&w, 7, 30)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different corpus", w.Name)
		}
		c, _ := generate(&w, 8, 30)
		if reflect.DeepEqual(a.queries, c.queries) {
			t.Errorf("%s: seeds 7 and 8 hold out the same queries", w.Name)
		}
		s1, t1 := newQueryStream(a.queries, truthSample, w.Data.Jitter, 7)
		s2, t2 := newQueryStream(b.queries, truthSample, w.Data.Jitter, 7)
		if !reflect.DeepEqual(t1, t2) {
			t.Errorf("%s: truth sample differs for one seed", w.Name)
		}
		// Past one full pass the stream jitters; it must still repeat per
		// seed and never send a point twice.
		seen := map[uint64]bool{}
		for i := 0; i < 2*len(a.queries); i++ {
			p, q := s1.Next(), s2.Next()
			if !reflect.DeepEqual(p, q) {
				t.Fatalf("%s: stream diverges at %d", w.Name, i)
			}
			h := pointHash(p)
			if seen[h] {
				t.Fatalf("%s: stream repeats a point at %d", w.Name, i)
			}
			seen[h] = true
		}
	}
}

// A server that stalls its first request and answers one request at a
// time: open-loop latency, timed from each request's scheduled send,
// must carry the stall into every request queued behind it.
func TestOpenLoopCountsStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	d := newLoadgen(1, nil)
	defer d.close()
	ops := make([]*op, 20)
	for i := range ops {
		ops[i] = &op{url: srv.URL, body: []byte(`{}`)}
	}
	sched := uniformSchedule(len(ops), 100, 0) // one every 10ms, all due within the stall
	samples := d.openLoop(context.Background(), ops, sched)
	for i, s := range samples {
		if s.failed {
			t.Fatalf("request %d failed: %v", i, d.errs)
		}
		// Request i was due at i·10ms but could not start before the stall
		// ended, so its latency is at least what remained of the stall.
		if want := stall - sched[i]; s.latency() < want {
			t.Errorf("request %d: latency %v, want >= %v (stall not counted)", i, s.latency(), want)
		}
	}
	if late := samples[len(samples)-1].sent - sched[len(sched)-1]; late <= 0 {
		t.Errorf("last request sent %v after its schedule; want the generator to report it late", late)
	}
}

// A closed-loop phase checks every answer, failing the bad ones, but
// only after its clock stops: a slow checker costs no throughput.
func TestClosedLoopChecksAfterTheClock(t *testing.T) {
	const serve, checkCost, dur = 2 * time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond
	var mu sync.Mutex
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		bad := n%3 == 0
		mu.Unlock()
		time.Sleep(serve)
		if bad {
			w.Write([]byte(`bad`))
			return
		}
		w.Write([]byte(`ok`))
	}))
	defer srv.Close()

	d := newLoadgen(2, func(o *op, body []byte) error {
		time.Sleep(checkCost)
		if string(body) == "bad" {
			return errors.New("bad answer")
		}
		return nil
	})
	defer d.close()
	samples, _ := d.closedLoop(context.Background(), func() *op {
		return &op{url: srv.URL, body: []byte(`{}`)}
	}, dur)
	failed := 0
	for _, s := range samples {
		if s.failed {
			failed++
		}
		if s.o != nil || s.body != nil {
			t.Fatal("a checked sample still holds its answer")
		}
	}
	if want := len(samples) / 3; failed != want {
		t.Errorf("%d of %d samples failed, want every third (%d)", failed, len(samples), want)
	}
	// Checking inside the loop would hold each of the two workers to one
	// request per serve+checkCost, 2·dur/(serve+checkCost) ≈ 17 in all.
	if inLoop := int(2 * dur / (serve + checkCost)); len(samples) < 2*inLoop {
		t.Errorf("%d requests in a %v phase, want >= %d: checking ran inside the clock", len(samples), dur, 2*inLoop)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 98}, {500, 98}, {499, 95},
		{200, 95}, {100, 90}, {40, 75}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The defining property: at least ten samples lie beyond it.
		if p := supportedPercentile(c.n); p > 0 {
			if beyond := c.n - rank(p, c.n); beyond < 10 {
				t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, beyond)
			}
		}
	}
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(1000 - i) // 1..1000, reversed
	}
	if v, p := tail(vals); v != 990 || p != 99 {
		t.Errorf("tail = (%v, p%v), want (990, p99)", v, p)
	}
	if got := percentile(vals, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
}

func TestMetricNames(t *testing.T) {
	cfg := testConfig(t)
	for _, m := range append(append([]metricDef(nil), cfg.EndToEnd...), cfg.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric %q does not match %s", m.Name, metricName)
		}
	}
	for name, w := range heavy {
		if !metricName.MatchString(name) {
			t.Errorf("per-layer metric %q does not match %s", name, metricName)
		}
		if _, err := cfg.workload(w); err != nil {
			t.Errorf("%s: heavy workload: %v", name, err)
		}
	}
	// loadConfig refuses a BENCHMARK.json it cannot honour.
	for _, bad := range []string{
		`{"workloads": [{"name": "nope"}]}`,
		`{"end_to_end": [{"name": "p50 us", "unit": "us"}]}`,
		`{"per_layer": [{"name": "lsh.hash_us", "unit": "us"}, {"name": "lsh.hash_us", "unit": "us"}]}`,
		`{"per_layer": [{"name": "lsh.unmeasured_us", "unit": "us"}]}`,
	} {
		path := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadConfig(path); err == nil {
			t.Errorf("loadConfig accepted %s", bad)
		}
	}
}

// shrink scales a workload down so a full run takes seconds.
func shrink(w Workload) Workload {
	switch w.Data.Kind {
	case "corel":
		w.Data.Scale = 0.1
	case "mixture":
		w.Data.N = 3000
	}
	w.Data.Queries, w.WarmupRequests = 400, 4
	if w.Writes != nil {
		// Enough deletes that a two-second run still crosses the
		// auto-compaction threshold on the smaller shards.
		wr := *w.Writes
		wr.DeleteIDs = 20
		w.Writes = &wr
	}
	return w
}

// buildServers compiles hybridserve and hybridrouter into a temp dir.
func buildServers(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "repro/cmd/hybridserve", "repro/cmd/hybridrouter")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building servers: %v\n%s", err, out)
	}
	return dir
}

// Every workload runs end to end at small scale: the timed run passes
// its correctness gates and emits exactly the end-to-end metrics, and
// the traced run emits every per-layer metric, non-zero where its layer
// does the most work.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real servers")
	}
	cfg := testConfig(t)
	bin := buildServers(t)
	heavyZeroOK := map[string]string{
		// The router hedges only onto a second member, and this
		// topology has one follower; the metric is kept so a topology
		// or router change that hedges shows.
		"router.hedge_rate": "single-member router cannot hedge",
	}
	for _, full := range cfg.Workloads {
		w := shrink(full)
		t.Run(w.Name, func(t *testing.T) {
			env := &runEnv{cfg: cfg, binDir: bin, workDir: t.TempDir(), seed: 3, seconds: 2}
			rep, err := runTimed(context.Background(), env, &w)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Breaches) > 0 || rep.Failed > 0 {
				t.Fatalf("timed run: %d failed, breaches %v", rep.Failed, rep.Breaches)
			}
			assertMetrics(t, rep, cfg.EndToEnd)
			for _, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, m.Value)
				}
			}

			env.workDir = t.TempDir()
			rep, err = runTraced(context.Background(), env, &w)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Breaches) > 0 || rep.Failed > 0 {
				t.Fatalf("traced run: %d failed, breaches %v", rep.Failed, rep.Breaches)
			}
			assertMetrics(t, rep, cfg.PerLayer)
			for i, d := range cfg.PerLayer {
				v := rep.Metrics[i].Value
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", d.Name, v)
				}
				if heavy[d.Name] == w.Name && v == 0 && heavyZeroOK[d.Name] == "" {
					t.Errorf("%s is 0 on its heavy workload %s", d.Name, w.Name)
				}
			}
			if _, err := os.Stat(filepath.Join(env.workDir, "spans.jsonl")); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}
		})
	}
}

func assertMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Fatalf("%d metrics, want %d", len(rep.Metrics), len(defs))
	}
	for i, d := range defs {
		if m := rep.Metrics[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("metric %d = %s [%s], want %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
	}
}
