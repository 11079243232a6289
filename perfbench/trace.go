package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/multiprobe"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/pointstore"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/vector"
)

// span is one timed call. Spans of one request share req; the root
// (the client's HTTP request) has parent -1.
type span struct {
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the replay runs with spans off.
type tracer struct {
	t0    time.Time
	req   int64
	spans []span
}

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) {
	if t != nil && id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// total sums the durations of spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTimes returns each span name's mean self time in µs per request:
// its duration minus the part of its interval its children cover.
// Children of one parent never overlap each other (the replay is
// sequential), so their covered parts add.
func (t *tracer) selfTimes() map[string]float64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			covered[s.Parent] += max(0, min(s.End, p.End)-max(s.Start, p.Start))
		}
	}
	sum := map[string]int64{}
	reqs := map[int64]struct{}{}
	for i, s := range t.spans {
		sum[s.Name] += s.End - s.Start - covered[i]
		reqs[s.Req] = struct{}{}
	}
	out := make(map[string]float64, len(sum))
	for k, v := range sum {
		out[k] = float64(v) / 1e3 / float64(max(len(reqs), 1))
	}
	return out
}

// shardView is one shard of the in-process copy, opened up for the
// per-layer calls.
type shardView struct {
	core *core.Index[vector.Dense]
	// On multi-probe shards: the index and each table's p-stable hasher,
	// which the probe sequence perturbs.
	mp      *multiprobe.Index
	hashers []*lsh.PStableHasher
	flat    *pointstore.FlatL2
	hll     *hll.Sketch
	keys    []uint64
	ends    []int // keys[ends[t-1]:ends[t]] are table t's
	bkts    []*lsh.Bucket
	seen    []uint32
	gen     uint32
}

// layerCounts are the per-layer counts measured beside the spans.
type layerCounts struct {
	queries, shardAnswers, lshAnswers, estimated int
	collisions, distinct, verified, results      int
	// dedup is Σ over LSH shard answers of QueryLSH's search time
	// (S2 dedup + S3 verify) minus VerifyRadius alone on the same
	// candidates.
	dedup time.Duration
}

// replayer re-runs the client's requests in process against a copy of
// the served snapshot, through each layer's public calls.
type replayer struct {
	sh      *shard.Sharded[vector.Dense]
	probes  int // multi-probe T, 0 for classic
	radius  float64
	shards  []shardView
	metrics *obs.ServerMetrics
	counts  layerCounts
	// err is set when a replayed shard looked up other buckets than its
	// own query did, so the layer spans would time another path.
	err error
}

func newReplayer(sh *shard.Sharded[vector.Dense], meta persist.Meta) (*replayer, error) {
	rp := &replayer{sh: sh, probes: meta.Probes, radius: meta.Radius,
		metrics: obs.NewServerMetrics(obs.NewRegistry(), 0)}
	// This copy only ever answers queries, so the view's index
	// references stay valid after Snapshot returns.
	err := sh.Snapshot(func(view []shard.ShardSnapshot[vector.Dense], _ int32, _ []int32) error {
		for j, v := range view {
			var sv shardView
			switch ix := v.Index.(type) {
			case *core.Index[vector.Dense]:
				sv.core = ix
			case *multiprobe.Index:
				sv.mp, sv.core = ix, ix.Core()
				for t := 0; t < sv.core.L(); t++ {
					h, ok := sv.core.Tables().Table(t).Hasher.(*lsh.PStableHasher)
					if !ok {
						return fmt.Errorf("shard %d table %d: multi-probe hasher is %T", j, t, sv.core.Tables().Table(t).Hasher)
					}
					sv.hashers = append(sv.hashers, h)
				}
			default:
				return fmt.Errorf("shard %d: unexpected index type %T", j, v.Index)
			}
			flat, err := pointstore.NewFlatL2(sv.core.Points(), pointstore.ModeOff)
			if err != nil {
				return err
			}
			sv.flat = flat
			sv.hll = hll.New(sv.core.Tables().Params().HLLRegisters)
			sv.seen = make([]uint32, sv.core.N())
			rp.shards = append(rp.shards, sv)
		}
		return nil
	})
	return rp, err
}

// query runs the served path: the shard fan-out, then the metrics
// record the server does for every answer. It returns the fan-out's
// stats and wall time.
func (rp *replayer) query(pts []vector.Dense, tr *tracer, parent int32) ([]shard.QueryStats, time.Duration) {
	out := make([]shard.QueryStats, 0, len(pts))
	id := tr.begin("shard.query", parent)
	t0 := time.Now()
	if len(pts) == 1 {
		var st shard.QueryStats
		if rp.probes > 0 {
			_, st, _ = rp.sh.QueryProbes(pts[0], rp.probes)
		} else {
			_, st = rp.sh.Query(pts[0])
		}
		out = append(out, st)
	} else {
		var res []shard.BatchResult
		if rp.probes > 0 {
			res, _ = rp.sh.QueryBatchProbes(pts, 0, rp.probes)
		} else {
			res = rp.sh.QueryBatch(pts, 0)
		}
		for _, r := range res {
			out = append(out, r.Stats)
		}
	}
	wall := time.Since(t0)
	tr.end(id)
	id = tr.begin("obs.record", parent)
	for _, st := range out {
		rp.metrics.RecordQuery(st)
	}
	tr.end(id)
	return out, wall
}

// layers replays one query through every layer's public call, shard by
// shard, in the order Algorithm 2 runs them, over the bucket set the
// server probes: the L home buckets on classic shards, the (T+1)·L home
// and probe buckets on multi-probe ones. Counts are only kept when
// spans are on.
func (rp *replayer) layers(q vector.Dense, tr *tracer, parent int32) {
	if tr == nil {
		rp.layerCalls(q, nil, parent, &layerCounts{})
		return
	}
	rp.layerCalls(q, tr, parent, &rp.counts)
}

func (rp *replayer) layerCalls(q vector.Dense, tr *tracer, parent int32, c *layerCounts) {
	c.queries++
	for j := range rp.shards {
		sv := &rp.shards[j]
		tabs := sv.core.Tables()
		var st core.QueryStats
		if sv.mp != nil {
			id := tr.begin("multiprobe.query", parent)
			_, st = sv.mp.QueryProbes(q, rp.probes)
			tr.end(id)
		} else {
			id := tr.begin("core.query", parent)
			_, st = sv.core.Query(q)
			tr.end(id)
		}
		c.shardAnswers++
		if st.Estimated {
			c.estimated++
		}

		// Hashing: one key per table, or on a multi-probe shard the home
		// key and the T probe keys multiprobe derives from the same
		// projections.
		id := tr.begin("lsh.hash", parent)
		sv.keys, sv.ends = sv.keys[:0], sv.ends[:0]
		for t := 0; t < tabs.L(); t++ {
			if sv.mp != nil {
				sv.keys = multiprobe.ProbeKeysInto(sv.hashers[t], q, rp.probes, sv.keys)
			} else {
				sv.keys = append(sv.keys, tabs.Table(t).Hasher.Key(q))
			}
			sv.ends = append(sv.ends, len(sv.keys))
		}
		tr.end(id)
		id = tr.begin("lsh.lookup", parent)
		sv.bkts = sv.bkts[:0]
		from := 0
		for t, to := range sv.ends {
			buckets := tabs.Table(t).Buckets
			for _, k := range sv.keys[from:to] {
				if b := buckets[k]; b != nil {
					sv.bkts = append(sv.bkts, b)
				}
			}
			from = to
		}
		tr.end(id)
		if got := lsh.Collisions(sv.bkts); got != st.Collisions && rp.err == nil {
			rp.err = fmt.Errorf("shard %d: replayed lookup collides %d times, the shard's query %d", j, got, st.Collisions)
		}
		id = tr.begin("hll.merge", parent)
		tabs.EstimateCandidates(sv.bkts, sv.hll)
		tr.end(id)

		if st.Strategy != core.StrategyLSH {
			id = tr.begin("pointstore.scan", parent)
			sv.flat.ScanRadius(q, rp.radius, nil)
			tr.end(id)
			continue
		}
		c.lshAnswers++
		id = tr.begin("core.query_buckets_lsh", parent)
		_, lst := sv.core.QueryBucketsLSH(q, sv.bkts)
		tr.end(id)
		cands := sv.distinct()
		id = tr.begin("pointstore.verify", parent)
		t0 := time.Now()
		res := sv.flat.VerifyRadius(q, cands, rp.radius, nil)
		verify := time.Since(t0)
		tr.end(id)
		c.dedup += max(lst.SearchTime-verify, 0)
		c.collisions += lsh.Collisions(sv.bkts)
		c.distinct += len(cands)
		c.verified += len(cands)
		c.results += len(res)
	}
}

// distinct returns the shard's distinct candidates from the buckets
// layers just looked up (the benchmark's own S2, outside any span).
func (sv *shardView) distinct() []int32 {
	sv.gen++
	var out []int32
	for _, b := range sv.bkts {
		for _, id := range b.IDs {
			if sv.seen[id] != sv.gen {
				sv.seen[id] = sv.gen
				out = append(out, id)
			}
		}
	}
	return out
}

// allocs counts heap allocations of one served-path query.
func (rp *replayer) allocs(pts []vector.Dense) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	rp.query(pts, nil, -1)
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(len(pts))
}

func loadSnapshot(path string) (*shard.Sharded[vector.Dense], persist.Meta, time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, persist.Meta{}, 0, err
	}
	defer f.Close()
	t0 := time.Now()
	sh, meta, err := persist.ReadSharded[vector.Dense](bufio.NewReaderSize(f, 1<<20), persist.MetricL2)
	return sh, meta, time.Since(t0), err
}

// counterSum adds up every series of a counter family in a Prometheus
// text exposition.
func counterSum(base, family string) (float64, error) {
	resp, err := httpGet(base + "/metrics")
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, line := range strings.Split(string(resp), "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func runTraced(ctx context.Context, env *runEnv, w *Workload) (*report, error) {
	cp, err := generate(w, env.seed, env.seconds)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: w.Name, Seed: env.seed, Trace: true}
	lay := map[string]float64{}

	t0 := time.Now()
	built, err := buildIndex(w, cp.data, env.seed)
	if err != nil {
		return nil, err
	}
	lay["lsh.build_s"] = time.Since(t0).Seconds()
	snap := filepath.Join(env.workDir, "index.snap")
	t0 = time.Now()
	nbytes, err := writeSnapshot(w, built, snap)
	if err != nil {
		return nil, err
	}
	lay["persist.snapshot_write_s"] = time.Since(t0).Seconds()
	lay["persist.snapshot_bytes"] = float64(nbytes)
	cl, err := boot(ctx, env, w, snap, env.workDir)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	local, meta, load, err := loadSnapshot(snap)
	if err != nil {
		return nil, err
	}
	lay["persist.snapshot_load_s"] = load.Seconds()
	rp, err := newReplayer(local, meta)
	if err != nil {
		return nil, err
	}

	tr := newTruth(cp.data, w.Radius)
	stream, _ := newQueryStream(cp.queries, truthSample, w.Data.Jitter, env.seed)
	s := newSession(w, cl, tr, stream, rep)
	d := newLoadgen(1, s.check)
	defer d.close()
	var buf bytes.Buffer
	for i := 0; i < w.WarmupRequests; i++ {
		o := s.readOp(cl.readURL)
		var x sample
		d.send(ctx, o, &buf, time.Now(), &x)
		s.count([]sample{x})
		rp.query(o.points, nil, -1)
	}

	// Sampled requests, one at a time: the client span, then the same
	// request replayed in process under it.
	trc := &tracer{t0: time.Now()}
	var reqs [][]vector.Dense
	var overhead, fanout, direct, routed []float64
	var respBytes, ops int
	cpu0, err := cl.cpuSeconds()
	if err != nil {
		return nil, err
	}
	hedge0, routed0, err := routerCounters(cl)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(env.seconds * openShare * float64(time.Second)))
	for n := 0; time.Now().Before(deadline) && n < maxTracedRequests; n++ {
		o := s.readOp(cl.readURL)
		trc.req = int64(n)
		send := func(name string, o *op) time.Duration {
			var x sample
			id := trc.begin(name, -1)
			d.sendUnchecked(ctx, o, &buf, time.Now(), &x)
			trc.end(id)
			x.failed = x.failed || !d.verify(o, buf.Bytes())
			s.count([]sample{x})
			ops++
			respBytes += x.bytes
			return x.done
		}
		var client time.Duration
		root := int32(len(trc.spans))
		if cl.router == nil {
			client = send("client.http", o)
		} else {
			// Router hop: the same read via the router and straight to
			// the follower, alternating which goes first. The direct
			// request is the root the replay hangs under.
			via := func() { routed = append(routed, us(send("client.router", o))) }
			if n%2 == 0 {
				via()
			}
			root = int32(len(trc.spans))
			client = send("client.http", readOpFor(cl.follower.url, o.points))
			direct = append(direct, us(client))
			if n%2 == 1 {
				via()
			}
		}
		rid := trc.begin("replay", root)
		stats, wall := rp.query(o.points, trc, rid)
		for _, q := range o.points {
			rp.layers(q, trc, rid)
		}
		trc.end(rid)
		if rp.err != nil {
			return nil, rp.err
		}
		overhead = append(overhead, us(client-wall))
		for _, st := range stats {
			fanout = append(fanout, us(st.WallTime-st.MaxShardTime))
		}
		reqs = append(reqs, o.points)
	}
	cpu1, err := cl.cpuSeconds()
	if err != nil {
		return nil, err
	}
	hedge1, routed1, err := routerCounters(cl)
	if err != nil {
		return nil, err
	}
	nq := float64(max(rp.counts.queries, 1))
	per := func(name string) float64 { return us(trc.total(name)) / nq }
	lay["http.overhead_us"] = median(overhead)
	lay["http.resp_bytes_per_query"] = float64(respBytes) / float64(max(ops*w.Batch, 1))
	if len(routed) > 0 {
		lay["router.hop_us"] = median(routed) - median(direct)
	}
	if routed1 > routed0 {
		lay["router.hedge_rate"] = (hedge1 - hedge0) / (routed1 - routed0)
	}
	lay["hybridserve.cpu_us_per_op"] = (cpu1 - cpu0) * 1e6 / float64(max(ops, 1))
	lay["obs.record_us"] = per("obs.record")
	lay["shard.fanout_us"] = mean(fanout)
	lay["core.query_us"] = per("core.query")
	lay["multiprobe.query_us"] = per("multiprobe.query")
	c := rp.counts
	lay["core.lsh_share"] = float64(c.lshAnswers) / float64(max(c.shardAnswers, 1))
	lay["core.merge_share"] = float64(c.estimated) / float64(max(c.shardAnswers, 1))
	lay["core.dedup_us"] = us(c.dedup) / nq
	lay["core.dup_ratio"] = float64(c.collisions) / float64(max(c.distinct, 1))
	lay["lsh.hash_us"] = per("lsh.hash")
	lay["lsh.lookup_us"] = per("lsh.lookup")
	lay["hll.merge_us"] = per("hll.merge")
	lay["pointstore.verify_us"] = per("pointstore.verify")
	lay["pointstore.scan_us"] = per("pointstore.scan")
	lay["pointstore.cands_per_result"] = float64(c.verified) / float64(max(c.results, 1))

	var allocs []float64
	for i := 0; i < len(reqs) && i < 50; i++ {
		allocs = append(allocs, rp.allocs(reqs[i]))
	}
	lay["shard.allocs_per_query"] = median(allocs)
	// Last: these passes replay the sample again, with counts off.
	lay["trace_overhead_pct"] = traceOverhead(rp, reqs)

	if w.Writes != nil {
		if err := traceWrites(ctx, env, w, cp, s, d, snap, lay); err != nil {
			return nil, err
		}
	}
	for k, v := range trc.selfTimes() {
		rep.prop("self_us."+k, v, "us")
	}
	sort.Slice(rep.Properties, func(i, j int) bool { return rep.Properties[i].Name < rep.Properties[j].Name })
	rep.prop("traced_requests", float64(len(reqs)), "count")
	rep.prop("spans", float64(len(trc.spans)), "count")
	if err := trc.write(filepath.Join(env.workDir, "spans.jsonl")); err != nil {
		return nil, err
	}
	// A metric of a layer this workload does not use (the router, the
	// write path, multi-probe) reads 0.
	for _, m := range env.cfg.PerLayer {
		rep.add(m.Name, lay[m.Name], m.Unit)
	}
	for _, e := range d.errs {
		rep.breach("request failed: %s", e)
	}
	return rep, nil
}

// maxTracedRequests caps the traced run's sample; the span log of a
// corel-query request holds about fifty spans.
const maxTracedRequests = 800

func mean(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(max(len(vals), 1))
}

// routerCounters reads the router's hedge and request totals (zero
// without a router).
func routerCounters(cl *cluster) (hedges, routed float64, err error) {
	if cl.router == nil {
		return 0, 0, nil
	}
	if hedges, err = counterSum(cl.router.url, "hybridlsh_router_hedges_total"); err != nil {
		return 0, 0, err
	}
	routed, err = counterSum(cl.router.url, "hybridlsh_router_requests_total")
	return hedges, routed, err
}

// traceOverhead times the same replay with spans off and on, request
// by request in alternating order, keeping each side's best of three,
// and returns the gap in percent of the spans-off time.
func traceOverhead(rp *replayer, reqs [][]vector.Dense) float64 {
	if len(reqs) > 50 {
		reqs = reqs[:50]
	}
	replay := func(pts []vector.Dense, on bool) time.Duration {
		var tr *tracer
		if on {
			tr = &tracer{t0: time.Now()}
		}
		t0 := time.Now()
		id := tr.begin("replay", -1)
		rp.query(pts, tr, id)
		for _, q := range pts {
			rp.layers(q, tr, id)
		}
		tr.end(id)
		return time.Since(t0)
	}
	var off, on time.Duration
	for i, pts := range reqs {
		best := [2]time.Duration{1 << 62, 1 << 62}
		for round := 0; round < 3; round++ {
			onFirst := (i+round)%2 == 0
			for _, spans := range []bool{onFirst, !onFirst} {
				k := 0
				if spans {
					k = 1
				}
				best[k] = min(best[k], replay(pts, spans))
			}
		}
		off += best[0]
		on += best[1]
	}
	return (float64(on) - float64(off)) / float64(off) * 100
}

// traceWrites measures replicated-rw's write path: follower lag over
// HTTP, then the same write stream replayed in process through the
// shard layer with a journal and a WAL attached, the WAL append alone,
// and follower replay frame by frame.
func traceWrites(ctx context.Context, env *runEnv, w *Workload, cp *corpus, s *session, d *loadgen, snap string, lay map[string]float64) error {
	wr := w.Writes
	ws := newWriteStream(cp, env.seed)
	// Follower lag, sampled: ack on the writer, then poll the follower
	// until its applied cursor covers the writer's.
	var lags []float64
	var buf bytes.Buffer
	for i := 0; i < lagSamples; i++ {
		o, err := ws.appendOp(s.cl.writeURL, wr.AppendPoints)
		if i%2 == 1 {
			o, err = ws.deleteOp(s.cl.writeURL, wr.DeleteIDs)
		}
		if err != nil {
			return err
		}
		var x sample
		d.send(ctx, o, &buf, time.Now(), &x)
		s.count([]sample{x})
		acked := time.Now()
		target, err := replicaSeq(s.cl.writer.url)
		if err != nil {
			return err
		}
		for {
			seq, err := replicaSeq(s.cl.follower.url)
			if err != nil {
				return err
			}
			if seq >= target {
				break
			}
			if time.Since(acked) > 10*time.Second {
				return fmt.Errorf("follower never reached seq %d", target)
			}
			time.Sleep(time.Millisecond)
		}
		lags = append(lags, us(time.Since(acked))/1000)
	}
	lay["replica.lag_ms"] = median(lags)

	// The timed run's write stream, replayed in process.
	dur := env.seconds * openShare
	nApp, nDel := int(wr.AppendRate*dur), int(wr.DeleteRate*dur)
	sh, meta, _, err := loadSnapshot(snap)
	if err != nil {
		return err
	}
	hdr := persist.DeltaHeader{Epoch: 1, Metric: persist.MetricL2, Dim: meta.Dim}
	walDir := filepath.Join(env.workDir, "wal-replay")
	wal, _, err := replica.OpenWAL(walDir, hdr, replica.WALOptions{Fsync: replica.FsyncAlways})
	if err != nil {
		return err
	}
	log := replica.NewLog(hdr, 4*(nApp+nDel)+1024) // never trims this run's frames
	log.AttachWAL(wal)
	sh.SetJournal(replica.NewRecorder[vector.Dense](log))
	sh.SetAutoCompact(shard.DefaultCompactionThreshold)
	ws = newWriteStream(cp, env.seed)
	var app, del []float64
	comp0 := sh.Stats().CompactionsTotal
	for i := 0; i < max(nApp, nDel); i++ {
		if i < nApp {
			pts := ws.pool[ws.nextPt : ws.nextPt+wr.AppendPoints]
			ws.nextPt += wr.AppendPoints
			t := time.Now()
			if _, err := sh.Append(pts); err != nil {
				return err
			}
			app = append(app, us(time.Since(t)))
		}
		if i < nDel {
			ids := ws.victims[ws.nextDel : ws.nextDel+wr.DeleteIDs]
			ws.nextDel += wr.DeleteIDs
			t := time.Now()
			sh.Delete(ids)
			del = append(del, us(time.Since(t)))
		}
	}
	lay["shard.append_us"] = median(app)
	lay["shard.delete_us"] = median(del)
	lay["shard.compactions"] = float64(sh.Stats().CompactionsTotal - comp0)
	if err := log.Err(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	frames, _, err := log.Since(0, 0)
	if err != nil {
		return err
	}
	if err := wal.Close(); err != nil {
		return err
	}
	var walBytes int
	for _, f := range frames {
		walBytes += len(f)
	}
	lay["replica.wal_bytes_per_write"] = float64(walBytes) / float64(max(nApp+nDel, 1))

	// WAL.Append alone, frame by frame, into a fresh directory.
	wal2, _, err := replica.OpenWAL(filepath.Join(env.workDir, "wal-append"), hdr, replica.WALOptions{Fsync: replica.FsyncAlways})
	if err != nil {
		return err
	}
	var wa []float64
	for i, f := range frames {
		t := time.Now()
		if err := wal2.Append(uint64(i+1), f); err != nil {
			wal2.Close()
			return err
		}
		wa = append(wa, us(time.Since(t)))
	}
	if err := wal2.Close(); err != nil {
		return err
	}
	lay["replica.wal_append_us"] = median(wa)

	// Follower replay, frame by frame, onto a freshly hydrated copy.
	fol, _, _, err := loadSnapshot(snap)
	if err != nil {
		return err
	}
	fol.SetAutoCompact(1) // followers apply compactions as journaled
	var rpl []float64
	for _, f := range frames {
		t := time.Now()
		if _, err := replica.ReplayRaw(fol, hdr, [][]byte{f}); err != nil {
			return err
		}
		rpl = append(rpl, us(time.Since(t)))
	}
	lay["replica.replay_us"] = median(rpl)
	return nil
}

// lagSamples is how many writes the traced run times end to end.
const lagSamples = 40
