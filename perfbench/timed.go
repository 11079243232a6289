package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/vector"
)

// nproc bounds the load generator: at most this many requests are in
// flight, on at most this many connections per server.
const nproc = 2

// session is the client side of one run: the workload's streams, the
// benchmark's truth copy, and tallies of what the servers answered.
type session struct {
	w      *Workload
	cl     *cluster
	tr     *truth
	stream *queryStream
	rep    *report

	mu       sync.Mutex
	sent     map[uint64]struct{} // hashes of read points sent, for the repeat share
	reads    int
	repeats  int
	live     bool      // strict check: no deleted id may appear
	later    []pending // ids reported before their append was acknowledged
	sizes    []float64 // ids per answered query, open-loop phase
	lsh, lin int       // shard answers by strategy, open-loop phase
	tally    bool      // whether answers feed sizes/lsh/lin

	recallMean float64
}

func newSession(w *Workload, cl *cluster, tr *truth, stream *queryStream, rep *report) *session {
	return &session{w: w, cl: cl, tr: tr, stream: stream, rep: rep, sent: map[uint64]struct{}{}, live: true}
}

func pointHash(p vector.Dense) uint64 {
	h := fnv.New64a()
	if len(p) > 0 {
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), len(p)*4))
	}
	return h.Sum64()
}

// readOp builds one read request of the workload's batch size from
// the query stream, to url (the read target unless given).
func (s *session) readOp(url string) *op {
	pts := make([]vector.Dense, s.w.Batch)
	s.mu.Lock()
	for i := range pts {
		pts[i] = s.stream.Next()
		h := pointHash(pts[i])
		if _, dup := s.sent[h]; dup {
			s.repeats++
		}
		s.sent[h] = struct{}{}
		s.reads++
	}
	s.mu.Unlock()
	return readOpFor(url, pts)
}

func readOpFor(base string, pts []vector.Dense) *op {
	if len(pts) == 1 {
		return &op{kind: opRead, url: base + "/query", body: queryBody(pts[0]), points: pts}
	}
	return &op{kind: opRead, url: base + "/batch", body: pointsBody(pts), points: pts}
}

// check verifies one response against the truth copy (see truth).
func (s *session) check(o *op, body []byte) error {
	switch o.kind {
	case opRead:
		ans, err := parseAnswers(body)
		if err != nil {
			return err
		}
		if len(ans) != len(o.points) {
			return fmt.Errorf("%d answers for %d queries", len(ans), len(o.points))
		}
		s.mu.Lock()
		live := s.live
		s.mu.Unlock()
		var later func(pending)
		if !live {
			later = func(p pending) {
				s.mu.Lock()
				s.later = append(s.later, p)
				s.mu.Unlock()
			}
		}
		for i, a := range ans {
			if err := s.tr.checkAnswer(o.points[i], a.ids, live, later); err != nil {
				return err
			}
		}
		s.mu.Lock()
		if s.tally {
			for _, a := range ans {
				s.sizes = append(s.sizes, float64(len(a.ids)))
				s.lsh += a.lsh
				s.lin += a.linear
			}
		}
		s.mu.Unlock()
	case opAppend:
		ids, err := parseIDs(body)
		if err != nil {
			return err
		}
		if err := s.tr.add(ids, o.points); err != nil {
			return err
		}
		o.ids = ids
	case opDelete:
		n, err := intAfter(body, []byte(`"deleted":`))
		if err != nil {
			return err
		}
		if n != len(o.ids) {
			return fmt.Errorf("deleted %d of %d live ids", n, len(o.ids))
		}
		s.tr.kill(o.ids)
	}
	return nil
}

// count folds a phase's samples into attempted/failed.
func (s *session) count(samples []sample) {
	for _, x := range samples {
		s.rep.Attempted++
		if x.failed {
			s.rep.Failed++
		}
	}
}

// writeStream yields replicated-rw's writes: appends of fresh points
// and deletes of distinct original ids in a seeded order.
type writeStream struct {
	pool    []vector.Dense
	nextPt  int
	victims []int32
	nextDel int
}

func newWriteStream(c *corpus, seed uint64) *writeStream {
	perm := rng.New(seed ^ 0xde1e7e).Perm(len(c.data))
	v := make([]int32, len(perm))
	for i, p := range perm {
		v[i] = int32(p)
	}
	return &writeStream{pool: c.appendPool, victims: v}
}

func (ws *writeStream) appendOp(url string, n int) (*op, error) {
	if ws.nextPt+n > len(ws.pool) {
		return nil, fmt.Errorf("append pool exhausted (%d points)", len(ws.pool))
	}
	pts := ws.pool[ws.nextPt : ws.nextPt+n]
	ws.nextPt += n
	return &op{kind: opAppend, url: url + "/append", body: pointsBody(pts), points: pts}, nil
}

func (ws *writeStream) deleteOp(url string, n int) (*op, error) {
	if ws.nextDel+n > len(ws.victims) {
		return nil, fmt.Errorf("delete stream exhausted")
	}
	ids := ws.victims[ws.nextDel : ws.nextDel+n]
	ws.nextDel += n
	return &op{kind: opDelete, url: url + "/delete", body: deleteBody(ids), ids: ids}, nil
}

// timedOp pairs an op with its scheduled offset.
type timedOp struct {
	at time.Duration
	o  *op
}

func runTimed(ctx context.Context, env *runEnv, w *Workload) (*report, error) {
	cp, err := generate(w, env.seed, env.seconds)
	if err != nil {
		return nil, err
	}
	cl, setups, err := setUp(ctx, env, w, cp.data, setupReps)
	if err != nil {
		return nil, err
	}
	defer cl.stop()

	rep := &report{Workload: w.Name, Seed: env.seed}
	tr := newTruth(cp.data, w.Radius)
	stream, truthPts := newQueryStream(cp.queries, truthSample, w.Data.Jitter, env.seed)
	s := newSession(w, cl, tr, stream, rep)
	d := newLoadgen(nproc, s.check)
	defer d.close()
	// replicated-rw's reads and writes go out as two independent
	// clients with one connection each, so a read never queues behind a
	// write's fsync on the shared connections.
	split := [2]*loadgen{newLoadgen(1, s.check), newLoadgen(1, s.check)}
	defer split[0].close()
	defer split[1].close()

	// Warm-up: connections, page cache and lazily grown per-query buffers.
	warm := make([]*op, w.WarmupRequests)
	for i := range warm {
		warm[i] = s.readOp(cl.readURL)
	}
	s.count(d.openLoop(ctx, warm, make([]time.Duration, len(warm))))

	var compBefore float64
	if w.Writes != nil {
		s.live = false // reads race writes and follower lag; checked strictly after convergence
		if compBefore, err = statNumber(cl.writeURL, "compaction", "total"); err != nil {
			return nil, err
		}
	}
	// The measured time alternates open-loop and closed-loop phases, so
	// both see the same mix of the host's fast and slow seconds (a
	// shared host's speed swings by a fifth from one second to the
	// next); each metric pools all of its phases.
	ws := newWriteStream(cp, env.seed)
	openDur := time.Duration(env.seconds * openShare / cycles * float64(time.Second))
	closedDur := time.Duration(env.seconds * (1 - openShare) / cycles * float64(time.Second))
	var open, closed []sample
	var writeLat []float64
	var closedTime time.Duration
	steal0, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	for c := 0; c < cycles; c++ {
		list, sched, err := s.openOps(ws, openDur)
		if err != nil {
			return nil, err
		}
		s.tally = true
		var o []sample
		if w.Writes == nil {
			o = d.openLoop(ctx, list, sched)
		} else {
			o = openSplit(ctx, split, list, sched)
		}
		s.tally = false
		s.count(o)
		open = append(open, o...)

		cs, elapsed := d.closedLoop(ctx, func() *op { return s.readOp(cl.readURL) }, closedDur)
		s.count(cs)
		closed = append(closed, cs...)
		closedTime += elapsed
	}

	steal1, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	rep.prop("host_steal_pct", steal1.stealPct(steal0), "pct")

	if w.Writes != nil {
		comp, err := statNumber(cl.writeURL, "compaction", "total")
		if err != nil {
			return nil, err
		}
		rep.prop("shard.compactions", comp-compBefore, "count")
		if err := s.converge(ctx, d, truthPts); err != nil {
			return nil, err
		}
	} else if err := s.recall(ctx, d, truthPts); err != nil {
		return nil, err
	}

	var readLat, late []float64
	nr, nw := 0, 0
	for _, x := range open {
		switch {
		case x.kind != opRead:
			nw++
			if !x.failed {
				writeLat = append(writeLat, us(x.latency()))
			}
		default:
			nr++
			if !x.failed {
				readLat = append(readLat, us(x.latency()))
			}
		}
		late = append(late, us(x.sent-x.sched)/1000)
	}
	closedQueries := 0
	for _, x := range closed {
		if !x.failed {
			closedQueries += w.Batch
		}
	}
	rss, err := cl.rssMB()
	if err != nil {
		return nil, err
	}

	rep.prop("setup.build_s", medianOf(setups, func(t setupTimes) time.Duration { return t.build }), "s")
	rep.prop("setup.snapshot_write_s", medianOf(setups, func(t setupTimes) time.Duration { return t.write }), "s")
	rep.prop("setup.boot_s", medianOf(setups, func(t setupTimes) time.Duration { return t.boot }), "s")
	e2e := map[string]float64{
		"setup_s": medianOf(setups, setupTimes.total),
		"p50_us":  percentile(readLat, 50),
		"max_qps": float64(closedQueries) / closedTime.Seconds(),
		"recall":  s.recallMean,
		"rss_mb":  rss,
	}
	for _, m := range env.cfg.EndToEnd {
		v, ok := e2e[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json lists end-to-end metric %q, which the timed run does not measure", m.Name)
		}
		rep.add(m.Name, v, m.Unit)
	}

	rep.prop("error_rate", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "fraction")
	p, pp := tail(readLat)
	rep.prop("read_tail_us", p, "us")
	rep.prop("read_tail_percentile", pp, "pct")
	rep.prop("read_tail_limit_us", w.LatencyLimitUS.ReadP99, "us")
	rep.prop("read_samples", float64(len(readLat)), "count")
	if w.Writes != nil {
		rep.prop("write_p50_us", percentile(writeLat, 50), "us")
		p, pp = tail(writeLat)
		rep.prop("write_tail_us", p, "us")
		rep.prop("write_tail_percentile", pp, "pct")
		rep.prop("write_tail_limit_us", w.LatencyLimitUS.WriteP99, "us")
		rep.prop("write_samples", float64(len(writeLat)), "count")
	}
	rep.prop("closed_loop_requests", float64(len(closed)), "count")
	rep.prop("output_size_p50", percentile(s.sizes, 50), "ids")
	rep.prop("output_size_p90", percentile(s.sizes, 90), "ids")
	rep.prop("core.lsh_share", float64(s.lsh)/float64(max(s.lsh+s.lin, 1)), "fraction")
	rep.prop("query_repeat_share", float64(s.repeats)/float64(max(s.reads, 1)), "fraction")
	rep.prop("read_share", float64(nr)/float64(max(nr+nw, 1)), "fraction")
	live, err := statNumber(cl.writeURL, "live")
	if err != nil {
		return nil, err
	}
	tombs, err := statNumber(cl.writeURL, "tombstones")
	if err != nil {
		return nil, err
	}
	rep.prop("tombstone_ratio", tombs/math.Max(live+tombs, 1), "fraction")
	rep.prop("gen_late_ms", percentile(late, 99), "ms")
	rep.prop("open_loop_rate", w.ReadRate, "requests/s")
	rep.prop("recall_floor", 1-env.cfg.Delta, "fraction")
	if s.recallMean < 1-env.cfg.Delta {
		rep.breach("recall %.4f below the floor %.2f = 1-delta", s.recallMean, 1-env.cfg.Delta)
	}
	for _, e := range slices.Concat(d.errs, split[0].errs, split[1].errs) {
		rep.breach("request failed: %s", e)
	}
	return rep, nil
}

// openSplit runs one open-loop cycle with reads on split[0] and writes
// on split[1], both against the same clock, and returns the samples in
// schedule order.
func openSplit(ctx context.Context, split [2]*loadgen, list []*op, sched []time.Duration) []sample {
	var idx [2][]int
	for i, o := range list {
		k := 0
		if o.kind != opRead {
			k = 1
		}
		idx[k] = append(idx[k], i)
	}
	out := make([]sample, len(list))
	var wg sync.WaitGroup
	for k := range split {
		ops, at := make([]*op, len(idx[k])), make([]time.Duration, len(idx[k]))
		for j, i := range idx[k] {
			ops[j], at[j] = list[i], sched[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, x := range split[k].openLoop(ctx, ops, at) {
				out[idx[k][j]] = x
			}
		}()
	}
	wg.Wait()
	return out
}

// openOps builds one open-loop cycle: reads at the workload's rate and,
// for replicated-rw, appends and deletes at theirs, merged in schedule
// order.
func (s *session) openOps(ws *writeStream, dur time.Duration) ([]*op, []time.Duration, error) {
	var ops []timedOp
	for _, at := range uniformSchedule(int(s.w.ReadRate*dur.Seconds()), s.w.ReadRate, 0) {
		ops = append(ops, timedOp{at, s.readOp(s.cl.readURL)})
	}
	if wr := s.w.Writes; wr != nil {
		// Offsets interleave the streams instead of stacking them at t=0.
		for _, at := range uniformSchedule(int(wr.AppendRate*dur.Seconds()), wr.AppendRate, time.Duration(0.5/wr.AppendRate*float64(time.Second))) {
			o, err := ws.appendOp(s.cl.writeURL, wr.AppendPoints)
			if err != nil {
				return nil, nil, err
			}
			ops = append(ops, timedOp{at, o})
		}
		for _, at := range uniformSchedule(int(wr.DeleteRate*dur.Seconds()), wr.DeleteRate, time.Duration(0.25/wr.DeleteRate*float64(time.Second))) {
			o, err := ws.deleteOp(s.cl.writeURL, wr.DeleteIDs)
			if err != nil {
				return nil, nil, err
			}
			ops = append(ops, timedOp{at, o})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	list, sched := make([]*op, len(ops)), make([]time.Duration, len(ops))
	for i, t := range ops {
		list[i], sched[i] = t.o, t.at
	}
	return list, sched, nil
}

// recall sends the truth sample to the read target, checks every
// answer strictly and records mean recall against exact truth.
func (s *session) recall(ctx context.Context, d *loadgen, pts []vector.Dense) error {
	answers, err := s.ask(ctx, d, s.cl.readURL, pts)
	if err != nil {
		return err
	}
	var sum float64
	for i, a := range answers {
		sum += recallOf(a, s.tr.exact(pts[i]))
	}
	s.recallMean = sum / float64(len(pts))
	return nil
}

// ask sends pts to base in the workload's batch size, checks each
// answer strictly, and returns the id sets in order.
func (s *session) ask(ctx context.Context, d *loadgen, base string, pts []vector.Dense) ([][]int32, error) {
	s.mu.Lock()
	s.live = true
	s.mu.Unlock()
	var out [][]int32
	var buf bytes.Buffer
	for i := 0; i < len(pts); i += s.w.Batch {
		o := readOpFor(base, pts[i:min(i+s.w.Batch, len(pts))])
		var x sample
		d.send(ctx, o, &buf, time.Now(), &x)
		s.count([]sample{x})
		if x.failed {
			// The load generator kept the reason; the answers count as empty.
			out = append(out, make([][]int32, len(o.points))...)
			continue
		}
		ans, err := parseAnswers(buf.Bytes())
		if err != nil {
			return nil, err
		}
		for _, a := range ans {
			out = append(out, a.ids)
		}
	}
	return out, nil
}

// converge waits for replicated-rw's follower to apply every frame the
// writer journaled, then checks that writer, follower and router
// answer the truth sample id-identically, strictly, and with recall
// above the floor.
func (s *session) converge(ctx context.Context, d *loadgen, pts []vector.Dense) error {
	if err := s.tr.checkPending(s.later); err != nil {
		s.rep.breach("%v", err)
	}
	if err := waitConverged(ctx, s.cl, 30*time.Second); err != nil {
		return err
	}
	var sets [3][][]int32
	for i, base := range []string{s.cl.writer.url, s.cl.follower.url, s.cl.readURL} {
		ans, err := s.ask(ctx, d, base, pts)
		if err != nil {
			return err
		}
		sets[i] = ans
	}
	diff := 0
	var sum float64
	for i := range pts {
		if !sameIDs(sets[0][i], sets[1][i]) || !sameIDs(sets[0][i], sets[2][i]) {
			diff++
		}
		sum += recallOf(sets[2][i], s.tr.exact(pts[i]))
	}
	if diff > 0 {
		s.rep.breach("after convergence %d of %d truth-sample answers differ between writer, follower and router", diff, len(pts))
	}
	s.recallMean = sum / float64(len(pts))
	return nil
}

// waitConverged polls until the follower's applied sequence number
// equals the writer's.
func waitConverged(ctx context.Context, cl *cluster, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		ws, err := replicaSeq(cl.writer.url)
		if err != nil {
			return err
		}
		fs, err := replicaSeq(cl.follower.url)
		if err != nil {
			return err
		}
		if fs == ws {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at seq %d never caught up with writer seq %d", fs, ws)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func replicaSeq(base string) (uint64, error) {
	var st struct {
		Seq uint64 `json:"seq"`
	}
	if err := getJSON(base+"/replica/status", &st); err != nil {
		return 0, err
	}
	return st.Seq, nil
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

func getJSON(url string, v any) error {
	b, err := httpGet(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// statNumber reads one number from a server's /stats, following keys.
func statNumber(base string, keys ...string) (float64, error) {
	var v any
	if err := getJSON(base+"/stats", &v); err != nil {
		return 0, err
	}
	for _, k := range keys {
		m, ok := v.(map[string]any)
		if !ok {
			return 0, fmt.Errorf("/stats: %v is not an object", keys)
		}
		v = m[k]
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("/stats: %v is not a number", keys)
	}
	return f, nil
}
