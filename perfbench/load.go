package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vector"
)

type opKind int

const (
	opRead opKind = iota
	opAppend
	opDelete
)

// op is one HTTP request of a workload's stream.
type op struct {
	kind opKind
	url  string // full endpoint URL
	body []byte
	// What was sent, for checking the answer: the read points, the
	// appended points, or the deleted ids.
	points []vector.Dense
	ids    []int32
}

// sample is one request's timing, relative to the phase start. For an
// open-loop request, sched is when it was due; latency counts from
// there, so a stall delays every request queued behind it.
type sample struct {
	kind              opKind
	sched, sent, done time.Duration
	bytes             int
	failed            bool
	// o and its answer wait here for checkAll, which runs once the
	// phase's clock has stopped.
	o    *op
	body []byte
}

func (s sample) latency() time.Duration { return s.done - s.sched }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// loadgen sends requests over at most workers connections and hands
// every 200 response to check; a transport error, a non-200 status or a
// check error marks the sample failed. The timed phases check their
// answers only after the phase ends, so the checker's CPU time counts
// in neither latency nor throughput.
type loadgen struct {
	client  *http.Client
	workers int
	check   func(o *op, body []byte) error
	// errs keeps the first few failures for the report.
	mu   sync.Mutex
	errs []string
}

func newLoadgen(workers int, check func(o *op, body []byte) error) *loadgen {
	tr := &http.Transport{
		MaxIdleConnsPerHost: workers,
		MaxConnsPerHost:     workers,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &loadgen{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, workers: workers, check: check}
}

func (d *loadgen) close() { d.client.CloseIdleConnections() }

func (d *loadgen) noteErr(err error) {
	d.mu.Lock()
	if len(d.errs) < 5 {
		d.errs = append(d.errs, err.Error())
	}
	d.mu.Unlock()
}

// do sends one op, reading the body into buf, and reports whether it
// succeeded and how many response bytes it carried.
func (d *loadgen) do(ctx context.Context, o *op, buf *bytes.Buffer) (int, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, o.url, bytes.NewReader(o.body))
	if err != nil {
		d.noteErr(err)
		return 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		d.noteErr(err)
		return 0, false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		d.noteErr(err)
		return 0, false
	}
	if resp.StatusCode != http.StatusOK {
		d.noteErr(fmt.Errorf("%s: status %d: %.120s", o.url, resp.StatusCode, buf.Bytes()))
		return buf.Len(), false
	}
	return buf.Len(), true
}

// verify runs the check on a response do accepted.
func (d *loadgen) verify(o *op, body []byte) bool {
	if d.check == nil {
		return true
	}
	if err := d.check(o, body); err != nil {
		d.noteErr(fmt.Errorf("%s: %w", o.url, err))
		return false
	}
	return true
}

// send is do, the latency clock, then verify.
func (d *loadgen) send(ctx context.Context, o *op, buf *bytes.Buffer, start time.Time, s *sample) {
	d.sendUnchecked(ctx, o, buf, start, s)
	s.failed = s.failed || !d.verify(o, buf.Bytes())
}

// sendUnchecked is do and the latency clock; the answer stays in buf.
func (d *loadgen) sendUnchecked(ctx context.Context, o *op, buf *bytes.Buffer, start time.Time, s *sample) {
	n, ok := d.do(ctx, o, buf)
	s.done, s.bytes, s.failed = time.Since(start), n, !ok
}

// keep is sendUnchecked for a timed phase: the op and a copy of its
// answer stay on the sample for checkAll.
func (d *loadgen) keep(ctx context.Context, o *op, buf *bytes.Buffer, start time.Time, s *sample) {
	d.sendUnchecked(ctx, o, buf, start, s)
	if !s.failed {
		s.o, s.body = o, bytes.Clone(buf.Bytes())
	}
}

// checkAll verifies, in order, every answer a phase kept, and releases
// them.
func (d *loadgen) checkAll(samples []sample) {
	for i := range samples {
		s := &samples[i]
		if s.o != nil {
			s.failed = !d.verify(s.o, s.body)
			s.o, s.body = nil, nil
		}
	}
}

// openLoop sends ops[i] when sched[i] has elapsed since the phase
// start. Workers take requests in schedule order; when all of them are
// busy a due request waits, and that wait counts in its latency.
func (d *loadgen) openLoop(ctx context.Context, ops []*op, sched []time.Duration) []sample {
	out := make([]sample, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < d.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				if wait := sched[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				s := sample{kind: ops[i].kind, sched: sched[i], sent: time.Since(start)}
				d.keep(ctx, ops[i], &buf, start, &s)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	d.checkAll(out)
	return out
}

// closedLoop keeps every worker sending next() back to back for dur,
// and returns the samples and the phase's wall time, which excludes
// checking. next must be safe for concurrent use.
func (d *loadgen) closedLoop(ctx context.Context, next func() *op, dur time.Duration) ([]sample, time.Duration) {
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < d.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var local []sample
			for ctx.Err() == nil && time.Since(start) < dur {
				o := next()
				s := sample{kind: o.kind, sent: time.Since(start)}
				s.sched = s.sent
				d.keep(ctx, o, &buf, start, &s)
				local = append(local, s)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	d.checkAll(out)
	return out, elapsed
}

// uniformSchedule spaces n requests evenly at rate per second, starting
// offset into the phase.
func uniformSchedule(n int, rate float64, offset time.Duration) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = offset + time.Duration(float64(i)/rate*float64(time.Second))
	}
	return s
}

// supportedPercentile returns the highest of the candidate percentiles
// that leaves at least minTail samples strictly above it in a sample of
// n, or 0 when even the median does not.
func supportedPercentile(n int) float64 {
	const minTail = 10
	for _, p := range []float64{99.9, 99, 98, 95, 90, 75, 50} {
		// Nearest-rank: the p-th percentile is sample ⌈p/100·n⌉ (1-based),
		// so n − ⌈p/100·n⌉ samples lie beyond it.
		if n-rank(p, n) >= minTail {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of vals (sorted
// in place).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[max(rank(p, len(vals)), 1)-1]
}

// rank is the 1-based nearest-rank index ⌈p/100·n⌉ of the p-th
// percentile, immune to float error in p/100·n (99.9% of 10000 is
// rank 9990, not 9991).
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tail reports the p99 of vals when the sample supports it, otherwise
// the highest percentile it does support, with that percentile.
func tail(vals []float64) (value, p float64) {
	p = math.Min(99, supportedPercentile(len(vals)))
	if p == 0 {
		p = 50
	}
	return percentile(vals, p), p
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
