package main

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/vector"
)

// corpus is one run's generated input: the indexed points (point i has
// id i), the held-out query points and, for write workloads, fresh
// points to append.
type corpus struct {
	data       []vector.Dense
	queries    []vector.Dense
	appendPool []vector.Dense
}

// generate draws a workload's corpus for a run of the given length.
// The point cloud depends only on the spec's corpus seed; seed picks the
// held-out split and the append pool, so the same seed always yields the
// same corpus (and a longer run's pool extends a shorter one's).
func generate(w *Workload, seed uint64, seconds float64) (*corpus, error) {
	d := w.Data
	var all []vector.Dense
	var m *mixture
	switch d.Kind {
	case "corel":
		all = dataset.CorelLike(d.Scale, d.CorpusSeed).Points
	case "mixture":
		m = newMixture(d)
		all = m.sample(d.N, rng.New(d.CorpusSeed^0x9e3779b97f4a7c15))
	default:
		return nil, fmt.Errorf("unknown data kind %q", d.Kind)
	}
	if d.Queries <= truthSample || d.Queries >= len(all) {
		return nil, fmt.Errorf("queries = %d, want in (%d, %d)", d.Queries, truthSample, len(all))
	}
	c := &corpus{}
	c.data, c.queries = dataset.SplitQueries(all, d.Queries, seed)
	if wr := w.Writes; wr != nil {
		if m == nil {
			return nil, fmt.Errorf("writes need a mixture generator for fresh points")
		}
		// Both runs send at most this many requests of each kind: the
		// timed run's open-loop phases, or the traced run's lag samples
		// followed by its in-process replay of the same stream.
		appends := int(wr.AppendRate*seconds*openShare) + lagSamples
		deletes := int(wr.DeleteRate*seconds*openShare) + lagSamples
		if deletes*wr.DeleteIDs > len(c.data) {
			return nil, fmt.Errorf("%.0f s of deletes need %d ids, the corpus holds %d", seconds, deletes*wr.DeleteIDs, len(c.data))
		}
		c.appendPool = m.sample(appends*wr.AppendPoints, rng.New(seed^0xa99e7d))
	}
	return c, nil
}

// mixture is a Gaussian mixture in [0,1]^dim with power-law cluster
// sizes and per-cluster σ log-uniform in [SigmaMin, SigmaMax]: tight
// clusters report whole, loose ones report a few neighbours, so answer
// sizes vary by orders of magnitude across queries.
type mixture struct {
	dim     int
	centers [][]float64
	sigmas  []float64
	cum     []float64 // cumulative cluster weights for sampling
}

func newMixture(d DataSpec) *mixture {
	r := rng.New(d.CorpusSeed)
	m := &mixture{dim: d.Dim, centers: make([][]float64, d.Clusters), sigmas: make([]float64, d.Clusters)}
	lo, hi := math.Log(d.SigmaMin), math.Log(d.SigmaMax)
	var total float64
	for c := range m.centers {
		m.centers[c] = make([]float64, d.Dim)
		for j := range m.centers[c] {
			m.centers[c][j] = r.Float64()
		}
		m.sigmas[c] = math.Exp(lo + r.Float64()*(hi-lo))
		total += math.Pow(float64(c+1), -d.Exponent)
		m.cum = append(m.cum, total)
	}
	for c := range m.cum {
		m.cum[c] /= total
	}
	return m
}

func (m *mixture) sample(n int, r *rng.Rand) []vector.Dense {
	pts := make([]vector.Dense, n)
	for i := range pts {
		u := r.Float64()
		c := 0
		for c < len(m.cum)-1 && m.cum[c] < u {
			c++
		}
		p := make(vector.Dense, m.dim)
		for j := range p {
			p[j] = float32(m.centers[c][j] + r.Normal()*m.sigmas[c])
		}
		pts[i] = p
	}
	return pts
}

// queryStream hands out read points: a seeded permutation of the
// held-out queries, and after each full pass the same points again with
// fresh Gaussian jitter, so no point is ever sent twice bit-identically
// (the result cache, were it on, could never hit). The first reserve
// points of the permutation are kept out of the stream for the recall
// sample.
type queryStream struct {
	pts    []vector.Dense
	jitter float64
	r      *rng.Rand
	next   int
	round  int
}

func newQueryStream(queries []vector.Dense, reserve int, jitter float64, seed uint64) (stream *queryStream, truth []vector.Dense) {
	r := rng.New(seed ^ 0x51ea4)
	perm := r.Perm(len(queries))
	ordered := make([]vector.Dense, len(queries))
	for i, j := range perm {
		ordered[i] = queries[j]
	}
	return &queryStream{pts: ordered[reserve:], jitter: jitter, r: r}, ordered[:reserve]
}

// Next returns the next read point; the caller owns it.
func (s *queryStream) Next() vector.Dense {
	if s.next == len(s.pts) {
		s.next = 0
		s.round++
	}
	p := s.pts[s.next]
	s.next++
	if s.round == 0 {
		return p
	}
	q := make(vector.Dense, len(p))
	for j := range p {
		q[j] = p[j] + float32(s.r.Normal()*s.jitter)
	}
	return q
}
