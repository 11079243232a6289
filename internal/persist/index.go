package persist

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/multiprobe"
	"repro/internal/vector"
)

// WriteIndex writes a complete snapshot of ix under the given metric
// identifier and returns the number of bytes written. The output is
// deterministic: equal indexes (same points, same drawn hash functions)
// serialize to equal bytes. The index must not be mutated concurrently.
func WriteIndex[P any](w io.Writer, metric string, ix *core.Index[P]) (int64, error) {
	return writeIndexSnapshot(w, metric, ix, 0)
}

// WriteMultiProbe writes a snapshot of a multi-probe index: the wrapped
// plain index's sections plus the "prob" section recording T, so a
// reload reconstructs identical probe sequences. metric must be one of
// the dense p-stable metrics (l1, l2).
func WriteMultiProbe(w io.Writer, metric string, ix *multiprobe.Index) (int64, error) {
	return writeIndexSnapshot(w, metric, ix.Core(), ix.Probes())
}

// writeIndexSnapshot is the shared kind-1 writer; probes > 0 adds the
// "prob" section after "meta" (plain snapshots are byte-identical to
// the probe-less format).
func writeIndexSnapshot[P any](w io.Writer, metric string, ix *core.Index[P], probes int) (int64, error) {
	c, err := codecFor[P](metric)
	if err != nil {
		return 0, err
	}
	cw := &countWriter{w: w}
	if err := writeHeader(cw, kindIndex); err != nil {
		return cw.n, err
	}
	if err := writeIndexParts(cw, c, ix, ix.Points(), nil, probes); err != nil {
		return cw.n, err
	}
	if err := writeSection(cw, "end!", nil); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadIndex reads a plain-index snapshot, requiring it to hold the
// given metric, and reassembles the index without rebuilding. The
// returned index answers queries id-for-id identically to the one that
// was saved. Multi-probe snapshots are rejected (use ReadMultiProbe so
// the probe configuration is not silently dropped).
func ReadIndex[P any](r io.Reader, metric string) (*core.Index[P], Meta, error) {
	ix, m, err := readIndexSnapshot[P](r, metric)
	if err != nil {
		return nil, Meta{}, err
	}
	if m.probes != 0 {
		return nil, Meta{}, fmt.Errorf("%w: snapshot holds a multi-probe index (T=%d); use the multi-probe reader", ErrProbeMode, m.probes)
	}
	return ix, publicMeta(m, 0), nil
}

// ReadMultiProbe reads a multi-probe index snapshot written by
// WriteMultiProbe; the restored index probes identical bucket sequences
// and answers queries id-for-id identically to the saved one. Plain
// snapshots are rejected (they record no probe configuration).
func ReadMultiProbe(r io.Reader, metric string) (*multiprobe.Index, Meta, error) {
	ix, m, err := readIndexSnapshot[vector.Dense](r, metric)
	if err != nil {
		return nil, Meta{}, err
	}
	if m.probes == 0 {
		return nil, Meta{}, fmt.Errorf("%w: snapshot holds a plain index; use the plain reader", ErrProbeMode)
	}
	mp, err := multiprobe.FromCore(ix, m.probes)
	if err != nil {
		return nil, Meta{}, corrupt("restoring multi-probe index: %v", err)
	}
	return mp, publicMeta(m, 0), nil
}

// readIndexSnapshot is the shared kind-1 reader.
func readIndexSnapshot[P any](r io.Reader, metric string) (*core.Index[P], *indexMeta, error) {
	c, err := codecFor[P](metric)
	if err != nil {
		return nil, nil, err
	}
	ss := &sectionStream{r: r}
	kind, err := readHeader(r)
	if err != nil {
		return nil, nil, err
	}
	if kind != kindIndex {
		return nil, nil, corrupt("snapshot holds a sharded index; use the sharded reader")
	}
	if tag, err := ss.peek(); err != nil {
		return nil, nil, err
	} else if tag == "covr" {
		return nil, nil, fmt.Errorf("%w: snapshot holds a covering index; use the covering reader", ErrCoverMode)
	}
	ix, m, err := readIndexBody(ss, c, nil)
	if err != nil {
		return nil, nil, err
	}
	if _, err := ss.read("end!"); err != nil {
		return nil, nil, err
	}
	return ix, m, nil
}

// publicMeta converts the wire meta to the exported summary.
func publicMeta(m *indexMeta, shards int) Meta {
	return Meta{
		Metric: m.metric,
		Dim:    m.dim,
		N:      m.n,
		Radius: m.radius,
		Delta:  m.delta,
		K:      m.params.K,
		L:      m.params.L,
		Shards: shards,
		Probes: m.probes,
		Seed:   m.params.Seed,
	}
}

// writeIndexParts writes the "meta", optional "prob", "pnts" and
// L "tabl" sections of one index. points is passed separately so the
// sharded writer can substitute a compacted point set (with buckets
// supplying the matching compacted tables: when buckets is non-nil,
// buckets[j] replaces table j's bucket map). The hashers always come
// from the live index.
func writeIndexParts[P any](w io.Writer, c *codec[P], ix *core.Index[P], points []P, buckets []map[uint64]*lsh.Bucket, probes int) error {
	fam := ix.Family()
	if fam == nil {
		return fmt.Errorf("persist: index has no family (built before persistence support?)")
	}
	if got := fam.Name(); got != c.familyName {
		return fmt.Errorf("persist: metric %q expects family %q, index uses %q", c.metric, c.familyName, got)
	}
	m := &indexMeta{
		metric:    c.metric,
		n:         len(points),
		radius:    ix.Radius(),
		delta:     ix.Delta(),
		p1:        ix.P1(),
		costAlpha: ix.Cost().Alpha,
		costBeta:  ix.Cost().Beta,
		params:    ix.Tables().Params(),
	}
	dimmer, ok := fam.(interface{ Dim() int })
	if !ok {
		return fmt.Errorf("persist: family %q does not report its dimension", fam.Name())
	}
	m.dim = dimmer.Dim()
	if err := c.extra(fam, m); err != nil {
		return err
	}

	var e enc
	if err := encodeIndexMeta(&e, m); err != nil {
		return err
	}
	if err := writeSection(w, "meta", e.b); err != nil {
		return err
	}

	if probes > 0 {
		if probes > maxProbes {
			return fmt.Errorf("persist: probe count %d exceeds the format cap %d", probes, maxProbes)
		}
		if err := writeProbeSection(w, probes); err != nil {
			return err
		}
	}

	e = enc{}
	if err := c.writePoints(&e, m, points); err != nil {
		return err
	}
	if err := writeSection(w, "pnts", e.b); err != nil {
		return err
	}

	for j := 0; j < ix.Tables().L(); j++ {
		tab := ix.Tables().Table(j)
		bm := tab.Buckets
		if buckets != nil {
			bm = buckets[j]
		}
		e = enc{}
		if err := c.writeHasher(&e, m, tab.Hasher); err != nil {
			return err
		}
		if err := writeBuckets(&e, bm, m.n); err != nil {
			return err
		}
		if err := writeSection(w, "tabl", e.b); err != nil {
			return err
		}
	}
	return nil
}

// readIndexBody reads the "meta", optional "prob", legacy "quan",
// "pnts" and L "tabl" sections and reassembles the index; a present
// "prob" section is recorded in the returned meta's probes field for the
// caller to act on, and a legacy "quan" section is validated and
// dropped (see skipLegacyQuant). A non-nil shared lets the tables reuse
// hashers decoded earlier from byte-identical encodings (see
// sharedHashers).
func readIndexBody[P any](ss *sectionStream, c *codec[P], shared *sharedHashers[P]) (*core.Index[P], *indexMeta, error) {
	payload, err := ss.read("meta")
	if err != nil {
		return nil, nil, err
	}
	m, err := decodeIndexMeta(payload, c.metric)
	if err != nil {
		return nil, nil, err
	}

	if m.probes, err = ss.readProbeSection(); err != nil {
		return nil, nil, err
	}

	if err := ss.skipLegacyQuant(m.metric); err != nil {
		return nil, nil, err
	}

	payload, err = ss.read("pnts")
	if err != nil {
		return nil, nil, err
	}
	d := &dec{b: payload}
	points, err := c.readPoints(d, m)
	if err != nil {
		return nil, nil, err
	}
	if err := d.done("pnts"); err != nil {
		return nil, nil, err
	}

	tables := make([]lsh.Table[P], m.params.L)
	for j := range tables {
		payload, err = ss.read("tabl")
		if err != nil {
			return nil, nil, err
		}
		d = &dec{b: payload}
		hasher, err := c.readHasher(d, m)
		if err != nil {
			return nil, nil, err
		}
		if shared != nil {
			hasher = shared.share(j, payload[:d.off], hasher)
		}
		buckets, err := readBuckets(d, m)
		if err != nil {
			return nil, nil, err
		}
		if err := d.done("tabl"); err != nil {
			return nil, nil, err
		}
		tables[j] = lsh.Table[P]{Hasher: hasher, Buckets: buckets}
	}

	lt, err := lsh.RestoreTables(m.params, tables, m.n)
	if err != nil {
		return nil, nil, corrupt("restoring tables: %v", err)
	}
	fam, err := c.family(m)
	if err != nil {
		return nil, nil, corrupt("restoring family: %v", err)
	}
	cfg := core.RestoreConfig[P]{
		Family:   fam,
		Distance: c.dist,
		Radius:   m.radius,
		Delta:    m.delta,
		P1:       m.p1,
		Cost:     core.CostModel{Alpha: m.costAlpha, Beta: m.costBeta},
	}
	if c.store != nil {
		cfg.Store = c.store(m)
	}
	ix, err := core.Restore(points, lt, cfg)
	if err != nil {
		return nil, nil, corrupt("restoring index: %v", err)
	}
	return ix, m, nil
}

// sharedHashers lets the shards of one sharded snapshot reload with
// shared hash functions: the first shard read records each table's
// decoded hasher and its encoded bytes, and a later shard whose table-t
// hasher bytes are byte-equal gets the recorded hasher object instead
// of its own decoded copy. Shards built with one drawn function set
// thus reload pointer-aliased (and hash each query once); snapshots
// whose shards drew independent functions reload unaliased.
type sharedHashers[P any] struct {
	recorded bool
	raw      [][]byte
	hashers  []lsh.Hasher[P]
}

// share returns the hasher table t should use: h itself while the first
// shard is being recorded or when its encoding raw differs from the
// first shard's, the first shard's hasher otherwise.
func (s *sharedHashers[P]) share(t int, raw []byte, h lsh.Hasher[P]) lsh.Hasher[P] {
	if !s.recorded {
		s.raw = append(s.raw, bytes.Clone(raw))
		s.hashers = append(s.hashers, h)
		return h
	}
	if t < len(s.raw) && bytes.Equal(s.raw[t], raw) {
		return s.hashers[t]
	}
	return h
}

// ---- meta section ----

func encodeIndexMeta(e *enc, m *indexMeta) error {
	e.str(m.metric)
	e.u32(uint32(m.dim))
	e.u64(uint64(m.n))
	e.f64(m.radius)
	e.f64(m.delta)
	e.f64(m.p1)
	e.f64(m.costAlpha)
	e.f64(m.costBeta)
	e.u32(uint32(m.params.K))
	e.u32(uint32(m.params.L))
	e.u32(uint32(m.params.HLLRegisters))
	e.u32(uint32(m.params.HLLThreshold))
	e.u64(m.params.Seed)
	switch m.metric {
	case MetricL2, MetricL1:
		e.f64(m.w)
	case MetricAngular:
		e.u32(uint32(len(m.curve)))
		for _, p := range m.curve {
			e.f64(p)
		}
	}
	return nil
}

func decodeIndexMeta(payload []byte, wantMetric string) (*indexMeta, error) {
	d := &dec{b: payload}
	m := &indexMeta{}
	m.metric = d.str()
	if d.err != nil {
		return nil, d.err
	}
	if m.metric != wantMetric {
		return nil, fmt.Errorf("%w: snapshot holds metric %q, want %q", ErrMetric, m.metric, wantMetric)
	}
	m.dim = int(d.u32())
	m.n = int(d.u64())
	m.radius = d.f64()
	m.delta = d.f64()
	m.p1 = d.f64()
	m.costAlpha = d.f64()
	m.costBeta = d.f64()
	m.params.K = int(d.u32())
	m.params.L = int(d.u32())
	m.params.HLLRegisters = int(d.u32())
	m.params.HLLThreshold = int(d.u32())
	m.params.Seed = d.u64()
	switch wantMetric {
	case MetricL2, MetricL1:
		m.w = d.f64()
	case MetricAngular:
		nc := int(d.u32())
		if d.err == nil && (nc < 2 || nc > maxCurve) {
			return nil, corrupt("calibration curve has %d points, want 2..%d", nc, maxCurve)
		}
		if !d.need(nc * 8) {
			return nil, d.err
		}
		m.curve = make([]float64, nc)
		for i := range m.curve {
			m.curve[i] = d.f64()
			if math.IsNaN(m.curve[i]) || m.curve[i] < 0 || m.curve[i] > 1 {
				return nil, corrupt("calibration curve point %d = %v outside [0,1]", i, m.curve[i])
			}
		}
	}
	if err := d.done("meta"); err != nil {
		return nil, err
	}
	return m, validateMeta(m)
}

func validateMeta(m *indexMeta) error {
	if m.dim < 1 || m.dim > maxDim {
		return corrupt("dim %d outside [1,%d]", m.dim, maxDim)
	}
	if m.n < 0 || m.n > 1<<31-1 {
		return corrupt("point count %d outside [0,2^31)", m.n)
	}
	if !(m.radius > 0) || math.IsInf(m.radius, 0) {
		return corrupt("radius %v not positive and finite", m.radius)
	}
	if !(m.delta > 0 && m.delta < 1) {
		return corrupt("delta %v outside (0,1)", m.delta)
	}
	if !(m.p1 >= 0 && m.p1 <= 1) {
		return corrupt("p1 %v outside [0,1]", m.p1)
	}
	if !(m.costAlpha > 0) || math.IsInf(m.costAlpha, 0) || !(m.costBeta > 0) || math.IsInf(m.costBeta, 0) {
		return corrupt("cost model (%v, %v) not positive and finite", m.costAlpha, m.costBeta)
	}
	if m.params.K < 1 || m.params.K > maxK {
		return corrupt("k %d outside [1,%d]", m.params.K, maxK)
	}
	if m.params.L < 1 || m.params.L > maxTables {
		return corrupt("L %d outside [1,%d]", m.params.L, maxTables)
	}
	if mr := m.params.HLLRegisters; mr < hll.MinM || mr > hll.MaxM || mr&(mr-1) != 0 {
		return corrupt("HLL registers %d not a power of two in [%d,%d]", mr, hll.MinM, hll.MaxM)
	}
	if m.params.HLLThreshold < 0 {
		return corrupt("HLL threshold %d negative", m.params.HLLThreshold)
	}
	if m.params.HLLThreshold == 0 {
		m.params.HLLThreshold = m.params.HLLRegisters
	}
	switch m.metric {
	case MetricL2, MetricL1:
		if !(m.w > 0) || math.IsInf(m.w, 0) {
			return corrupt("slot width %v not positive and finite", m.w)
		}
	case MetricAngular:
		if m.dim < 2 {
			return corrupt("angular dim %d, want >= 2", m.dim)
		}
	}
	return nil
}
