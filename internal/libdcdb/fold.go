package libdcdb

import (
	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/store"
)

// Connection-level analysis: each operation runs as a single-pass fold
// and never materializes the queried series. Two execution plans exist,
// chosen per sensor:
//
//   - Pushdown: physical sensors with no configured scaling ship a
//     fold.Spec to where the data lives (store.Backend.Aggregate) and
//     get one finished fold state back — a month-long summary over cold
//     data transfers O(1) bytes per replica instead of the readings.
//   - Client-side fold: everything else (virtual sensors, scaled
//     sensors) folds the Connection's own QueryStream chunk by chunk,
//     holding one chunk at most.
//
// Both plans run the identical fold arithmetic over the identical
// reading sequence, so their results are bit-identical; scaling is the
// one transform that is not post-hoc state-scalable bit-identically,
// which is why a configured scale forces the client-side plan.

// pushdown resolves whether an analysis op on topic may run
// server-side: the sensor must be physical and unscaled (the pushed
// fold sees raw stored values, so any client-side transform would break
// bit-identity with the streamed plan).
func (c *Connection) pushdown(topic string) (core.SensorID, bool) {
	t, err := core.CanonicalTopic(topic)
	if err != nil {
		return core.SensorID{}, false
	}
	c.mu.RLock()
	m, hasMeta := c.meta[t]
	c.mu.RUnlock()
	if hasMeta && (m.Virtual || m.EffectiveScale() != 1) {
		return core.SensorID{}, false
	}
	return c.mapper.Lookup(t)
}

// foldQuery runs one fold over the sensor's readings in the spec's
// range, pushed down when possible and folded over QueryStream
// otherwise.
func (c *Connection) foldQuery(topic string, spec fold.Spec) (fold.State, error) {
	if id, ok := c.pushdown(topic); ok {
		return c.backend.Aggregate(id, spec)
	}
	st, err := fold.New(spec)
	if err != nil {
		return nil, err
	}
	rs, err := c.QueryStream(topic, spec.From, spec.To)
	if err != nil {
		return nil, err
	}
	if err := store.FoldStream(st, rs); err != nil {
		return nil, err
	}
	return st, nil
}

// QuerySummary computes the Aggregate of a sensor over [from, to] in a
// single streaming pass (pushed down to the storage nodes for unscaled
// physical sensors). Unlike Summarize, an empty window is not an
// error: the result reports Count == 0 and the caller decides how to
// surface it, so one empty topic cannot abort a multi-topic run.
func (c *Connection) QuerySummary(topic string, from, to int64) (Aggregate, error) {
	st, err := c.foldQuery(topic, fold.Spec{Op: fold.OpSummary, From: from, To: to})
	if err != nil {
		return Aggregate{}, err
	}
	return aggregateFromFold(st.(*fold.Summary)), nil
}

// QueryIntegral computes the trapezoid-rule time integral of a sensor
// over [from, to] in a single streaming pass (pushed down where
// possible). An empty window integrates to zero, matching Integral.
func (c *Connection) QueryIntegral(topic string, from, to int64) (float64, error) {
	st, err := c.foldQuery(topic, fold.Spec{Op: fold.OpIntegral, From: from, To: to})
	if err != nil {
		return 0, err
	}
	return st.(*fold.Integral).Value(), nil
}

// QueryDownsample reduces a sensor's readings over [from, to] to at
// most nmax points by averaging equal time buckets, in a single
// streaming pass (pushed down where possible). The bucket grid spans
// the query range — not the data range the materialized Downsample
// uses — so the result is independent of which readings exist, which
// is what lets replicas bucket identically. nmax or fewer readings
// pass through unbucketed.
func (c *Connection) QueryDownsample(topic string, from, to int64, nmax int) ([]core.Reading, error) {
	st, err := c.foldQuery(topic, fold.Spec{Op: fold.OpDownsample, From: from, To: to, Buckets: nmax})
	if err != nil {
		return nil, err
	}
	return st.(*fold.Downsample).Result(), nil
}

// derivStream adapts a reading stream to its discrete time derivative,
// one chunk at a time (Derivative semantics: non-finite values and
// non-positive dt pairs are skipped).
type derivStream struct {
	st  store.ReadingStream
	d   fold.Derivative
	buf []core.Reading
}

func (s *derivStream) Next() ([]core.Reading, error) {
	for {
		rs, err := s.st.Next()
		if err != nil {
			return nil, err // io.EOF included
		}
		s.buf = s.d.Add(s.buf[:0], rs)
		if len(s.buf) > 0 {
			return s.buf, nil
		}
		// A chunk may yield no output (first reading, all-NaN chunk);
		// keep pulling.
	}
}

func (s *derivStream) Close() error { return s.st.Close() }

var _ store.ReadingStream = (*derivStream)(nil)

// DerivativeStream streams the discrete time derivative of a sensor
// over [from, to] in value-units per second, computed incrementally
// from the sensor's reading stream: the whole pipeline holds one chunk
// at most. The stream must be closed.
func (c *Connection) DerivativeStream(topic string, from, to int64) (store.ReadingStream, error) {
	rs, err := c.QueryStream(topic, from, to)
	if err != nil {
		return nil, err
	}
	return &derivStream{st: rs}, nil
}
