// Package libdcdb is the Go equivalent of DCDB's libDCDB (paper §5.1):
// the well-defined API through which all accesses to Storage Backends
// are performed, independent of the underlying database implementation.
// Command-line tools, RESTful services and the Grafana data source are
// all built on top of it.
//
// A Connection combines a store.Backend with the topic↔SID mapper, the
// sensor-metadata registry and the virtual-sensor engine. Queries on
// virtual sensors are evaluated lazily for the queried period only, and
// results are written back to the Storage Backend so later queries can
// re-use them (paper §3.2).
package libdcdb

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/store"
	"dcdb/internal/vsensor"
)

// Connection is the entry point for all data access. It is safe for
// concurrent use.
type Connection struct {
	backend store.Backend
	mapper  *core.TopicMapper

	mu        sync.RWMutex
	meta      map[string]core.Metadata // canonical topic -> metadata
	hierarchy *core.Hierarchy
	vcache    map[string][]interval // virtual topic -> cached periods
}

type interval struct{ from, to int64 }

// Connect wraps a Storage Backend. The mapper may be shared with a
// Collect Agent so that both sides translate topics identically; pass
// nil to create a fresh one.
func Connect(backend store.Backend, mapper *core.TopicMapper) *Connection {
	if mapper == nil {
		mapper = core.NewTopicMapper()
	}
	return &Connection{
		backend:   backend,
		mapper:    mapper,
		meta:      make(map[string]core.Metadata),
		hierarchy: core.NewHierarchy(),
		vcache:    make(map[string][]interval),
	}
}

// Mapper exposes the shared topic mapper.
func (c *Connection) Mapper() *core.TopicMapper { return c.mapper }

// Backend exposes the underlying Storage Backend.
func (c *Connection) Backend() store.Backend { return c.backend }

// PublishSensor registers (or updates) sensor metadata, making the
// sensor visible in the hierarchy. This is dcdbconfig's "publish"
// operation.
func (c *Connection) PublishSensor(m core.Metadata) error {
	if err := m.Validate(); err != nil {
		return err
	}
	topic, err := core.CanonicalTopic(m.Topic)
	if err != nil {
		return err
	}
	m.Topic = topic
	if m.Virtual {
		if _, err := vsensor.Parse(m.Expression); err != nil {
			return fmt.Errorf("libdcdb: virtual sensor %q: %w", topic, err)
		}
	}
	if _, err := c.mapper.Map(topic); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.meta[topic] = m
	return c.hierarchy.Add(topic)
}

// RegisterTopic makes a sensor visible in the hierarchy without
// attaching metadata (used when rebuilding a connection from persisted
// state where only readings and the topic map survive).
func (c *Connection) RegisterTopic(topic string) error {
	t, err := core.CanonicalTopic(topic)
	if err != nil {
		return err
	}
	if _, err := c.mapper.Map(t); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hierarchy.Add(t)
}

// Metadata returns the registered metadata of a sensor.
func (c *Connection) Metadata(topic string) (core.Metadata, bool) {
	t, err := core.CanonicalTopic(topic)
	if err != nil {
		return core.Metadata{}, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.meta[t]
	return m, ok
}

// ListSensors returns the topics of all published sensors below the
// given hierarchy path ("" for all).
func (c *Connection) ListSensors(path string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hierarchy.Sensors(path)
}

// Children lists hierarchy components directly below path, for
// level-by-level navigation (paper §5.4).
func (c *Connection) Children(path string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hierarchy.Children(path)
}

// Insert stores a reading for a sensor, honouring its configured TTL.
// Unpublished topics are accepted and auto-registered without metadata,
// matching the schemaless ingest of the original system.
func (c *Connection) Insert(topic string, r core.Reading) error {
	t, err := core.CanonicalTopic(topic)
	if err != nil {
		return err
	}
	id, err := c.mapper.Map(t)
	if err != nil {
		return err
	}
	c.mu.Lock()
	var ttl time.Duration
	if m, ok := c.meta[t]; ok {
		ttl = m.TTL
	}
	err = c.hierarchy.Add(t)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.backend.Insert(id, r, ttl)
}

// InsertBatch stores several readings of one sensor.
func (c *Connection) InsertBatch(topic string, rs []core.Reading) error {
	t, err := core.CanonicalTopic(topic)
	if err != nil {
		return err
	}
	id, err := c.mapper.Map(t)
	if err != nil {
		return err
	}
	c.mu.Lock()
	var ttl time.Duration
	if m, ok := c.meta[t]; ok {
		ttl = m.TTL
	}
	err = c.hierarchy.Add(t)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.backend.InsertBatch(id, rs, ttl)
}

// Query returns the readings of a sensor in [from, to]. Physical
// sensors are read from the Storage Backend with the configured scale
// applied; virtual sensors are evaluated from their expression (with
// write-back caching).
func (c *Connection) Query(topic string, from, to int64) ([]core.Reading, error) {
	return c.query(topic, from, to, nil)
}

// sliceStream adapts a materialized result to the stream API for
// virtual sensors whose expressions cannot be evaluated incrementally.
type sliceStream struct {
	rs   []core.Reading
	done bool
}

func (s *sliceStream) Next() ([]core.Reading, error) {
	if s.done || len(s.rs) == 0 {
		return nil, io.EOF
	}
	s.done = true
	return s.rs, nil
}

func (s *sliceStream) Close() error { s.done = true; return nil }

// scaledStream applies a sensor's configured scale chunk by chunk.
type scaledStream struct {
	st    store.ReadingStream
	scale float64
	buf   []core.Reading
}

func (s *scaledStream) Next() ([]core.Reading, error) {
	rs, err := s.st.Next()
	if err != nil {
		return nil, err
	}
	if cap(s.buf) < len(rs) {
		s.buf = make([]core.Reading, len(rs))
	}
	s.buf = s.buf[:len(rs)]
	for i, r := range rs {
		s.buf[i] = core.Reading{Timestamp: r.Timestamp, Value: r.Value * s.scale}
	}
	return s.buf, nil
}

func (s *scaledStream) Close() error { return s.st.Close() }

// QueryStream is the streaming form of Query: readings arrive in
// bounded chunks pulled from the backend (over RPC, chunk frames), so
// exporting a long retention holds O(chunk) memory end to end.
// Virtual sensors whose expressions reference only physical sensors
// are evaluated incrementally with one reading of lookahead per
// operand (vsensor.EvaluateStream); expressions over other virtual
// sensors fall back to materialized evaluation and are streamed from
// the result. The stream must be closed.
func (c *Connection) QueryStream(topic string, from, to int64) (store.ReadingStream, error) {
	t, err := core.CanonicalTopic(topic)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	m, hasMeta := c.meta[t]
	c.mu.RUnlock()
	if hasMeta && m.Virtual {
		if st, handled, err := c.queryVirtualStream(t, m, from, to); handled {
			return st, err
		}
		rs, err := c.Query(topic, from, to)
		if err != nil {
			return nil, err
		}
		return &sliceStream{rs: rs}, nil
	}
	id, ok := c.mapper.Lookup(t)
	if !ok {
		return nil, fmt.Errorf("libdcdb: unknown sensor %q", topic)
	}
	st, err := c.backend.QueryStream(id, from, to)
	if err != nil {
		return nil, err
	}
	if hasMeta && m.EffectiveScale() != 1 {
		return &scaledStream{st: st, scale: m.EffectiveScale()}, nil
	}
	return st, nil
}

// query implements Query with an evaluation stack for cycle detection
// among virtual sensors (expressions may reference virtual sensors,
// paper §3.2, so reference loops must be caught).
func (c *Connection) query(topic string, from, to int64, stack map[string]bool) ([]core.Reading, error) {
	t, err := core.CanonicalTopic(topic)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	m, hasMeta := c.meta[t]
	c.mu.RUnlock()
	if hasMeta && m.Virtual {
		if stack[t] {
			return nil, fmt.Errorf("libdcdb: virtual sensor cycle through %q", t)
		}
		return c.queryVirtual(t, m, from, to, stack)
	}
	id, ok := c.mapper.Lookup(t)
	if !ok {
		return nil, fmt.Errorf("libdcdb: unknown sensor %q", topic)
	}
	rs, err := c.backend.Query(id, from, to)
	if err != nil {
		return nil, err
	}
	if hasMeta && m.EffectiveScale() != 1 {
		scaled := make([]core.Reading, len(rs))
		for i, r := range rs {
			scaled[i] = core.Reading{Timestamp: r.Timestamp, Value: r.Value * m.EffectiveScale()}
		}
		return scaled, nil
	}
	return rs, nil
}

func (c *Connection) queryVirtual(topic string, m core.Metadata, from, to int64, stack map[string]bool) ([]core.Reading, error) {
	id, err := c.mapper.Map(topic)
	if err != nil {
		return nil, err
	}
	// Serve from the write-back cache when the period is covered.
	c.mu.RLock()
	covered := intervalCovered(c.vcache[topic], from, to)
	c.mu.RUnlock()
	if covered {
		return c.backend.Query(id, from, to)
	}
	expr, err := vsensor.Parse(m.Expression)
	if err != nil {
		return nil, err
	}
	if stack == nil {
		stack = make(map[string]bool)
	}
	stack[topic] = true
	defer delete(stack, topic)
	rs, err := vsensor.Evaluate(expr, &connSource{c: c, stack: stack}, from, to)
	if err != nil {
		return nil, err
	}
	// Write results back so they can be re-used (paper §3.2).
	if err := c.backend.InsertBatch(id, rs, m.TTL); err != nil {
		return nil, fmt.Errorf("libdcdb: caching virtual sensor results: %w", err)
	}
	c.mu.Lock()
	c.vcache[topic] = mergeIntervals(append(c.vcache[topic], interval{from, to}))
	c.mu.Unlock()
	return rs, nil
}

// queryVirtualStream is the streaming evaluation path for a virtual
// sensor: operands stream from the backend and the expression is
// evaluated with one reading of lookahead per operand, bit-identical
// to the materialized evaluation. handled is false when the expression
// is not streamable — it references other virtual sensors, whose
// evaluation needs the write-back and cycle-detection machinery of the
// materialized path. Streamed results are not written back (there is
// no materialized result to cache); materialized Query still caches,
// and a period it already cached streams straight from the backend.
func (c *Connection) queryVirtualStream(topic string, m core.Metadata, from, to int64) (store.ReadingStream, bool, error) {
	c.mu.RLock()
	covered := intervalCovered(c.vcache[topic], from, to)
	c.mu.RUnlock()
	if covered {
		if id, ok := c.mapper.Lookup(topic); ok {
			st, err := c.backend.QueryStream(id, from, to)
			return st, true, err
		}
	}
	expr, err := vsensor.Parse(m.Expression)
	if err != nil {
		return nil, true, err
	}
	if !c.streamable(expr, topic) {
		return nil, false, nil
	}
	st, err := vsensor.EvaluateStream(expr, &connStreamSource{c: c, exclude: topic}, from, to)
	if err != nil {
		return nil, true, err
	}
	return st, true, nil
}

// streamable reports whether every sensor the expression references —
// wildcard matches included, the expression's own topic excluded —
// is physical.
func (c *Connection) streamable(e *vsensor.Expr, root string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ref := range e.Refs() {
		if len(ref) > 2 && ref[len(ref)-2:] == "/*" {
			for _, t := range c.hierarchy.Sensors(ref[:len(ref)-2]) {
				if t == root {
					continue
				}
				if m, ok := c.meta[t]; ok && m.Virtual {
					return false
				}
			}
			continue
		}
		if m, ok := c.meta[ref]; ok && m.Virtual {
			return false
		}
	}
	return true
}

// connStreamSource adapts Connection to vsensor.StreamSource for the
// streaming evaluation of one virtual sensor, excluding that sensor
// from wildcard expansion (the same self-reference guard connSource
// applies through the evaluation stack).
type connStreamSource struct {
	c       *Connection
	exclude string
}

func (s *connStreamSource) Stream(topic string, from, to int64) (vsensor.Stream, string, error) {
	st, err := s.c.QueryStream(topic, from, to)
	if err != nil {
		return nil, "", err
	}
	unit := ""
	if m, ok := s.c.Metadata(topic); ok {
		unit = m.Unit
	}
	return st, unit, nil
}

func (s *connStreamSource) Expand(prefix string) ([]string, error) {
	all := s.c.ListSensors(prefix)
	out := make([]string, 0, len(all))
	for _, t := range all {
		if t != s.exclude {
			out = append(out, t)
		}
	}
	return out, nil
}

// InvalidateVirtual drops the cached periods of a virtual sensor,
// forcing re-evaluation (used after its inputs are backfilled).
func (c *Connection) InvalidateVirtual(topic string) {
	t, err := core.CanonicalTopic(topic)
	if err != nil {
		return
	}
	c.mu.Lock()
	delete(c.vcache, t)
	c.mu.Unlock()
}

// connSource adapts Connection to the vsensor.Source interface while
// carrying the virtual-sensor evaluation stack.
type connSource struct {
	c     *Connection
	stack map[string]bool
}

func (s *connSource) Readings(topic string, from, to int64) ([]core.Reading, string, error) {
	rs, err := s.c.query(topic, from, to, s.stack)
	if err != nil {
		return nil, "", err
	}
	unit := ""
	if m, ok := s.c.Metadata(topic); ok {
		unit = m.Unit
	}
	return rs, unit, nil
}

// Expand lists sensors below the prefix, excluding any sensor currently
// being evaluated so that a wildcard aggregate placed inside its own
// subtree (e.g. /sys/totalpower summing /sys/*) does not feed on itself.
func (s *connSource) Expand(prefix string) ([]string, error) {
	all := s.c.ListSensors(prefix)
	out := all[:0]
	for _, t := range all {
		if !s.stack[t] {
			out = append(out, t)
		}
	}
	return out, nil
}

// DeleteBefore removes a sensor's readings older than the cutoff.
func (c *Connection) DeleteBefore(topic string, cutoff int64) error {
	t, err := core.CanonicalTopic(topic)
	if err != nil {
		return err
	}
	id, ok := c.mapper.Lookup(t)
	if !ok {
		return fmt.Errorf("libdcdb: unknown sensor %q", topic)
	}
	return c.backend.DeleteBefore(id, cutoff)
}

func intervalCovered(ivs []interval, from, to int64) bool {
	for _, iv := range ivs {
		if iv.from <= from && iv.to >= to {
			return true
		}
	}
	return false
}

func mergeIntervals(ivs []interval) []interval {
	if len(ivs) < 2 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.from <= last.to {
			if iv.to > last.to {
				last.to = iv.to
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}
