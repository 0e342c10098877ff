// Package libdcdb is the Go equivalent of DCDB's libDCDB (paper §5.1):
// the well-defined API through which all accesses to Storage Backends
// are performed, independent of the underlying database implementation.
// Command-line tools, RESTful services and the Grafana data source are
// all built on top of it.
//
// A Connection combines a store.Backend with the topic↔SID mapper, the
// sensor-metadata registry and the virtual-sensor engine. Every sensor
// is read through one stream: a physical sensor streams from the
// backend with its scale applied; a virtual sensor is evaluated lazily
// for the queried period only (vsensor.EvaluateStream), its operands
// opened through the same stream. Query drains that stream and writes a
// virtual sensor's result back to the Storage Backend so later queries
// can re-use it (paper §3.2). The analysis operations (fold.go) fold
// the stream, or push the fold down to the storage nodes.
package libdcdb

import (
	"errors"
	"fmt"
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

// PublishSensor registers (or updates) sensor metadata, making the
// sensor visible in the hierarchy. This is dcdbconfig's "publish"
// operation. It drops the periods Query has written back for the
// topic, so a virtual sensor published again is evaluated with its new
// expression.
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
	delete(c.vcache, topic)
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

// RegisterStored makes every stored sensor the topic map names visible
// in the hierarchy, as RegisterTopic would, skipping SIDs it cannot
// name: how a connection rebuilt from persisted state lists its
// sensors. The topics come from the map's dictionaries, so none is
// built, parsed or mapped again.
func (c *Connection) RegisterStored(ids []core.SensorID) {
	var parts []string
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		var ok bool
		if parts, ok = c.mapper.ReverseParts(id, parts[:0]); ok {
			c.hierarchy.AddParts(parts)
		}
	}
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

// Query returns the readings of a sensor in [from, to]. A physical
// sensor is read from the Storage Backend with its configured scale
// applied. A virtual sensor is a drain of QueryStream; a period that
// was evaluated rather than read from the cache is then written back
// under the sensor's SID, so later queries of it read the result
// (paper §3.2). Only the queried sensor is written back, not the
// virtual sensors its expression reads, and nothing is written back to
// a read-only backend.
func (c *Connection) Query(topic string, from, to int64) ([]core.Reading, error) {
	t, m, err := c.sensor(topic)
	if err != nil {
		return nil, err
	}
	if !m.Virtual {
		id, ok := c.mapper.Lookup(t)
		if !ok {
			return nil, fmt.Errorf("libdcdb: unknown sensor %q", topic)
		}
		rs, err := c.backend.Query(id, from, to)
		if err != nil || m.EffectiveScale() == 1 {
			return rs, err
		}
		scaled := make([]core.Reading, len(rs))
		for i, r := range rs {
			scaled[i] = core.Reading{Timestamp: r.Timestamp, Value: r.Value * m.EffectiveScale()}
		}
		return scaled, nil
	}
	cached := c.cached(t, from, to)
	st, err := c.queryStream(t, from, to, nil)
	if err != nil {
		return nil, err
	}
	rs, err := store.Drain(st)
	if err != nil || cached {
		return rs, err
	}
	id, err := c.mapper.Map(t)
	if err != nil {
		return nil, err
	}
	if err := c.backend.InsertBatch(id, rs, m.TTL); errors.Is(err, store.ErrNodeReadOnly) {
		return rs, nil // a read-only backend serves the evaluation uncached
	} else if err != nil {
		return nil, fmt.Errorf("libdcdb: caching virtual sensor results: %w", err)
	}
	c.mu.Lock()
	c.vcache[t] = mergeIntervals(append(c.vcache[t], interval{from, to}))
	c.mu.Unlock()
	return rs, nil
}

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
// exporting a long retention holds O(chunk) memory end to end. A
// virtual sensor streams from the backend when Query has cached the
// period and is evaluated with one reading of lookahead per operand
// otherwise (vsensor.EvaluateStream); a streamed evaluation is not
// written back. The stream must be closed.
func (c *Connection) QueryStream(topic string, from, to int64) (store.ReadingStream, error) {
	return c.queryStream(topic, from, to, nil)
}

// queryStream opens the readings of any sensor. stack holds the virtual
// sensors whose operands are being opened: expressions may reference
// virtual sensors (paper §3.2), so a reference back to one of them is a
// cycle.
func (c *Connection) queryStream(topic string, from, to int64, stack map[string]bool) (store.ReadingStream, error) {
	t, m, err := c.sensor(topic)
	if err != nil {
		return nil, err
	}
	if m.Virtual && !c.cached(t, from, to) {
		return c.evaluate(t, m, from, to, stack)
	}
	id, ok := c.mapper.Lookup(t)
	if !ok {
		return nil, fmt.Errorf("libdcdb: unknown sensor %q", topic)
	}
	st, err := c.backend.QueryStream(id, from, to)
	if err != nil || m.Virtual || m.EffectiveScale() == 1 {
		return st, err
	}
	return &scaledStream{st: st, scale: m.EffectiveScale()}, nil
}

// evaluate opens the evaluation of virtual sensor t. Its operands open
// here, each through queryStream with t on the stack, so a cycle fails
// the open.
func (c *Connection) evaluate(t string, m core.Metadata, from, to int64, stack map[string]bool) (store.ReadingStream, error) {
	if stack[t] {
		return nil, fmt.Errorf("libdcdb: virtual sensor cycle through %q", t)
	}
	expr, err := vsensor.Parse(m.Expression)
	if err != nil {
		return nil, err
	}
	if stack == nil {
		stack = make(map[string]bool)
	}
	stack[t] = true
	defer delete(stack, t)
	return vsensor.EvaluateStream(expr, &connStreamSource{c: c, stack: stack}, from, to)
}

// sensor resolves a topic to its canonical form and its metadata (the
// zero Metadata, a physical unscaled sensor, when none is published).
func (c *Connection) sensor(topic string) (string, core.Metadata, error) {
	t, err := core.CanonicalTopic(topic)
	if err != nil {
		return "", core.Metadata{}, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return t, c.meta[t], nil
}

// cached reports whether Query has written back virtual sensor t over
// all of [from, to].
func (c *Connection) cached(t string, from, to int64) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return intervalCovered(c.vcache[t], from, to)
}

// connStreamSource adapts Connection to vsensor.StreamSource while
// carrying the stack of virtual sensors being opened.
type connStreamSource struct {
	c     *Connection
	stack map[string]bool
}

func (s *connStreamSource) Stream(topic string, from, to int64) (vsensor.Stream, string, error) {
	st, err := s.c.queryStream(topic, from, to, s.stack)
	if err != nil {
		return nil, "", err
	}
	m, _ := s.c.Metadata(topic)
	return st, m.Unit, nil
}

// Expand lists sensors below the prefix, excluding every sensor on the
// stack so that a wildcard aggregate placed inside its own subtree
// (e.g. /sys/totalpower summing /sys/*) does not feed on itself.
func (s *connStreamSource) Expand(prefix string) ([]string, error) {
	all := s.c.ListSensors(prefix)
	out := all[:0]
	for _, t := range all {
		if !s.stack[t] {
			out = append(out, t)
		}
	}
	return out, nil
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
