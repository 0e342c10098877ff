package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/store"
)

// Tracing records one span per layer boundary the harness can reach
// from outside the programs: the collect agent's exported Handle, the
// store.Backend handed to the agent and to libdcdb (the cluster
// coordinator), and each store.NodeBackend the coordinator talks to
// (the RPC client of one dcdbnode). Spans of one PUBLISH or one query
// share a request id and name their parent. Nothing inside the
// programs is instrumented; that is ROADMAP item 5.

// Span names, one per seam.
const (
	spanHandle       = "collectagent.handle"
	spanClusterWrite = "cluster.insert"
	spanRPCWrite     = "rpc.insert"
	spanLibQuery     = "libdcdb.query"
	spanLibAggregate = "libdcdb.aggregate"
	spanClusterRead  = "cluster.query"
	spanClusterAgg   = "cluster.aggregate"
	spanRPCRead      = "rpc.query"
	spanRPCAgg       = "rpc.aggregate"
)

// span is one recorded interval; times are nanoseconds since the
// tracer was created.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// interval is a child's [start, end) for self-time arithmetic.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children
// cover: children are clipped to the parent and overlapping children
// (parallel replica writes) are counted once.
func selfTime(start, end int64, children []interval) int64 {
	if len(children) == 0 {
		return end - start
	}
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < start {
			c.start = start
		}
		if c.end > end {
			c.end = end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, hi := int64(0), start
	for _, c := range cs {
		if c.start > hi {
			hi = c.start
		}
		if c.end > hi {
			covered += c.end - hi
			hi = c.end
		}
	}
	return end - start - covered
}

// spanStat accumulates one span name over the whole run, so the
// per-layer figures cover every request even though the ring only
// keeps the most recent spans.
type spanStat struct {
	count int64
	total int64 // Σ duration, ns
	self  int64 // Σ self time, ns
	wait  int64 // Σ (last child end − first child end), ns
}

// reqKey identifies the one request that can be in flight for a
// sensor on the write side or the read side: a sensor's messages come
// from a single serial connection and the harness runs one query
// goroutine, so (sensor, side) is unique among concurrent requests —
// which is how a decorator finds its parent without a context
// argument in store.Backend.
type reqKey struct {
	id   core.SensorID
	read bool
}

// reqCtx is the live state of one request.
type reqCtx struct {
	req      uint64
	sentAt   int64      // when the load generator sent the PUBLISH (0 = unknown)
	parent   uint64     // span to attach the next level to
	children []interval // finished children of the span now open at that level
}

type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	ring   []span // preallocated; oldest overwritten
	n      uint64 // spans ever recorded
	nextID uint64
	reqs   map[reqKey]*reqCtx
	sends  map[reqKey]int64
	stats  map[string]*spanStat
	// publish → stored, over every traced PUBLISH whose send time is
	// known: the load generator and the embedded agent share a clock.
	e2e struct{ count, preHandle, stored int64 }
}

func newTracer(ringSize int) *tracer {
	return &tracer{
		epoch: time.Now(),
		ring:  make([]span, ringSize),
		reqs:  make(map[reqKey]*reqCtx),
		sends: make(map[reqKey]int64),
		stats: make(map[string]*spanStat),
	}
}

// reset forgets the accumulated figures (not the ring): called when
// the timed window opens, so that warm-up is not in them.
func (t *tracer) reset() {
	t.mu.Lock()
	t.stats = make(map[string]*spanStat)
	t.e2e.count, t.e2e.preHandle, t.e2e.stored = 0, 0, 0
	t.mu.Unlock()
}

// sent notes that the load generator is about to publish on key.
func (t *tracer) sent(key reqKey) {
	now := t.now()
	t.mu.Lock()
	t.sends[key] = now
	t.mu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a root span for a new request on key and returns the
// span id.
func (t *tracer) begin(key reqKey) (id uint64) {
	t.mu.Lock()
	t.nextID++
	id = t.nextID
	t.reqs[key] = &reqCtx{req: id, parent: id, sentAt: t.sends[key]}
	delete(t.sends, key)
	t.mu.Unlock()
	return id
}

// enter opens a child span under the request's current level and makes
// it the level further children attach to. It returns the new span's
// id, its parent, the request id and the parent's collected children
// (to be restored by leave).
func (t *tracer) enter(key reqKey) (id, parent, req uint64, saved []interval) {
	t.mu.Lock()
	t.nextID++
	id = t.nextID
	if c := t.reqs[key]; c != nil {
		parent, req, saved = c.parent, c.req, c.children
		c.parent, c.children = id, nil
	}
	t.mu.Unlock()
	return
}

// leave closes a span opened by enter: it records the span, charges it
// as a child of its parent and makes the parent current again.
func (t *tracer) leave(key reqKey, name string, id, parent, req uint64, saved []interval, start, end int64) {
	t.mu.Lock()
	var children []interval
	if c := t.reqs[key]; c != nil && c.req == req {
		children = c.children
		c.parent, c.children = parent, append(saved, interval{start, end})
	}
	t.recordLocked(span{Name: name, Req: req, ID: id, Parent: parent, Start: start, End: end}, children)
	t.mu.Unlock()
}

// leaf records a span with no children under the request's current
// level. Several leaves of one request may run concurrently (the
// replica fan-out).
func (t *tracer) leaf(key reqKey, name string, start, end int64) {
	t.mu.Lock()
	t.nextID++
	sp := span{Name: name, ID: t.nextID, Start: start, End: end}
	if c := t.reqs[key]; c != nil {
		sp.Parent, sp.Req = c.parent, c.req
		c.children = append(c.children, interval{start, end})
	}
	t.recordLocked(sp, nil)
	t.mu.Unlock()
}

// end closes the root span opened by begin.
func (t *tracer) end(key reqKey, name string, id uint64, start, end int64) {
	t.mu.Lock()
	var children []interval
	if c := t.reqs[key]; c != nil && c.req == id {
		children = c.children
		delete(t.reqs, key)
		if c.sentAt > 0 {
			t.e2e.count++
			t.e2e.preHandle += start - c.sentAt
			t.e2e.stored += end - c.sentAt
		}
	}
	t.recordLocked(span{Name: name, Req: id, ID: id, Start: start, End: end}, children)
	t.mu.Unlock()
}

func (t *tracer) recordLocked(sp span, children []interval) {
	t.ring[t.n%uint64(len(t.ring))] = sp
	t.n++
	st := t.stats[sp.Name]
	if st == nil {
		st = &spanStat{}
		t.stats[sp.Name] = st
	}
	st.count++
	st.total += sp.End - sp.Start
	st.self += selfTime(sp.Start, sp.End, children)
	if len(children) > 1 {
		first, last := children[0].end, children[0].end
		for _, c := range children[1:] {
			if c.end < first {
				first = c.end
			}
			if c.end > last {
				last = c.end
			}
		}
		st.wait += last - first
	}
}

// stat returns the accumulated figures of one span name.
func (t *tracer) stat(name string) spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stats[name]; st != nil {
		return *st
	}
	return spanStat{}
}

// spans returns the ring's contents, oldest first.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	size := uint64(len(t.ring))
	if t.n <= size {
		return append([]span(nil), t.ring[:t.n]...)
	}
	out := make([]span, 0, size)
	for i := t.n; i < t.n+size; i++ {
		out = append(out, t.ring[i%size])
	}
	return out
}

// writeFile dumps the ring as JSON.
func (t *tracer) writeFile(path string, env map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(map[string]any{
		"env":            env,
		"spans_recorded": t.n,
		"spans":          t.spans(),
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// tracedBackend decorates the store.Backend seam — the cluster
// coordinator as the collect agent and libdcdb see it.
type tracedBackend struct {
	*store.Cluster
	t *tracer
}

func (b tracedBackend) InsertBatch(id core.SensorID, rs []core.Reading, ttl time.Duration) error {
	key := reqKey{id: id}
	sid, parent, req, saved := b.t.enter(key)
	start := b.t.now()
	err := b.Cluster.InsertBatch(id, rs, ttl)
	b.t.leave(key, spanClusterWrite, sid, parent, req, saved, start, b.t.now())
	return err
}

func (b tracedBackend) Query(id core.SensorID, from, to int64) ([]core.Reading, error) {
	key := reqKey{id: id, read: true}
	sid, parent, req, saved := b.t.enter(key)
	start := b.t.now()
	rs, err := b.Cluster.Query(id, from, to)
	b.t.leave(key, spanClusterRead, sid, parent, req, saved, start, b.t.now())
	return rs, err
}

func (b tracedBackend) Aggregate(id core.SensorID, spec fold.Spec) (fold.State, error) {
	key := reqKey{id: id, read: true}
	sid, parent, req, saved := b.t.enter(key)
	start := b.t.now()
	st, err := b.Cluster.Aggregate(id, spec)
	b.t.leave(key, spanClusterAgg, sid, parent, req, saved, start, b.t.now())
	return st, err
}

// tracedNode decorates the store.NodeBackend seam — one dcdbnode as the
// coordinator sees it through its RPC client.
type tracedNode struct {
	store.NodeBackend
	t *tracer
}

func (n tracedNode) InsertVersioned(id core.SensorID, vrs []store.VersionedReading) error {
	start := n.t.now()
	err := n.NodeBackend.InsertVersioned(id, vrs)
	n.t.leaf(reqKey{id: id}, spanRPCWrite, start, n.t.now())
	return err
}

func (n tracedNode) Query(id core.SensorID, from, to int64) ([]core.Reading, error) {
	start := n.t.now()
	rs, err := n.NodeBackend.Query(id, from, to)
	n.t.leaf(reqKey{id: id, read: true}, spanRPCRead, start, n.t.now())
	return rs, err
}

func (n tracedNode) Aggregate(id core.SensorID, spec fold.Spec) (fold.State, error) {
	start := n.t.now()
	st, err := n.NodeBackend.Aggregate(id, spec)
	n.t.leaf(reqKey{id: id, read: true}, spanRPCAgg, start, n.t.now())
	return st, err
}
