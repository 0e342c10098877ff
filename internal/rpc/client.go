package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/backoff"
	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/metrics"
	"dcdb/internal/store"
	"dcdb/internal/timers"
)

// ClientOptions tune a Client. The zero value selects the defaults.
type ClientOptions struct {
	// PoolSize is the number of TCP connections kept to the node; calls
	// round-robin across them so one slow response never
	// head-of-line-blocks everything. A stream is a sequence of calls
	// on one of them, each answered by one chunk, so a stream its
	// consumer stops reading holds back nothing else. Default 2.
	PoolSize int
	// DialTimeout bounds connection establishment. Default 2s.
	DialTimeout time.Duration
	// CallTimeout bounds one request round trip — for a stream, the
	// wait for each chunk — and propagates to the server as the request
	// deadline, so a node never executes an op whose caller has already
	// given up. Default 10s.
	CallTimeout time.Duration
	// ReconnectBackoff is the initial delay before re-dialing a failed
	// connection; it grows exponentially (jittered) per consecutive
	// failure up to MaxBackoff, and calls during the window fail fast
	// instead of stampeding the node. Defaults 100ms / 3s.
	ReconnectBackoff time.Duration
	MaxBackoff       time.Duration
	// Dial establishes the transport connection. Default: TCP via
	// net.DialTimeout. Fault injection interposes here (faults.Dial).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Now is the client's wall clock, a seam for injecting clock skew.
	// Only bookkeeping reads it — every timeout that crosses the wire
	// travels as a relative budget, which is what keeps the protocol
	// skew-immune. Default time.Now.
	Now func() time.Time
}

func (o *ClientOptions) defaults() {
	if o.PoolSize <= 0 {
		o.PoolSize = 2
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 3 * time.Second
	}
	if o.Dial == nil {
		o.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// ErrUnavailable is returned while a node's connections are down and
// inside their reconnect backoff window.
var ErrUnavailable = fmt.Errorf("rpc: node unavailable")

// Client is the remote implementation of store.NodeBackend: one
// storage node reached over TCP through a small connection pool with
// request pipelining, automatic reconnect and per-call deadlines. It
// is safe for concurrent use; concurrent calls on one connection are
// pipelined, not serialised.
type Client struct {
	addr string
	o    ClientOptions
	pol  backoff.Policy

	slots []*clientConn
	rr    atomic.Uint32

	// met holds every client counter, including the cumulative frame
	// bytes (payload + header) moved over this client's connections:
	// the aggregation-pushdown CI smoke asserts a cold-range summary
	// answers in O(sensors) response bytes rather than O(readings).
	met *clientMetrics

	closed atomic.Bool
}

// NewClient creates a client for the node at addr. No connection is
// made until the first call.
func NewClient(addr string, o ClientOptions) *Client {
	o.defaults()
	c := &Client{
		addr: addr, o: o,
		pol:   backoff.Policy{Initial: o.ReconnectBackoff, Max: o.MaxBackoff, Multiplier: 2, Jitter: 0.2},
		slots: make([]*clientConn, o.PoolSize),
		met:   newClientMetrics(),
	}
	for i := range c.slots {
		c.slots[i] = &clientConn{cl: c, pending: make(map[uint64]chan respMsg)}
	}
	return c
}

// Addr returns the node address the client targets.
func (c *Client) Addr() string { return c.addr }

// NetBytes reports the cumulative bytes received and sent across the
// client's connections (frame headers included). Monotonic; safe for
// concurrent use. The same totals export through Metrics as
// dcdb_rpc_client_net_{read,written}_bytes_total.
func (c *Client) NetBytes() (read, written int64) {
	return c.met.netRead.Load(), c.met.netWritten.Load()
}

// Close tears down every pooled connection; in-flight calls fail.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, s := range c.slots {
		s.mu.Lock()
		nc := s.nc
		s.mu.Unlock()
		if nc != nil {
			s.teardown(nc, fmt.Errorf("rpc: client closed"))
		}
	}
	return nil
}

// respMsg is one matched response (or the connection's demise).
type respMsg struct {
	status byte
	body   []byte
	err    error
}

// clientConn is one pooled connection. mu guards dial state and the
// write half; the read loop runs unlocked and matches responses to
// waiting calls by request id.
type clientConn struct {
	cl *Client

	mu      sync.Mutex
	nc      net.Conn
	bw      *bufio.Writer
	fails   int       // consecutive failures, drives the backoff policy
	retryAt time.Time // next dial allowed at (fail-fast before then)

	pmu     sync.Mutex
	pending map[uint64]chan respMsg

	nextID atomic.Uint64

	idle timers.Idle // the timeout timer its calls reuse
}

// ensure returns a live connection, dialing if necessary. Calls inside
// the backoff window after a failure return ErrUnavailable immediately
// — a down node must cost its callers microseconds, not dial timeouts.
func (s *clientConn) ensure() (net.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nc != nil {
		return s.nc, nil
	}
	if s.fails > 0 {
		if wait := s.retryAt.Sub(s.cl.o.Now()); wait > 0 {
			return nil, fmt.Errorf("%w (%s, retry in %s)", ErrUnavailable, s.cl.addr,
				wait.Round(time.Millisecond))
		}
	}
	nc, err := s.cl.o.Dial(s.cl.addr, s.cl.o.DialTimeout)
	if err != nil {
		s.fails++
		s.retryAt = s.cl.o.Now().Add(s.cl.pol.Delay(s.fails))
		s.cl.met.dialFailures.Inc()
		return nil, fmt.Errorf("rpc: dialing %s: %w", s.cl.addr, err)
	}
	s.cl.met.connects.Inc()
	s.nc = nc
	s.bw = bufio.NewWriter(nc)
	s.fails = 0
	go s.readLoop(nc)
	return nc, nil
}

// teardown closes nc — only if it is still the slot's live connection,
// so a caller holding a stale handle cannot kill a healthy re-dial —
// and fails every waiter registered against it.
func (s *clientConn) teardown(nc net.Conn, err error) {
	s.mu.Lock()
	if s.nc != nc {
		// A newer generation took over (the read loop or another
		// caller already tore nc down); its pending calls are not
		// ours to fail.
		s.mu.Unlock()
		nc.Close() // idempotent on the already-closed old conn
		return
	}
	s.nc.Close()
	s.nc = nil
	s.bw = nil
	s.fails++
	s.retryAt = s.cl.o.Now().Add(s.cl.pol.Delay(s.fails))
	s.mu.Unlock()
	s.pmu.Lock()
	for id, ch := range s.pending {
		delete(s.pending, id)
		ch <- respMsg{err: err}
	}
	s.pmu.Unlock()
}

// readLoop matches response frames to waiting calls until the
// connection dies. nc identifies the generation: teardown ignores the
// call when a successor has already replaced nc. readFrame enforces
// the frame bound on this side too — an oversized or corrupt length
// prefix from a misbehaving server poisons the connection instead of
// driving a huge allocation.
func (s *clientConn) readLoop(nc net.Conn) {
	br := bufio.NewReader(nc)
	for {
		payload, err := readFrame(br)
		if err == nil {
			s.cl.met.netRead.Add(int64(len(payload)) + 8)
		}
		if err != nil {
			if errors.Is(err, errFrameTooLarge) {
				err = fmt.Errorf("rpc: %s sent an oversized frame (corrupt or hostile length prefix); poisoning connection: %w", s.cl.addr, err)
			}
			s.teardown(nc, fmt.Errorf("rpc: connection to %s lost: %w", s.cl.addr, err))
			return
		}
		if len(payload) < respHeaderLen {
			s.teardown(nc, fmt.Errorf("rpc: short response from %s", s.cl.addr))
			return
		}
		id := binary.BigEndian.Uint64(payload)
		s.pmu.Lock()
		ch, ok := s.pending[id]
		delete(s.pending, id)
		s.pmu.Unlock()
		// Unmatched ids are responses whose caller timed out or whose
		// stream was closed; drop.
		if ok {
			ch <- respMsg{status: payload[8], body: payload[respHeaderLen:]}
		}
	}
}

// write sends one request frame on nc, if nc is still the slot's live
// connection. A failed write tears the connection down.
func (s *clientConn) write(nc net.Conn, id uint64, op byte, body []byte) error {
	payload := make([]byte, 0, reqHeaderLen+len(body))
	payload = appendU64(payload, id)
	payload = append(payload, op)
	// The relative budget (not the wall-clock deadline) travels to the
	// server, so coordinator/storage clock skew cannot starve a node.
	payload = appendI64(payload, int64(s.cl.o.CallTimeout))
	payload = append(payload, body...)

	s.mu.Lock()
	if s.nc != nc {
		s.mu.Unlock()
		return fmt.Errorf("rpc: connection to %s lost", s.cl.addr)
	}
	nc.SetWriteDeadline(time.Now().Add(s.cl.o.CallTimeout))
	err := writeFrame(s.bw, payload)
	if err == nil {
		err = s.bw.Flush()
	}
	s.mu.Unlock()
	if err != nil {
		s.teardown(nc, fmt.Errorf("rpc: writing to %s: %w", s.cl.addr, err))
		return err
	}
	s.cl.met.netWritten.Add(int64(len(payload)) + 8)
	return nil
}

// send starts one pipelined request on nc and returns its id and the
// channel its response — or its failure — arrives on.
func (s *clientConn) send(nc net.Conn, op byte, body []byte) (uint64, chan respMsg) {
	id := s.nextID.Add(1)
	ch := make(chan respMsg, 1)
	s.pmu.Lock()
	s.pending[id] = ch
	s.pmu.Unlock()
	// A failed write's teardown failed ch already, unless nc was no
	// longer live.
	if err := s.write(nc, id, op, body); err != nil && s.drop(id) {
		ch <- respMsg{err: err}
	}
	return id, ch
}

// drop forgets request id's waiter and reports whether it was still
// waiting.
func (s *clientConn) drop(id uint64) bool {
	s.pmu.Lock()
	_, ok := s.pending[id]
	delete(s.pending, id)
	s.pmu.Unlock()
	return ok
}

// wait returns the body of request id's response, or gives up on it at
// deadline.
func (s *clientConn) wait(id uint64, ch chan respMsg, deadline time.Time) ([]byte, error) {
	timer := s.idle.Get(time.Until(deadline))
	defer s.idle.Put(timer)
	select {
	case resp := <-ch:
		if resp.err != nil {
			return nil, resp.err
		}
		if resp.status != statusOK {
			return nil, fmt.Errorf("rpc: %s: %s", s.cl.addr, string(resp.body))
		}
		return resp.body, nil
	case <-timer.C:
		s.drop(id)
		return nil, fmt.Errorf("rpc: call to %s timed out after %s", s.cl.addr, s.cl.o.CallTimeout)
	}
}

// call performs one pipelined request and returns the response body.
func (s *clientConn) call(op byte, body []byte) ([]byte, error) {
	nc, err := s.ensure()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(s.cl.o.CallTimeout)
	id, ch := s.send(nc, op, body)
	return s.wait(id, ch, deadline)
}

// onPool runs f on the pool's next connection, round-robin. A
// connection inside its reconnect backoff fails f before anything is
// sent, so f moves on to the next one: a node that answers on one
// connection is not reported down because another is waiting to
// redial. ErrUnavailable comes back only when every connection is.
func onPool[T any](c *Client, f func(*clientConn) (T, error)) (T, error) {
	n := uint32(len(c.slots))
	i := c.rr.Add(1)
	v, err := f(c.slots[i%n])
	for k := uint32(1); k < n && errors.Is(err, ErrUnavailable); k++ {
		v, err = f(c.slots[(i+k)%n])
	}
	return v, err
}

// call round-robins across the pool.
func (c *Client) call(op byte, body []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("rpc: client closed")
	}
	start := time.Now()
	c.met.inFlight.Add(1)
	resp, err := onPool(c, func(s *clientConn) ([]byte, error) { return s.call(op, body) })
	c.met.inFlight.Add(-1)
	c.met.observeCall(op, start, err)
	return resp, err
}

// --- store.NodeBackend implementation ---

// Ping implements store.NodeBackend.
func (c *Client) Ping() error {
	_, err := c.call(opPing, nil)
	return err
}

// WriteFrame implements store.FrameWriter: the entries travel as one
// opWrite call, or as several where frameMax demands — cut by
// store.CutEntries, which splits an entry no frame could hold — and the
// frame fails at its first failed call.
func (c *Client) WriteFrame(entries []store.WriteEntry) error {
	cut := store.CutEntries(entries, frameMax-reqHeaderLen)
	for piece, size := cut.Next(); len(piece) > 0; piece, size = cut.Next() {
		if _, err := c.call(opWrite, store.AppendEntries(make([]byte, 0, size), piece)); err != nil {
			return err
		}
	}
	return nil
}

// Self implements store.RemoteWriter: it is how a cluster tells this
// client from a backend that merely embeds one.
func (c *Client) Self() store.NodeBackend { return c }

// InsertBatch implements store.Backend: an unstamped (version 0) entry,
// its TTL resolved to an absolute expiry here, as Node.InsertBatch does.
func (c *Client) InsertBatch(id core.SensorID, rs []core.Reading, ttl time.Duration) error {
	if len(rs) == 0 {
		return nil
	}
	return c.WriteFrame([]store.WriteEntry{{ID: id, Expire: store.TTLToExpire(ttl), Readings: rs}})
}

// InsertVersioned implements store.NodeBackend: readings that carry
// their coordinator-assigned versions and absolute expiries across the
// wire unchanged, one entry per run of equal stamps, so anti-entropy
// repair and hint replay land with the ordering the original
// coordination decided.
func (c *Client) InsertVersioned(id core.SensorID, vrs []store.VersionedReading) error {
	return c.WriteFrame(store.SplitStamps(id, vrs))
}

// Gossip performs one membership push-pull exchange: state is this
// process's encoded member list, the reply the peer's. The payload is
// opaque to the rpc layer (see internal/membership for the encoding).
func (c *Client) Gossip(state []byte) ([]byte, error) {
	return c.call(opGossip, state)
}

// Query implements store.Backend: a drain of QueryStream.
func (c *Client) Query(id core.SensorID, from, to int64) ([]core.Reading, error) {
	st, err := c.QueryStream(id, from, to)
	if err != nil {
		return nil, err
	}
	return store.Drain(st)
}

// Aggregate implements store.Backend: the fold runs on the
// storage node over its streaming read path and only the finished
// state crosses the wire, so the response is O(1) in the range length
// (O(buckets) for a downsample).
func (c *Client) Aggregate(id core.SensorID, spec fold.Spec) (fold.State, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	body := make([]byte, 0, 16+21)
	body = appendSID(body, id)
	body = fold.AppendSpec(body, spec)
	resp, err := c.call(opAggregate, body)
	if err != nil {
		return nil, err
	}
	return fold.Decode(resp)
}

// DeleteBefore implements store.Backend.
func (c *Client) DeleteBefore(id core.SensorID, cutoff int64) error {
	body := make([]byte, 0, 16+8)
	body = appendSID(body, id)
	body = appendI64(body, cutoff)
	_, err := c.call(opDeleteBefore, body)
	return err
}

// Flush implements store.NodeBackend.
func (c *Client) Flush() error {
	_, err := c.call(opFlush, nil)
	return err
}

// Sync implements store.NodeBackend.
func (c *Client) Sync() error {
	_, err := c.call(opSync, nil)
	return err
}

// Compact implements store.NodeBackend. Remote failures are logged,
// matching the fire-and-forget signature.
func (c *Client) Compact() {
	if _, err := c.call(opCompact, nil); err != nil {
		log.Printf("rpc: compacting %s: %v", c.addr, err)
	}
}

// SensorIDs implements store.NodeBackend; nil when the node is
// unreachable (the listing is advisory).
func (c *Client) SensorIDs() []core.SensorID {
	resp, err := c.call(opSensorIDs, nil)
	if err != nil {
		return nil
	}
	cur := &cursor{b: resp}
	n := cur.u32()
	if uint64(n)*16 > uint64(len(resp)) {
		return nil
	}
	ids := make([]core.SensorID, n)
	for i := range ids {
		ids[i] = cur.sid()
	}
	if cur.done() != nil {
		return nil
	}
	return ids
}

// Stats implements store.NodeBackend; zeros when the node is
// unreachable (stats are advisory).
func (c *Client) Stats() (inserts, queries int64, entries int) {
	inserts, queries, entries, _, _ = c.StatsFull()
	return inserts, queries, entries
}

// statsReqVersion is the one-byte body of a Stats request. There is one
// response shape — the three counters followed by the node's metrics
// snapshot — and a server answers any version >= 1 with everything it
// knows.
const statsReqVersion = 1

// StatsFull fetches the node's counters and its full metrics snapshot.
func (c *Client) StatsFull() (inserts, queries int64, entries int, samples []metrics.Sample, err error) {
	resp, err := c.call(opStats, []byte{statsReqVersion})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	cur := &cursor{b: resp}
	inserts = cur.i64()
	queries = cur.i64()
	entries = int(cur.i64())
	if cur.err != nil {
		return 0, 0, 0, nil, cur.err
	}
	samples, err = metrics.DecodeSamples(resp[cur.off:])
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("rpc: %s: decoding metrics snapshot: %w", c.addr, err)
	}
	return inserts, queries, entries, samples, nil
}

// MetricsSnapshot implements store.MetricsSource over the wire: the
// remote node's gathered registry (merged with its server-side RPC
// metrics), fetched through the Stats op.
func (c *Client) MetricsSnapshot() ([]metrics.Sample, error) {
	_, _, _, samples, err := c.StatsFull()
	return samples, err
}

// --- streaming reads ---

// clientStream is the client half of one stream: the open call's reply
// carries the first chunk, and every later chunk answers one
// opStreamNext call on the same connection. While the node says more
// follows, one such call is in flight ahead of the consumer, never two.
type clientStream struct {
	s  *clientConn
	nc net.Conn
	id uint64 // the open call's request id, which names the stream at the node

	// op and start feed the call metrics when the stream ends.
	op    byte
	start time.Time

	chunk  []byte       // a chunk the consumer has not taken yet
	next   chan respMsg // the opStreamNext in flight; nil once none is
	nextID uint64

	closed   bool
	finished bool // outcome recorded
}

// finish records the stream's outcome, once, where a unary call records
// its own (observeCall): nil for a stream read to its end, the error
// for one that failed. A stream the consumer closes early never gets
// here and counts as neither.
func (st *clientStream) finish(err error) error {
	st.finished = true
	st.s.cl.met.observeCall(st.op, st.start, err)
	return err
}

// fail cancels the stream and records err as its outcome.
func (st *clientStream) fail(err error) error {
	st.Close()
	return st.finish(err)
}

// take accepts one reply: the more-follows flag, then the chunk, if
// any. While more follows it asks for the next chunk at once, so that
// one is on its way while the consumer works on this one.
func (st *clientStream) take(body []byte) error {
	st.next = nil
	if len(body) > streamChunkMaxBytes {
		err := fmt.Errorf("rpc: %s sent a %d-byte stream chunk (bound %d); poisoning connection",
			st.s.cl.addr, len(body), streamChunkMaxBytes)
		st.s.teardown(st.nc, err)
		return err
	}
	if len(body) == 0 {
		return fmt.Errorf("rpc: short stream reply from %s", st.s.cl.addr)
	}
	if body[0] != 0 {
		st.nextID, st.next = st.s.send(st.nc, opStreamNext, appendU64(nil, st.id))
	}
	if len(body) > 1 {
		st.chunk = body[1:]
		st.s.cl.met.streamChunks.Inc()
		st.s.cl.met.streamBytes.Add(int64(len(body)))
	}
	return nil
}

// nextChunk returns the stream's next chunk, waiting at most the call
// timeout for it; io.EOF at the end.
func (st *clientStream) nextChunk() ([]byte, error) {
	for {
		switch {
		case st.finished:
			return nil, io.EOF
		case st.closed:
			return nil, fmt.Errorf("rpc: stream closed")
		case st.chunk != nil:
			chunk := st.chunk
			st.chunk = nil
			return chunk, nil
		case st.next == nil:
			st.finish(nil)
			return nil, io.EOF
		}
		body, err := st.s.wait(st.nextID, st.next, time.Now().Add(st.s.cl.o.CallTimeout))
		if err == nil {
			err = st.take(body)
		}
		if err != nil {
			return nil, st.fail(err)
		}
	}
}

// Close abandons the stream: a stream the node may still hold open
// gets a best-effort cancel, and a reply still on its way is dropped.
// Idempotent.
func (st *clientStream) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	if st.next != nil {
		st.s.drop(st.nextID)
		st.s.sendCancel(st.nc, st.id)
	}
	return nil
}

// sendCancel writes a best-effort opCancelStream for stream id on nc
// (if it is still the live connection). No response is expected.
func (s *clientConn) sendCancel(nc net.Conn, id uint64) {
	s.write(nc, s.nextID.Add(1), opCancelStream, appendU64(nil, id))
}

// openStream makes one open call and returns the stream it opened.
func (s *clientConn) openStream(op byte, body []byte) (*clientStream, error) {
	nc, err := s.ensure()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(s.cl.o.CallTimeout)
	id, ch := s.send(nc, op, body)
	st := &clientStream{s: s, nc: nc, id: id}
	resp, err := s.wait(id, ch, deadline)
	if err == nil {
		err = st.take(resp)
	}
	if err != nil {
		// The node may have opened a stream whose reply came too late.
		s.sendCancel(nc, id)
		return nil, err
	}
	return st, nil
}

// readingStream adapts a clientStream to store.ReadingStream.
type readingStream struct{ st *clientStream }

func (r *readingStream) Next() ([]core.Reading, error) {
	b, err := r.st.nextChunk()
	if err != nil {
		return nil, err
	}
	cur := &cursor{b: b}
	rs := cur.readings()
	if err := cur.done(); err != nil {
		return nil, r.st.fail(err)
	}
	return rs, nil
}

func (r *readingStream) Close() error { return r.st.Close() }

// keyedStream adapts a clientStream to store.KeyedReadingStream.
type keyedStream struct{ st *clientStream }

func (k *keyedStream) Next() (core.SensorID, []core.Reading, error) {
	b, err := k.st.nextChunk()
	if err != nil {
		return core.SensorID{}, nil, err
	}
	cur := &cursor{b: b}
	id := cur.sid()
	rs := cur.readings()
	if err := cur.done(); err != nil {
		return core.SensorID{}, nil, k.st.fail(err)
	}
	return id, rs, nil
}

func (k *keyedStream) Close() error { return k.st.Close() }

// versionedStream adapts a clientStream to store.VersionedStream: each
// chunk's entries, flattened back to the readings they stamp.
type versionedStream struct {
	st  *clientStream
	buf []store.VersionedReading
}

func (v *versionedStream) Next() ([]store.VersionedReading, error) {
	b, err := v.st.nextChunk()
	if err != nil {
		return nil, err
	}
	entries, err := store.DecodeEntries(b)
	if err != nil {
		return nil, v.st.fail(err)
	}
	v.buf = v.buf[:0]
	for _, e := range entries {
		for _, r := range e.Readings {
			v.buf = append(v.buf, store.VersionedReading{Timestamp: r.Timestamp, Value: r.Value, Version: e.Version, Expire: e.Expire})
		}
	}
	return v.buf, nil
}

func (v *versionedStream) Close() error { return v.st.Close() }

// openStream opens one stream on the next pooled connection. A failed
// open is a failed call; a successful one is observed when the stream
// ends (clientStream.finish).
func (c *Client) openStream(op byte, body []byte) (*clientStream, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("rpc: client closed")
	}
	start := time.Now()
	st, err := onPool(c, func(s *clientConn) (*clientStream, error) { return s.openStream(op, body) })
	if err != nil {
		c.met.observeCall(op, start, err)
		return nil, err
	}
	st.op, st.start = op, start
	return st, nil
}

// QueryStream implements store.Backend: the query result arrives one
// chunk per call; Close releases the node's cursor.
func (c *Client) QueryStream(id core.SensorID, from, to int64) (store.ReadingStream, error) {
	body := make([]byte, 0, 16+16)
	body = appendSID(body, id)
	body = appendI64(body, from)
	body = appendI64(body, to)
	st, err := c.openStream(opQueryStream, body)
	if err != nil {
		return nil, err
	}
	return &readingStream{st: st}, nil
}

// QueryPrefixStream implements store.Backend.
func (c *Client) QueryPrefixStream(prefix core.SensorID, depth int, from, to int64) (store.KeyedReadingStream, error) {
	body := make([]byte, 0, 16+4+16)
	body = appendSID(body, prefix)
	body = appendU32(body, uint32(depth))
	body = appendI64(body, from)
	body = appendI64(body, to)
	st, err := c.openStream(opQueryPrefixStream, body)
	if err != nil {
		return nil, err
	}
	return &keyedStream{st: st}, nil
}

// QueryVersionedStream implements store.NodeBackend: the stamped
// stream every replica transfer reads, chunks of entries.
func (c *Client) QueryVersionedStream(id core.SensorID, from, to int64) (store.VersionedStream, error) {
	body := make([]byte, 0, 16+16)
	body = appendSID(body, id)
	body = appendI64(body, from)
	body = appendI64(body, to)
	st, err := c.openStream(opQueryVersionedStream, body)
	if err != nil {
		return nil, err
	}
	return &versionedStream{st: st}, nil
}

var (
	_ store.NodeBackend  = (*Client)(nil)
	_ store.RemoteWriter = (*Client)(nil)
)
