package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/fold"
	"dcdb/internal/metrics"
	"dcdb/internal/store"
)

// maxInFlight bounds the requests one connection may have executing at
// once; excess pipelined requests queue in the read loop. It trades a
// little tail latency for not letting one client fork an unbounded
// goroutine herd.
const maxInFlight = 64

// writeStallTimeout bounds one response write; a peer that stopped
// reading loses its connection instead of pinning the writer. A
// variable so tests can stall a peer without waiting half a minute.
var writeStallTimeout = 30 * time.Second

// Server serves one storage backend over the wire protocol. One
// process typically wraps one durable *store.Node (cmd/dcdbnode), but
// any NodeBackend works — including a whole Cluster, which would make
// the server a coordinator proxy.
type Server struct {
	backend store.NodeBackend
	frames  store.FrameWriter // how opWrite reaches backend
	quiet   bool
	now     func() time.Time
	gossip  func([]byte) ([]byte, error)

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	requests atomic.Int64
	met      *serverMetrics
}

// NewServer wraps backend. quiet suppresses per-connection logging
// (tests).
func NewServer(backend store.NodeBackend, quiet bool) *Server {
	s := &Server{backend: backend, frames: store.FramesOf(backend), quiet: quiet, now: time.Now, conns: make(map[net.Conn]struct{})}
	s.met = newServerMetrics(s)
	return s
}

// SetNow replaces the server's wall clock — a seam for injecting clock
// skew in tests. Request deadlines arrive as relative budgets and are
// anchored to this clock at arrival, so a skewed server stays correct;
// the hook exists to prove exactly that. Call before Listen.
func (s *Server) SetNow(now func() time.Time) { s.now = now }

// ErrGossipUnavailable is what a gossip handler returns while the
// membership agent is still starting up (the listener is bound before
// the agent learns its advertised identity). Peers treat it like any
// failed exchange and retry next round.
var ErrGossipUnavailable = errors.New("rpc: membership agent not ready")

// SetGossip registers the membership exchange handler served under
// opGossip: it receives the peer's encoded state and returns this
// node's. The rpc layer stays ignorant of the encoding — membership
// rides the same framed, CRC-checked, pipelined connections as data.
// Call before Listen; a node without a handler rejects gossip frames.
func (s *Server) SetGossip(h func(peerState []byte) ([]byte, error)) { s.gossip = h }

// Listen binds addr and starts accepting connections.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Requests returns the number of requests served so far.
func (s *Server) Requests() int64 { return s.requests.Load() }

// Close stops accepting, closes every live connection and waits for
// the handlers to drain. The backend is not closed — the caller owns
// its lifecycle.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serverConn is the per-connection state shared between the read loop,
// the request goroutines and the stream producers.
type serverConn struct {
	c net.Conn

	// wmu guards bw: every reply — unary, stream chunk, stream end — is
	// written whole under it. waiting counts replies queued for wmu; a
	// reply flushes only when none is, so a burst of replies coalesces
	// into one syscall.
	wmu     sync.Mutex
	bw      *bufio.Writer
	waiting atomic.Int32
	dead    atomic.Bool // a reply write failed; producers stop early

	mu      sync.Mutex
	streams map[uint64]chan struct{} // reqID -> cancel channel
}

// reply writes one response frame and returns once it is handed to the
// kernel (or dropped), so a stream producer never has more than the
// chunk it is building outstanding. A failed write kills the
// connection: later replies are dropped, every stream is cancelled and
// the socket is closed, which ends the read loop too.
func (sc *serverConn) reply(payload []byte) {
	sc.waiting.Add(1)
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.waiting.Add(-1)
	if sc.dead.Load() {
		return
	}
	// A peer that stopped reading must not pin the writer in a blocked
	// Write forever; the deadline turns it into a dead connection.
	sc.c.SetWriteDeadline(time.Now().Add(writeStallTimeout))
	err := writeFrame(sc.bw, payload)
	if err == nil && sc.waiting.Load() == 0 {
		err = sc.bw.Flush()
	}
	if err != nil {
		sc.dead.Store(true)
		sc.cancelAll()
		sc.c.Close()
	}
}

// cancelStream stops the producer of one stream (client abandon).
func (sc *serverConn) cancelStream(id uint64) {
	sc.mu.Lock()
	if ch, ok := sc.streams[id]; ok {
		delete(sc.streams, id)
		close(ch)
	}
	sc.mu.Unlock()
}

// registerStream creates the cancel channel of a new stream.
func (sc *serverConn) registerStream(id uint64) chan struct{} {
	ch := make(chan struct{})
	sc.mu.Lock()
	if sc.streams == nil {
		sc.streams = make(map[uint64]chan struct{})
	}
	// A duplicate id would orphan the previous channel; ids come from
	// the client's counter, so just replace.
	if old, ok := sc.streams[id]; ok {
		close(old)
	}
	sc.streams[id] = ch
	sc.mu.Unlock()
	return ch
}

// finishStream removes a completed stream's cancel channel.
func (sc *serverConn) finishStream(id uint64) {
	sc.mu.Lock()
	delete(sc.streams, id)
	sc.mu.Unlock()
}

// cancelAll fires every stream's cancel channel (connection teardown),
// so producer goroutines stop promptly instead of streaming a long
// retention into a drain loop.
func (sc *serverConn) cancelAll() {
	sc.mu.Lock()
	for id, ch := range sc.streams {
		delete(sc.streams, id)
		close(ch)
	}
	sc.mu.Unlock()
}

// serveConn pumps one connection. The read loop answers a write frame
// itself, decode to reply: the coordinator sends a member one frame at
// a time and waits for its answer, so a goroutine per frame would add
// two hand-offs and no parallelism, and writes never queue behind the
// in-flight cap. Every other request runs in its own goroutine, bounded
// by maxInFlight — the server side of request pipelining; a stream
// holds its goroutine for the stream's lifetime, writing one chunk at a
// time. All replies go through serverConn.reply.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()

	sc := &serverConn{c: c, bw: bufio.NewWriter(c)}
	sem := make(chan struct{}, maxInFlight)
	var handlerWG sync.WaitGroup
	defer handlerWG.Wait()
	// Fire cancels before joining the handlers: an in-flight stream
	// must notice teardown now, not after it finishes on its own.
	defer sc.cancelAll()

	br := bufio.NewReader(c)
	for {
		payload, err := readFrame(br)
		if err != nil {
			if !s.quiet && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) &&
				!errors.Is(err, io.ErrUnexpectedEOF) {
				log.Printf("rpc: closing %s: %v", c.RemoteAddr(), err)
			}
			return
		}
		if len(payload) < reqHeaderLen {
			if !s.quiet {
				log.Printf("rpc: closing %s: short request header", c.RemoteAddr())
			}
			return
		}
		s.requests.Add(1)
		arrived := s.now()
		switch payload[8] {
		case opCancelStream:
			// Cancels must not queue behind the in-flight cap: the
			// whole point is releasing a slot.
			cur := &cursor{b: payload, off: reqHeaderLen}
			target := cur.u64()
			if cur.done() == nil {
				sc.cancelStream(target)
			}
			continue
		case opWrite:
			s.serve(sc, payload, arrived)
			continue
		}
		sem <- struct{}{}
		handlerWG.Add(1)
		go func() {
			defer handlerWG.Done()
			defer func() { <-sem }()
			s.serve(sc, payload, arrived)
		}()
	}
}

// serve executes one request and writes its reply, or a stream's
// frames.
func (s *Server) serve(sc *serverConn, payload []byte, arrived time.Time) {
	op := payload[8]
	start := time.Now()
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	if op == opQueryStream || op == opQueryPrefixStream || op == opQueryVersionedStream {
		s.handleStream(sc, payload, arrived)
		s.met.observeHandle(op, start)
		return
	}
	resp := s.handle(payload, arrived)
	s.met.observeHandle(op, start)
	sc.reply(resp)
}

// handleStream executes one streaming request: chunks are produced
// pull-wise from the backend stream and each is written before the
// next is built. The stream ends with a statusStreamEnd frame, or a
// statusErr frame on a mid-stream backend failure; a client cancel (or
// connection death) stops production at the next chunk boundary.
func (s *Server) handleStream(sc *serverConn, payload []byte, arrived time.Time) {
	cur := &cursor{b: payload}
	id := cur.u64()
	op := cur.u8()
	timeout := cur.i64()

	fail := func(err error) {
		resp := make([]byte, 0, respHeaderLen+len(err.Error()))
		resp = appendU64(resp, id)
		resp = append(resp, statusErr)
		sc.reply(append(resp, err.Error()...))
	}
	if timeout != 0 && s.now().Sub(arrived) > time.Duration(timeout) {
		fail(fmt.Errorf("rpc: deadline exceeded before execution"))
		return
	}

	cancel := sc.registerStream(id)
	defer sc.finishStream(id)

	canceled := func() bool {
		if sc.dead.Load() {
			return true
		}
		select {
		case <-cancel:
			return true
		default:
			return false
		}
	}

	seq := uint32(0)
	emit := func(body func([]byte) []byte) bool {
		chunk := make([]byte, 0, respHeaderLen+4+16*store.StreamChunkReadings/2)
		chunk = appendU64(chunk, id)
		chunk = append(chunk, statusChunk)
		chunk = appendU32(chunk, seq)
		seq++
		full := body(chunk)
		s.met.streamChunks.Inc()
		s.met.streamBytes.Add(int64(len(full)))
		sc.reply(full)
		return !canceled()
	}

	// next yields the body encoder of the stream's next chunk.
	var next func() (func([]byte) []byte, error)
	switch op {
	case opQueryStream:
		sid := cur.sid()
		from, to := cur.i64(), cur.i64()
		if err := cur.done(); err != nil {
			fail(err)
			return
		}
		st, err := s.backend.QueryStream(sid, from, to)
		if err != nil {
			fail(err)
			return
		}
		defer st.Close()
		next = func() (func([]byte) []byte, error) {
			rs, err := st.Next()
			return func(b []byte) []byte { return appendReadings(b, rs) }, err
		}
	case opQueryPrefixStream:
		sid := cur.sid()
		depth := cur.u32()
		from, to := cur.i64(), cur.i64()
		if err := cur.done(); err != nil {
			fail(err)
			return
		}
		st, err := s.backend.QueryPrefixStream(sid, int(depth), from, to)
		if err != nil {
			fail(err)
			return
		}
		defer st.Close()
		next = func() (func([]byte) []byte, error) {
			kid, rs, err := st.Next()
			return func(b []byte) []byte { return appendReadings(appendSID(b, kid), rs) }, err
		}
	case opQueryVersionedStream:
		sid := cur.sid()
		from, to := cur.i64(), cur.i64()
		if err := cur.done(); err != nil {
			fail(err)
			return
		}
		st, err := s.backend.QueryVersionedStream(sid, from, to)
		if err != nil {
			fail(err)
			return
		}
		defer st.Close()
		next = func() (func([]byte) []byte, error) {
			vrs, err := st.Next()
			return func(b []byte) []byte { return store.AppendEntries(b, store.SplitStamps(sid, vrs)) }, err
		}
	}
	for {
		if canceled() {
			return
		}
		body, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(err)
			return
		}
		if !emit(body) {
			return
		}
	}
	if canceled() {
		return
	}
	end := make([]byte, 0, respHeaderLen+4)
	end = appendU64(end, id)
	end = append(end, statusStreamEnd)
	end = appendU32(end, seq)
	sc.reply(end)
}

// handle executes one request payload and returns the response
// payload. arrived anchors the request's relative timeout budget to
// this host's clock.
func (s *Server) handle(payload []byte, arrived time.Time) []byte {
	cur := &cursor{b: payload}
	id := cur.u64()
	op := cur.u8()
	timeout := cur.i64()

	fail := func(err error) []byte {
		resp := make([]byte, 0, respHeaderLen+len(err.Error()))
		resp = appendU64(resp, id)
		resp = append(resp, statusErr)
		return append(resp, err.Error()...)
	}
	if timeout != 0 && s.now().Sub(arrived) > time.Duration(timeout) {
		// Deadline propagation: the caller's budget ran out while the
		// request queued behind the in-flight cap; executing the op
		// would burn the node's time for a dropped response. A
		// non-positive budget is expired by definition.
		return fail(fmt.Errorf("rpc: deadline exceeded before execution"))
	}

	resp := make([]byte, 0, respHeaderLen)
	resp = appendU64(resp, id)
	resp = append(resp, statusOK)

	switch op {
	case opPing:
		if err := cur.done(); err != nil {
			return fail(err)
		}
		if err := s.backend.Ping(); err != nil {
			return fail(err)
		}
	case opWrite:
		entries, err := store.DecodeEntries(cur.rest())
		if err == nil {
			err = cur.done()
		}
		if err != nil {
			return fail(err)
		}
		errs := s.frames.WriteFrame(entries)
		failed := 0
		for _, err := range errs {
			if err != nil {
				failed++
			}
		}
		resp = appendU32(resp, uint32(failed))
		for k, err := range errs {
			if err != nil {
				msg := err.Error()
				resp = appendU32(resp, uint32(k))
				resp = appendU32(resp, uint32(len(msg)))
				resp = append(resp, msg...)
			}
		}
	case opDeleteBefore:
		sid := cur.sid()
		cutoff := cur.i64()
		if err := cur.done(); err != nil {
			return fail(err)
		}
		if err := s.backend.DeleteBefore(sid, cutoff); err != nil {
			return fail(err)
		}
	case opFlush:
		if err := cur.done(); err != nil {
			return fail(err)
		}
		if err := s.backend.Flush(); err != nil {
			return fail(err)
		}
	case opSync:
		if err := cur.done(); err != nil {
			return fail(err)
		}
		if err := s.backend.Sync(); err != nil {
			return fail(err)
		}
	case opCompact:
		if err := cur.done(); err != nil {
			return fail(err)
		}
		s.backend.Compact()
	case opStats:
		// One request shape (a version byte) and one response shape: the
		// three counters, then the metrics snapshot.
		v := cur.u8()
		if err := cur.done(); err != nil {
			return fail(err)
		}
		if v < 1 {
			return fail(fmt.Errorf("rpc: stats request version %d", v))
		}
		ins, q, entries := s.backend.Stats()
		resp = appendI64(resp, ins)
		resp = appendI64(resp, q)
		resp = appendI64(resp, int64(entries))
		samples := s.met.reg.Gather()
		if src, ok := s.backend.(store.MetricsSource); ok {
			if bs, err := src.MetricsSnapshot(); err == nil {
				samples = metrics.MergeSamples(samples, bs)
			}
		}
		resp = append(resp, metrics.EncodeSamples(samples)...)
	case opAggregate:
		sid := cur.sid()
		spec := fold.Spec{Op: fold.Op(cur.u8())}
		spec.From = cur.i64()
		spec.To = cur.i64()
		spec.Buckets = int(cur.u32())
		if err := cur.done(); err != nil {
			return fail(err)
		}
		st, err := s.backend.Aggregate(sid, spec)
		if err != nil {
			return fail(err)
		}
		resp = fold.Append(resp, st)
	case opGossip:
		body := cur.b[cur.off:]
		if s.gossip == nil {
			return fail(fmt.Errorf("rpc: node does not serve membership gossip"))
		}
		out, err := s.gossip(body)
		if err != nil {
			return fail(err)
		}
		resp = append(resp, out...)
	case opSensorIDs:
		if err := cur.done(); err != nil {
			return fail(err)
		}
		ids := s.backend.SensorIDs()
		resp = appendU32(resp, uint32(len(ids)))
		for _, id := range ids {
			resp = appendSID(resp, id)
		}
	default:
		return fail(fmt.Errorf("rpc: unknown op %d", op))
	}
	return resp
}
