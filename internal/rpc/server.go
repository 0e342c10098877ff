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

	"dcdb/internal/fold"
	"dcdb/internal/metrics"
	"dcdb/internal/store"
)

// maxInFlight bounds the requests one connection may have executing at
// once; excess pipelined requests queue in the read loop. It trades a
// little tail latency for not letting one client fork an unbounded
// goroutine herd. It bounds the streams one connection may hold open
// too: an open beyond it is refused.
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

// serverConn is the per-connection state shared between the read loop
// and the request goroutines.
type serverConn struct {
	c net.Conn

	// wmu guards bw: every reply is written whole under it. waiting
	// counts replies queued for wmu; a reply flushes only when none is,
	// so a burst of replies coalesces into one syscall.
	wmu     sync.Mutex
	bw      *bufio.Writer
	waiting atomic.Int32
	dead    atomic.Bool // a reply write failed; later replies are dropped

	mu      sync.Mutex
	streams map[uint64]*serverStream // open streams by their open call's request id
}

// serverStream is one open stream's cursor: the backend stream and the
// reply read ahead of the next request for it.
type serverStream struct {
	pull  func() ([]byte, error) // the next chunk after a reply header's room, or io.EOF
	close func() error

	ahead    []byte // the next reply, its header still to be filled in
	aheadErr error  // why there is no next reply: io.EOF, a failure, or nil

	busy     bool // a request is reading it: a cancel only marks it
	canceled bool
}

// reply writes one response frame. A failed write kills the
// connection: later replies are dropped and the socket is closed,
// which ends the read loop too.
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
		sc.c.Close()
	}
}

// acquire marks stream id busy for one request.
func (sc *serverConn) acquire(id uint64) (*serverStream, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	ss, ok := sc.streams[id]
	switch {
	case !ok:
		return nil, fmt.Errorf("rpc: no open stream %d", id)
	case ss.busy:
		return nil, fmt.Errorf("rpc: stream %d is already answering a request", id)
	}
	ss.busy = true
	return ss, nil
}

// release ends a request's hold on stream id, closing the stream if it
// ended or was canceled meanwhile.
func (sc *serverConn) release(id uint64, ss *serverStream, ended bool) {
	sc.mu.Lock()
	ss.busy = false
	ended = ended || ss.canceled
	if ended {
		delete(sc.streams, id)
	}
	sc.mu.Unlock()
	if ended && ss.close != nil {
		ss.close()
	}
}

// cancel closes stream id for a client that abandoned it — once the
// request reading it, if any, is done with it.
func (sc *serverConn) cancel(id uint64) {
	sc.mu.Lock()
	ss, ok := sc.streams[id]
	if ok && ss.busy {
		ss.canceled, ok = true, false
	} else if ok {
		delete(sc.streams, id)
	}
	sc.mu.Unlock()
	if ok {
		ss.close()
	}
}

// serveConn pumps one connection. The read loop answers a write frame
// itself, decode to reply: the coordinator sends a member one frame at
// a time and waits for its answer, so a goroutine per frame would add
// two hand-offs and no parallelism, and writes never queue behind the
// in-flight cap. It takes a stream cancel itself too, so that freeing a
// cursor never waits for the cap. Every other request runs in its own goroutine, bounded by
// maxInFlight — the server side of request pipelining. A stream holds
// no goroutine between its requests, only its cursor. All replies go
// through serverConn.reply.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()

	sc := &serverConn{c: c, bw: bufio.NewWriter(c), streams: make(map[uint64]*serverStream)}
	sem := make(chan struct{}, maxInFlight)
	var handlerWG sync.WaitGroup
	// Teardown closes every cursor once no request reads one.
	defer func() {
		handlerWG.Wait()
		for _, ss := range sc.streams {
			ss.close()
		}
	}()

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
			cur := &cursor{b: payload, off: reqHeaderLen}
			target := cur.u64()
			if cur.done() == nil {
				sc.cancel(target)
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

// serve executes one request and writes its reply.
func (s *Server) serve(sc *serverConn, payload []byte, arrived time.Time) {
	op := payload[8]
	start := time.Now()
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	resp := s.handle(sc, payload, arrived)
	s.met.observeHandle(op, start)
	sc.reply(resp)
}

// errReply is the statusErr response to request id.
func errReply(id uint64, err error) []byte {
	resp := make([]byte, 0, respHeaderLen+len(err.Error()))
	resp = appendU64(resp, id)
	resp = append(resp, statusErr)
	return append(resp, err.Error()...)
}

// chunkBuf starts a stream reply with room for its header and n bytes
// of chunk.
func chunkBuf(n int) []byte { return make([]byte, chunkHeaderLen, chunkHeaderLen+n) }

// openStream opens the backend stream an open op asks for, in the
// connection's table under the request's id, and answers with its first
// chunk.
func (s *Server) openStream(sc *serverConn, id uint64, op byte, cur *cursor) []byte {
	ss := &serverStream{busy: true}
	sc.mu.Lock()
	_, dup := sc.streams[id]
	full := len(sc.streams) >= maxInFlight
	if !dup && !full {
		sc.streams[id] = ss
	}
	sc.mu.Unlock()
	switch {
	case dup:
		return errReply(id, fmt.Errorf("rpc: stream %d is already open", id))
	case full:
		return errReply(id, fmt.Errorf("rpc: %d streams already open on this connection (maxInFlight); open refused", maxInFlight))
	}
	ss.aheadErr = s.openBackend(ss, op, cur)
	if ss.aheadErr == nil {
		ss.ahead, ss.aheadErr = ss.pull()
	}
	return s.step(sc, id, id, ss)
}

// openBackend decodes an open op's body and sets ss up to pull from the
// backend stream it names.
func (s *Server) openBackend(ss *serverStream, op byte, cur *cursor) error {
	sid := cur.sid()
	switch op {
	case opQueryStream:
		from, to := cur.i64(), cur.i64()
		if err := cur.done(); err != nil {
			return err
		}
		st, err := s.backend.QueryStream(sid, from, to)
		if err != nil {
			return err
		}
		ss.close = st.Close
		ss.pull = func() ([]byte, error) {
			rs, err := st.Next()
			if err != nil {
				return nil, err
			}
			return appendReadings(chunkBuf(4+16*len(rs)), rs), nil
		}
	case opQueryPrefixStream:
		depth := cur.u32()
		from, to := cur.i64(), cur.i64()
		if err := cur.done(); err != nil {
			return err
		}
		st, err := s.backend.QueryPrefixStream(sid, int(depth), from, to)
		if err != nil {
			return err
		}
		ss.close = st.Close
		ss.pull = func() ([]byte, error) {
			kid, rs, err := st.Next()
			if err != nil {
				return nil, err
			}
			return appendReadings(appendSID(chunkBuf(16+4+16*len(rs)), kid), rs), nil
		}
	case opQueryVersionedStream:
		from, to := cur.i64(), cur.i64()
		if err := cur.done(); err != nil {
			return err
		}
		st, err := s.backend.QueryVersionedStream(sid, from, to)
		if err != nil {
			return err
		}
		ss.close = st.Close
		ss.pull = func() ([]byte, error) {
			vrs, err := st.Next()
			if err != nil {
				return nil, err
			}
			return store.AppendEntries(chunkBuf(32*len(vrs)), store.SplitStamps(sid, vrs)), nil
		}
	}
	return nil
}

// step answers request id from stream sid: the reply read ahead, whose
// more-follows flag it learns by reading the next one ahead. A failure
// read ahead answers the request after the one that learnt of it, and
// ends the stream.
func (s *Server) step(sc *serverConn, id, sid uint64, ss *serverStream) []byte {
	var resp []byte
	switch {
	case ss.aheadErr == io.EOF: // an empty result
		resp = make([]byte, chunkHeaderLen)
	case ss.aheadErr != nil:
		resp = errReply(id, ss.aheadErr)
	default:
		resp = ss.ahead
		ss.ahead, ss.aheadErr = ss.pull()
		if ss.aheadErr != io.EOF {
			resp[respHeaderLen] = 1
		}
		s.met.streamChunks.Inc()
		s.met.streamBytes.Add(int64(len(resp)))
	}
	binary.BigEndian.PutUint64(resp, id)
	sc.release(sid, ss, resp[8] == statusErr || ss.aheadErr == io.EOF)
	return resp
}

// handle executes one request payload and returns the response
// payload. arrived anchors the request's relative timeout budget to
// this host's clock.
func (s *Server) handle(sc *serverConn, payload []byte, arrived time.Time) []byte {
	cur := &cursor{b: payload}
	id := cur.u64()
	op := cur.u8()
	timeout := cur.i64()

	fail := func(err error) []byte { return errReply(id, err) }
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
	case opQueryStream, opQueryPrefixStream, opQueryVersionedStream:
		return s.openStream(sc, id, op, cur)
	case opStreamNext:
		sid := cur.u64()
		if err := cur.done(); err != nil {
			return fail(err)
		}
		ss, err := sc.acquire(sid)
		if err != nil {
			return fail(err)
		}
		return s.step(sc, id, sid, ss)
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
		if err := s.frames.WriteFrame(entries); err != nil {
			return fail(err)
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
		spec, rest, err := fold.DecodeSpec(cur.rest())
		if err != nil {
			return fail(err)
		}
		cur.off -= len(rest) // what follows the spec is refused by done
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
