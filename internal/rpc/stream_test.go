package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
)

// Streaming RPC tests: chunked roundtrips, cancel-on-close releasing
// the server's cursor, mid-stream errors, the client-side framing
// bounds (oversized frames and chunks must poison the connection, not
// be trusted), and streams left unread beside other calls.

func fillSensor(t *testing.T, n *store.Node, id core.SensorID, total int) {
	t.Helper()
	buf := make([]core.Reading, 1000)
	for base := 0; base < total; base += len(buf) {
		batch := buf
		if rem := total - base; rem < len(batch) {
			batch = batch[:rem]
		}
		for i := range batch {
			batch[i] = core.Reading{Timestamp: int64(base + i), Value: float64(base + i)}
		}
		if err := n.InsertBatch(id, batch, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStreamQueryRoundtrip(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{})
	id := sid(1, 2)
	total := 3*store.StreamChunkReadings + 11
	fillSensor(t, n, id, total)

	st, err := cl.QueryStream(id, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []core.Reading
	chunks := 0
	for {
		rs, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rs...)
		chunks++
	}
	if chunks < 3 {
		t.Fatalf("expected several chunks, got %d", chunks)
	}
	want, err := n.Query(id, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream %d readings, direct %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: stream %v direct %v", i, got[i], want[i])
		}
	}
	// The connection still serves unary calls after the stream.
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping after stream: %v", err)
	}
}

func TestStreamPrefixRoundtrip(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{})
	prefix := core.SensorID{Hi: 0x000a_000b_000c_000d}
	for s := uint64(0); s < 4; s++ {
		id := prefix
		id.Lo = s << 16
		fillSensor(t, n, id, store.StreamChunkReadings+100)
	}
	st, err := cl.QueryPrefixStream(prefix, 4, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := make(map[core.SensorID]int)
	var last core.SensorID
	first := true
	for {
		id, rs, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !first && id.Compare(last) < 0 {
			t.Fatalf("keyed stream went backwards: %v after %v", id, last)
		}
		last, first = id, false
		got[id] += len(rs)
	}
	want, err := storetest.DrainPrefix(n.QueryPrefixStream(prefix, 4, -1<<62, 1<<62))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream saw %d sensors, direct %d", len(got), len(want))
	}
	for id, rs := range want {
		if got[id] != len(rs) {
			t.Fatalf("sensor %v: stream %d readings, direct %d", id, got[id], len(rs))
		}
	}
}

// TestStreamCancelReleasesServer closes a stream after one chunk; the
// server must close its cursor promptly (not hold the whole retention
// open) and the connection must keep serving.
func TestStreamCancelReleasesServer(t *testing.T) {
	// One pooled connection, so the stream rides the connection the
	// baseline Ping below already established.
	n := store.NewNode(0)
	b := &countingStreams{NodeBackend: n}
	cl := NewClient(serveBackend(t, b).Addr(), ClientOptions{PoolSize: 1})
	defer cl.Close()
	id := sid(9, 9)
	fillSensor(t, n, id, 50*store.StreamChunkReadings)

	// Establish the pooled connection first so the baseline includes
	// its long-lived goroutines, and run a throwaway stream to its end.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	warm, err := cl.QueryStream(id, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := warm.Next(); err != nil {
			break
		}
	}
	warm.Close()
	before := runtime.NumGoroutine()
	st, err := cl.QueryStream(id, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The cursor closes once the request reading ahead is done with it.
	waitStreamsClosed(t, b)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before+2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server goroutines not released after cancel: %d now, %d before", runtime.NumGoroutine(), before)
		}
	}
	// Stream slots freed: more streams and unary calls work.
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping after cancel: %v", err)
	}
	st2, err := cl.QueryStream(id, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Next(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	st2.Close()
}

// countingStreams is a node that counts its value streams still open,
// and the reads and closes made of a stream already closed.
type countingStreams struct {
	store.NodeBackend
	open   atomic.Int32
	misuse atomic.Int32
}

func (b *countingStreams) QueryStream(id core.SensorID, from, to int64) (store.ReadingStream, error) {
	st, err := b.NodeBackend.QueryStream(id, from, to)
	if err != nil {
		return nil, err
	}
	b.open.Add(1)
	return &countedStream{ReadingStream: st, b: b}, nil
}

type countedStream struct {
	store.ReadingStream
	b      *countingStreams
	closed atomic.Bool
}

func (s *countedStream) Next() ([]core.Reading, error) {
	if s.closed.Load() {
		s.b.misuse.Add(1)
	}
	return s.ReadingStream.Next()
}

func (s *countedStream) Close() error {
	if s.closed.Swap(true) {
		s.b.misuse.Add(1)
	} else {
		s.b.open.Add(-1)
	}
	return s.ReadingStream.Close()
}

// waitStreamsClosed waits until b holds no open stream, and fails if
// any stream was read or closed after its close.
func waitStreamsClosed(t *testing.T, b *countingStreams) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.open.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d streams still open on the node", b.open.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m := b.misuse.Load(); m != 0 {
		t.Fatalf("the node read or closed a closed stream %d times", m)
	}
}

// gatedBackend is a node whose value streams yield two chunks and then
// block, having closed entered, until gate is closed.
type gatedBackend struct {
	store.NodeBackend
	entered, gate chan struct{}
}

func (b gatedBackend) QueryStream(core.SensorID, int64, int64) (store.ReadingStream, error) {
	return &gatedStream{b: b}, nil
}

type gatedStream struct {
	b gatedBackend
	n int
}

func (s *gatedStream) Next() ([]core.Reading, error) {
	if s.n++; s.n <= 2 {
		return []core.Reading{{Timestamp: int64(s.n)}}, nil
	}
	close(s.b.entered)
	<-s.b.gate
	return nil, io.EOF
}

func (s *gatedStream) Close() error { return nil }

// TestStreamCancelWaitsForRunningNext: a cancel that arrives while a
// chunk request is reading the stream does not close the cursor under
// that read; the cursor closes once the read is done.
func TestStreamCancelWaitsForRunningNext(t *testing.T) {
	g := gatedBackend{NodeBackend: store.NewNode(0), entered: make(chan struct{}), gate: make(chan struct{})}
	b := &countingStreams{NodeBackend: g}
	cl := NewClient(serveBackend(t, b).Addr(), ClientOptions{PoolSize: 1})
	defer cl.Close()
	// The server's Close waits for the blocked read: release it on
	// every way out of the test.
	release := sync.OnceFunc(func() { close(g.gate) })
	defer release()
	st, err := cl.QueryStream(sid(1, 1), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The open answered with chunk 1; the request for chunk 2, sent
	// ahead, is now reading chunk 3 ahead, and blocks there.
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the node never read ahead for the second chunk")
	}
	st.Close()
	// Requests on one connection are read in order: once the ping is
	// answered, the node has taken the cancel sent before it.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if n := b.open.Load(); n != 1 {
		t.Fatalf("%d streams open while a read runs on the canceled one, want 1", n)
	}
	release()
	waitStreamsClosed(t, b)
}

// TestStreamCancelRacesNext: streams closed early from several
// goroutines at once on one connection, each with its chunk request
// sent ahead still on its way; the node closes every cursor exactly
// once, never under a running read, and holds none afterwards.
func TestStreamCancelRacesNext(t *testing.T) {
	n := store.NewNode(0)
	b := &countingStreams{NodeBackend: n}
	cl := NewClient(serveBackend(t, b).Addr(), ClientOptions{PoolSize: 1})
	defer cl.Close()
	id := sid(9, 4)
	fillSensor(t, n, id, 6*store.StreamChunkReadings)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				st, err := cl.QueryStream(id, -1<<62, 1<<62)
				if err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < (g+i)%5; k++ {
					if _, err := st.Next(); err != nil {
						t.Error(err)
						break
					}
				}
				st.Close()
			}
		}(g)
	}
	wg.Wait()
	waitStreamsClosed(t, b)
}

// errAfterOneStream yields one chunk, then a mid-stream failure.
type errAfterOneStream struct{ sent bool }

func (s *errAfterOneStream) Next() ([]core.Reading, error) {
	if s.sent {
		return nil, fmt.Errorf("disk exploded mid-stream")
	}
	s.sent = true
	return []core.Reading{{Timestamp: 1, Value: 2}}, nil
}
func (s *errAfterOneStream) Close() error { return nil }

// errStreamBackend wraps a node, failing QueryStream after one chunk.
type errStreamBackend struct{ store.NodeBackend }

func (b errStreamBackend) QueryStream(core.SensorID, int64, int64) (store.ReadingStream, error) {
	return &errAfterOneStream{}, nil
}

func TestStreamMidStreamErrorFrame(t *testing.T) {
	srv := NewServer(errStreamBackend{store.NewNode(0)}, true)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(srv.Addr(), ClientOptions{})
	defer cl.Close()

	st, err := cl.QueryStream(sid(1, 1), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rs, err := st.Next()
	if err != nil || len(rs) != 1 {
		t.Fatalf("first chunk: %v %v", rs, err)
	}
	if _, err := st.Next(); err == nil || !strings.Contains(err.Error(), "disk exploded") {
		t.Fatalf("mid-stream error not delivered: %v", err)
	}
	// The error is scoped to the stream; the connection survives.
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping after stream error: %v", err)
	}
}

// rawServer accepts one connection and lets the test hand-craft
// response frames.
func rawServer(t *testing.T, respond func(t *testing.T, c net.Conn, br *bufio.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		respond(t, c, bufio.NewReader(c))
	}()
	return ln.Addr().String()
}

// readReqID parses the request id of one inbound frame.
func readReqID(t *testing.T, br *bufio.Reader) uint64 {
	t.Helper()
	payload, err := readFrame(br)
	if err != nil {
		t.Errorf("raw server read: %v", err)
		return 0
	}
	return binary.BigEndian.Uint64(payload)
}

// TestClientRejectsOversizedFrame is the client-side max-frame bound: a
// corrupt or hostile length prefix from the server must fail the call
// with a clear error and poison the connection — not drive a 4 GB
// allocation.
func TestClientRejectsOversizedFrame(t *testing.T) {
	addr := rawServer(t, func(t *testing.T, c net.Conn, br *bufio.Reader) {
		readReqID(t, br)
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[0:], uint32(frameMax+1))
		binary.BigEndian.PutUint32(hdr[4:], 0xdeadbeef)
		c.Write(hdr[:])
		time.Sleep(200 * time.Millisecond)
	})
	cl := NewClient(addr, ClientOptions{CallTimeout: time.Second})
	defer cl.Close()
	err := cl.Ping()
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if !strings.Contains(err.Error(), "oversized") && !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("error does not name the frame bound: %v", err)
	}
	// The connection is poisoned: the next call fails fast inside the
	// reconnect backoff window rather than trusting the old socket.
	if err := cl.Ping(); err == nil {
		t.Fatal("poisoned connection kept serving")
	}
}

// TestStreamChunkBoundEnforced forges an open reply larger than the
// stream bound; the client must poison the connection rather than
// buffer it.
func TestStreamChunkBoundEnforced(t *testing.T) {
	addr := rawServer(t, func(t *testing.T, c net.Conn, br *bufio.Reader) {
		id := readReqID(t, br)
		huge := make([]byte, streamChunkMaxBytes+1024)
		binary.BigEndian.PutUint64(huge[0:], id)
		huge[8] = statusOK
		// no more follows, then a garbage readings payload
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[0:], uint32(len(huge)))
		binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(huge))
		c.Write(hdr[:])
		c.Write(huge)
		time.Sleep(200 * time.Millisecond)
	})
	cl := NewClient(addr, ClientOptions{CallTimeout: time.Second})
	defer cl.Close()
	if _, err := cl.QueryStream(sid(1, 1), 0, 10); err == nil || !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("oversized chunk not rejected: %v", err)
	}
	// The connection is poisoned: the next call fails rather than
	// trusting the old socket.
	if err := cl.Ping(); err == nil {
		t.Fatal("poisoned connection kept serving")
	}
}

// TestRPCStreamColdNode runs the streaming path against a durable,
// cache-bounded node over loopback — the full tentpole stack in one
// test: cold blocks decode server-side, chunks stream over the wire,
// and the client reassembles the exact result.
func TestRPCStreamColdNode(t *testing.T) {
	dir := t.TempDir()
	n := store.NewNode(0)
	if err := n.OpenOptions(dir, store.DiskOptions{SyncInterval: -1, CacheBytes: 1 << 16}); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	id := sid(8, 8)
	fillSensor(t, n, id, 2*store.StreamChunkReadings+7)
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(n, true)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(srv.Addr(), ClientOptions{})
	defer cl.Close()

	st, err := cl.QueryStream(id, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	count := 0
	for {
		rs, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count += len(rs)
	}
	if want := 2*store.StreamChunkReadings + 7; count != want {
		t.Fatalf("cold RPC stream returned %d readings, want %d", count, want)
	}
}

// TestStreamStallDoesNotBlockUnary: a consumer that opens a stream and
// stops pulling holds a cursor on the server and nothing else, so
// unary calls on the same connection keep completing at full speed.
func TestStreamStallDoesNotBlockUnary(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{PoolSize: 1, CallTimeout: 2 * time.Second})
	id := sid(9, 9)
	fillSensor(t, n, id, 12*store.StreamChunkReadings)

	st, err := cl.QueryStream(id, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Injected stall: pull one chunk, then abandon the stream with the
	// server mid-production.
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let anything the stream could send arrive

	start := time.Now()
	for i := 0; i < 50; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatalf("unary call %d failed behind a stalled stream: %v", i, err)
		}
		if err := cl.InsertBatch(id, []core.Reading{rd(int64(1e9+i), 1)}, 0); err != nil {
			t.Fatalf("unary insert %d failed behind a stalled stream: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("unary calls took %s behind a stalled stream", elapsed)
	}
}

// TestStreamUnreadLeavesReadsServed: one connection, a stream of many
// chunks held unread, and then 50 reads of another sensor — each a
// stream of its own on the same connection — with pings and writes
// between them, each inside the call timeout.
func TestStreamUnreadLeavesReadsServed(t *testing.T) {
	const timeout = 2 * time.Second
	n, _, cl := testPair(t, ClientOptions{PoolSize: 1, CallTimeout: timeout})
	held, other := sid(9, 1), sid(9, 2)
	fillSensor(t, n, held, 40*store.StreamChunkReadings)
	fillSensor(t, n, other, 2*store.StreamChunkReadings+5)

	st, err := cl.QueryStream(held, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 50; i++ {
		start := time.Now()
		rs, err := cl.Query(other, -1<<62, 1<<62)
		if err != nil || len(rs) != 2*store.StreamChunkReadings+5 {
			t.Fatalf("read %d beside an unread stream: %d readings, %v", i, len(rs), err)
		}
		if err := cl.Ping(); err != nil {
			t.Fatalf("ping %d beside an unread stream: %v", i, err)
		}
		if err := cl.InsertBatch(sid(9, 9), []core.Reading{rd(int64(i), 1)}, 0); err != nil {
			t.Fatalf("write %d beside an unread stream: %v", i, err)
		}
		if took := time.Since(start); took >= timeout {
			t.Fatalf("round %d took %s, the call timeout is %s", i, took, timeout)
		}
	}
	// The held stream still reads to its end.
	if rs, err := store.Drain(st); err != nil || len(rs) != 40*store.StreamChunkReadings {
		t.Fatalf("the held stream: %d readings, %v", len(rs), err)
	}
}

// TestStreamOpensBeyondMaxInFlight: one connection holds at most
// maxInFlight open streams; the open after them is refused with an
// error that names the bound, and the connection keeps serving —
// closing one stream makes room for another.
func TestStreamOpensBeyondMaxInFlight(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{PoolSize: 1, CallTimeout: 2 * time.Second})
	id := sid(9, 3)
	// Three chunks: the first answers the open, the second the request
	// sent ahead, and the third keeps each stream open.
	fillSensor(t, n, id, 3*store.StreamChunkReadings)
	open := make([]store.ReadingStream, maxInFlight)
	for i := range open {
		st, err := cl.QueryStream(id, -1<<62, 1<<62)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		defer st.Close()
		open[i] = st
	}
	if _, err := cl.QueryStream(id, -1<<62, 1<<62); err == nil || !strings.Contains(err.Error(), "maxInFlight") {
		t.Fatalf("open %d on one connection: %v, want a refusal naming maxInFlight", maxInFlight+1, err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after the refused open: %v", err)
	}
	if err := cl.InsertBatch(id, []core.Reading{rd(1e9, 1)}, 0); err != nil {
		t.Fatalf("write after the refused open: %v", err)
	}
	if rs, err := store.Drain(open[0]); err != nil || len(rs) != 3*store.StreamChunkReadings {
		t.Fatalf("an open stream after the refusal: %d readings, %v", len(rs), err)
	}
	st, err := cl.QueryStream(id, -1<<62, 1<<62)
	if err != nil {
		t.Fatalf("open after one stream ended: %v", err)
	}
	st.Close()
}

// TestStreamVirtualSensorThreeOperands: a virtual sensor over three
// sensors of one node reads its operands' streams side by side on one
// client; it drains completely, 40 chunks an operand.
func TestStreamVirtualSensorThreeOperands(t *testing.T) {
	_, _, cl := testPair(t, ClientOptions{CallTimeout: 2 * time.Second})
	conn := libdcdb.Connect(cl, nil)
	const total = 40 * store.StreamChunkReadings
	batch := make([]core.Reading, store.StreamChunkReadings)
	for _, topic := range []string{"/m/a", "/m/b", "/m/c"} {
		for base := 0; base < total; base += len(batch) {
			for i := range batch {
				batch[i] = core.Reading{Timestamp: int64(base + i), Value: 1}
			}
			if err := conn.InsertBatch(topic, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := conn.PublishSensor(core.Metadata{Topic: "/m/sum", Virtual: true, Expression: "</m/a> + </m/b> + </m/c>"}); err != nil {
		t.Fatal(err)
	}
	st, err := conn.QueryStream("/m/sum", 0, total)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := 0
	for {
		rs, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d readings: %v", got, err)
		}
		for _, r := range rs {
			if r.Value != 3 {
				t.Fatalf("reading %v, want the sum 3", r)
			}
		}
		got += len(rs)
	}
	if got != total {
		t.Fatalf("the virtual sensor yielded %d readings, want %d", got, total)
	}
}
