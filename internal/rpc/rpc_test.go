package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
)

func sid(hi, lo uint64) core.SensorID { return core.SensorID{Hi: hi, Lo: lo} }

func rd(ts int64, v float64) core.Reading { return core.Reading{Timestamp: ts, Value: v} }

// serveBackend serves backend on a fresh server and returns it.
func serveBackend(t *testing.T, backend store.NodeBackend) *Server {
	t.Helper()
	srv := NewServer(backend, true)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// testPair serves a fresh memory node and returns a connected client.
func testPair(t *testing.T, o ClientOptions) (*store.Node, *Server, *Client) {
	t.Helper()
	n := store.NewNode(0)
	srv := serveBackend(t, n)
	cl := NewClient(srv.Addr(), o)
	t.Cleanup(func() { cl.Close() })
	return n, srv, cl
}

func TestRPCRoundtripFullNodeAPI(t *testing.T) {
	n, srv, cl := testPair(t, ClientOptions{})
	id := sid(1, 2)

	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := cl.InsertBatch(id, []core.Reading{rd(1, 1.5)}, 0); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	batch := []core.Reading{rd(2, 2.5), rd(3, 3.5), rd(4, 4.5)}
	if err := cl.InsertBatch(id, batch, 0); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	rs, err := cl.Query(id, 0, 1<<60)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rs) != 4 || rs[0].Value != 1.5 || rs[3].Timestamp != 4 {
		t.Fatalf("Query returned %v", rs)
	}
	// The remote view must match the node's own.
	direct, _ := n.Query(id, 0, 1<<60)
	if len(direct) != len(rs) {
		t.Fatalf("remote %d vs direct %d readings", len(rs), len(direct))
	}

	m, err := storetest.DrainPrefix(cl.QueryPrefixStream(core.SensorID{}, 0, 0, 1<<60))
	if err != nil {
		t.Fatalf("QueryPrefixStream: %v", err)
	}
	if len(m) != 1 || len(m[id]) != 4 {
		t.Fatalf("QueryPrefixStream returned %v", m)
	}

	ids := cl.SensorIDs()
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("SensorIDs returned %v", ids)
	}

	if err := cl.DeleteBefore(id, 3); err != nil {
		t.Fatalf("DeleteBefore: %v", err)
	}
	rs, _ = cl.Query(id, 0, 1<<60)
	if len(rs) != 2 {
		t.Fatalf("after DeleteBefore: %v", rs)
	}

	if err := cl.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := cl.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	cl.Compact()

	ins, _, entries := cl.Stats()
	if ins != 4 || entries != 2 {
		t.Fatalf("Stats = %d inserts, %d entries; want 4, 2", ins, entries)
	}
	if srv.Requests() == 0 {
		t.Fatal("server counted no requests")
	}
}

func TestRPCErrorsPropagate(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{})
	n.SetDown(true)
	if err := cl.InsertBatch(sid(1, 1), []core.Reading{rd(1, 1)}, 0); err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("down-node insert error = %v, want node-down", err)
	}
	if err := cl.Ping(); err == nil {
		t.Fatal("Ping of a down node succeeded")
	}
}

func TestRPCPipelining(t *testing.T) {
	// One TCP connection, many in-flight requests: pipelining must let
	// them interleave without corrupting response matching.
	_, _, cl := testPair(t, ClientOptions{PoolSize: 1})
	const workers, perWorker = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := sid(uint64(w+1), uint64(w))
			for i := 0; i < perWorker; i++ {
				if err := cl.InsertBatch(id, []core.Reading{rd(int64(i), float64(w))}, 0); err != nil {
					t.Error(err)
					return
				}
			}
			rs, err := cl.Query(id, 0, 1<<60)
			if err != nil || len(rs) != perWorker {
				t.Errorf("worker %d: %d readings, %v", w, len(rs), err)
			}
		}(w)
	}
	wg.Wait()
}

// rawFrame writes one frame with an arbitrary CRC (correct or not).
func rawFrame(c net.Conn, payload []byte, crc uint32) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc)
	if _, err := c.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.Write(payload)
	return err
}

func buildRequest(id uint64, op byte, timeout int64, body []byte) []byte {
	p := appendU64(nil, id)
	p = append(p, op)
	p = appendI64(p, timeout)
	return append(p, body...)
}

func TestRPCServerRejectsTornFrameByCRC(t *testing.T) {
	_, srv, _ := testPair(t, ClientOptions{})
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A valid ping first proves the connection works.
	ping := buildRequest(1, opPing, 0, nil)
	if err := rawFrame(c, ping, crc32.ChecksumIEEE(ping)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	if _, err := readFrame(br); err != nil {
		t.Fatalf("valid ping got no response: %v", err)
	}

	// A frame whose payload was torn (CRC computed over different
	// bytes) must poison the connection: the server closes it instead
	// of guessing at framing.
	torn := buildRequest(2, opPing, 0, nil)
	if err := rawFrame(c, torn, crc32.ChecksumIEEE(torn)^0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(br); err == nil {
		t.Fatal("server answered a torn frame instead of closing the connection")
	}
}

func TestRPCServerRejectsOversizedFrame(t *testing.T) {
	_, srv, _ := testPair(t, ClientOptions{})
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], frameMax+1)
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(c).ReadByte(); err == nil {
		t.Fatal("server kept the connection after an oversized frame header")
	}
}

// TestReadFrameDeclaredLengthIsNotAllocated: a frame header that
// declares the largest payload and is followed by nothing must not make
// the server allocate what it declared.
func TestReadFrameDeclaredLengthIsNotAllocated(t *testing.T) {
	_, srv, _ := testPair(t, ClientOptions{})
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], frameMax)
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The server closes its side once it has given up on the payload.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil {
		t.Fatalf("server did not close the connection: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("an 8-byte header declaring %d bytes made the server allocate %d bytes", frameMax, grew)
	}
}

func TestRPCClientRejectsCorruptResponse(t *testing.T) {
	// A fake node that answers every request with a CRC-corrupt frame:
	// the client must surface an error and tear the connection down
	// rather than deliver garbage.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		if _, err := readFrame(br); err != nil {
			return
		}
		resp := appendU64(nil, 1)
		resp = append(resp, statusOK)
		rawFrame(c, resp, crc32.ChecksumIEEE(resp)^1)
	}()
	cl := NewClient(ln.Addr().String(), ClientOptions{CallTimeout: 5 * time.Second})
	defer cl.Close()
	if err := cl.Ping(); err == nil {
		t.Fatal("client accepted a CRC-corrupt response")
	}
}

func TestRPCDeadlinePropagation(t *testing.T) {
	_, srv, _ := testPair(t, ClientOptions{})
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A request whose relative budget is already exhausted (negative:
	// expired by definition, immune to clock skew) must be refused
	// without executing.
	req := buildRequest(7, opPing, -1, nil)
	if err := rawFrame(c, req, crc32.ChecksumIEEE(req)); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(bufio.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) < respHeaderLen || resp[8] != statusErr {
		t.Fatalf("expired-deadline request got status %v", resp)
	}
	if !strings.Contains(string(resp[respHeaderLen:]), "deadline") {
		t.Fatalf("error %q does not mention the deadline", resp[respHeaderLen:])
	}
}

func TestRPCReconnectAfterServerRestart(t *testing.T) {
	n := store.NewNode(0)
	srv := NewServer(n, true)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cl := NewClient(addr, ClientOptions{
		PoolSize:         1,
		ReconnectBackoff: 5 * time.Millisecond,
		MaxBackoff:       20 * time.Millisecond,
	})
	defer cl.Close()
	id := sid(3, 3)
	if err := cl.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The dead node must fail fast, not hang.
	if err := cl.Ping(); err == nil {
		t.Fatal("ping of a closed server succeeded")
	}

	// Restart on the same address (the node keeps its data: same
	// in-process store, as a restarted dcdbnode keeps its directory).
	srv2 := NewServer(n, true)
	if err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := cl.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected to the restarted server")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rs, err := cl.Query(id, 0, 1<<60)
	if err != nil || len(rs) != 1 {
		t.Fatalf("after reconnect: %v, %v", rs, err)
	}
}

func TestRPCUnavailableFailsFast(t *testing.T) {
	// No listener at all: after the first dial failure, calls inside
	// the backoff window return ErrUnavailable without a network wait.
	cl := NewClient("127.0.0.1:1", ClientOptions{
		PoolSize:         1,
		DialTimeout:      200 * time.Millisecond,
		ReconnectBackoff: time.Minute,
	})
	defer cl.Close()
	cl.Ping() // absorbs the dial failure
	start := time.Now()
	err := cl.Ping()
	if err == nil {
		t.Fatal("ping of nothing succeeded")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("backoff-window call took %s, want fail-fast", elapsed)
	}
	if !strings.Contains(err.Error(), "unavailable") {
		t.Fatalf("error = %v, want unavailable", err)
	}
}

// TestRPCLiveConnectionServesWhileASiblingBacksOff: a pooled
// connection inside its reconnect backoff passes calls and stream
// opens to a live sibling, so a node that answers is not reported
// unavailable. A hint replay used to ping a member on one connection
// and then fail its write on the other.
func TestRPCLiveConnectionServesWhileASiblingBacksOff(t *testing.T) {
	srv := serveBackend(t, store.NewNode(0))
	var dials atomic.Int32
	cl := NewClient(srv.Addr(), ClientOptions{
		PoolSize:         2,
		ReconnectBackoff: time.Minute,
		MaxBackoff:       time.Minute,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			if dials.Add(1) == 1 {
				return nil, errors.New("first dial refused")
			}
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	defer cl.Close()
	if err := cl.Ping(); err == nil {
		t.Fatal("the call whose dial was refused succeeded")
	}
	// One connection now backs off for a minute; every call and stream
	// below alternates onto it first.
	id := sid(1, 1)
	for i := 0; i < 4; i++ {
		if err := cl.InsertBatch(id, []core.Reading{rd(int64(i+1), 1)}, 0); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		rs, err := cl.Query(id, 0, 1<<60)
		if err != nil || len(rs) != 4 {
			t.Fatalf("stream %d: %d readings, %v", i, len(rs), err)
		}
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2: the backing-off connection redialled", n)
	}
}

// TestRPCClusterOverLoopback drives a full consistency/hinted-handoff
// cycle with the coordinator talking to every replica over TCP — the
// in-process miniature of the multi-process deployment.
func TestRPCClusterOverLoopback(t *testing.T) {
	var backends []store.NodeBackend
	var servers []*Server
	var nodes []*store.Node
	for i := 0; i < 3; i++ {
		n := store.NewNode(0)
		srv := NewServer(n, true)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cl := NewClient(srv.Addr(), ClientOptions{
			ReconnectBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		})
		defer cl.Close()
		nodes = append(nodes, n)
		servers = append(servers, srv)
		backends = append(backends, cl)
	}
	c, err := store.NewClusterOptions(backends, store.ClusterOptions{
		Partitioner: store.RingPartitioner{}, Replication: 2,
		ReadConsistency: store.ConsistencyQuorum,
		HintDir:         t.TempDir(), HintReplayInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := sid(21, 9)
	backup := slices.IndexFunc(servers, func(s *Server) bool { return s.Addr() == c.Owners(id)[1] })

	if err := c.InsertBatch(id, []core.Reading{rd(1, 1), rd(2, 2)}, 0); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Query(id, 0, 1<<60)
	if err != nil || len(rs) != 2 {
		t.Fatalf("QUORUM read over RPC: %v, %v", rs, err)
	}

	// Take the backup replica's server down; writes at ONE continue
	// and hint.
	servers[backup].Close()
	if err := c.InsertBatch(id, []core.Reading{rd(3, 3)}, 0); err != nil {
		t.Fatalf("ONE write with a dead RPC replica: %v", err)
	}
	if queued, _, _ := c.HintStats(); queued == 0 {
		t.Fatal("no hint queued for the dead replica")
	}

	// Restart the replica's server on the same address and replay.
	srv2 := NewServer(nodes[backup], true)
	if err := srv2.Listen(servers[backup].Addr()); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.ReplayHints(); err == nil {
			if _, replayed, pending := c.HintStats(); replayed > 0 && pending == 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("hints never replayed to the restarted replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := nodes[backup].Query(id, 0, 1<<60)
	if err != nil || len(got) != 3 {
		t.Fatalf("restarted replica holds %v, %v; want all 3 readings", got, err)
	}
}

func TestRPCServerRejectsMalformedBodies(t *testing.T) {
	_, srv, _ := testPair(t, ClientOptions{})
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	send := func(req []byte) []byte {
		t.Helper()
		if err := rawFrame(c, req, crc32.ChecksumIEEE(req)); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Truncated write frame: must fail cleanly, not panic or misread.
	short := buildRequest(1, opWrite, 0, []byte{0, 0, 0, 1, 2, 3})
	if resp := send(short); resp[8] != statusErr {
		t.Fatalf("truncated write frame accepted: %v", resp)
	}
	// Readings counts larger than the payload can hold, plain and as a
	// stamped run.
	for _, n := range []uint32{1 << 30, 1<<31 | 1<<30} {
		body := appendSID(nil, sid(1, 1))
		body = appendU64(body, 7)
		body = appendI64(body, 0)
		body = appendU32(body, n) // claims a billion readings
		if resp := send(buildRequest(2, opWrite, 0, body)); resp[8] != statusErr {
			t.Fatalf("overflowing readings count %#x accepted: %v", n, resp)
		}
	}
	// A well-formed frame body under the retired op 20 — whose body led
	// with an entry count — is an unknown op, not a write.
	entries := store.AppendEntries(nil, []store.WriteEntry{{ID: sid(1, 1), Readings: []core.Reading{rd(1, 1)}}})
	if resp := send(buildRequest(3, 20, 0, entries)); resp[8] != statusErr || !strings.Contains(string(resp[9:]), "unknown op 20") {
		t.Fatalf("op 20 answered %q, want an unknown-op error", resp[9:])
	}
	// So is one under the retired op 21, whose reply listed the entries
	// that failed.
	if resp := send(buildRequest(3, 21, 0, entries)); resp[8] != statusErr || !strings.Contains(string(resp[9:]), "unknown op 21") {
		t.Fatalf("op 21 answered %q, want an unknown-op error", resp[9:])
	}
	// Trailing garbage after a valid body.
	body := appendSID(nil, sid(1, 1))
	body = appendI64(body, 0)
	body = append(body, 0xff)
	trailing := buildRequest(3, opDeleteBefore, 0, body)
	if resp := send(trailing); resp[8] != statusErr {
		t.Fatalf("trailing bytes accepted: %v", resp)
	}
	agg := fold.AppendSpec(appendSID(nil, sid(1, 1)), fold.Spec{Op: fold.OpSummary, To: 10})
	if resp := send(buildRequest(4, opAggregate, 0, append(agg, 0xff))); resp[8] != statusErr || !strings.Contains(string(resp[9:]), "1 trailing bytes") {
		t.Fatalf("trailing bytes after an aggregate spec answered %q", resp[9:])
	}
	// Unknown opcode — which is also what the retired inserts (2, 3, 16),
	// the retired one-frame Query (4), QueryPrefix (5) and QueryVersioned
	// (17), the retired Digest (18) and the retired counted and
	// per-entry-answered write frames (20, 21) are to this server,
	// well-formed body or not.
	for i, op := range []byte{200, 2, 3, 4, 5, 16, 17, 18, 20, 21} {
		resp := send(buildRequest(uint64(10+i), op, 0, body[:len(body)-1]))
		if resp[8] != statusErr || !strings.Contains(string(resp[9:]), "unknown op") {
			t.Fatalf("op %d answered %q, want an unknown-op error", op, resp[9:])
		}
	}
	// The connection stays healthy through application-level errors.
	ping := buildRequest(5, opPing, 0, nil)
	if resp := send(ping); resp[8] != statusOK {
		t.Fatalf("ping after bad requests failed: %v", resp)
	}
	if cl := NewClient(srv.Addr(), ClientOptions{}); cl.Addr() != srv.Addr() {
		t.Fatal("Addr mismatch")
	}
}

func TestRPCCallTimeout(t *testing.T) {
	// A server that accepts but never answers: the call must return at
	// CallTimeout, not hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			_, _ = bufio.NewReader(c).ReadByte() // swallow and stall
		}
	}()
	cl := NewClient(ln.Addr().String(), ClientOptions{CallTimeout: 50 * time.Millisecond})
	defer cl.Close()
	start := time.Now()
	err = cl.Ping()
	if err == nil {
		t.Fatal("call to a stalled server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %s", elapsed)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("error = %v, want timeout", err)
	}
}
