package rpc

import (
	"sync"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/metrics"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
)

// TestReadFormsAgreeOnConflictOverRPC runs the store's conflict table
// with every replica behind a loopback client: the QUORUM invariant
// must not depend on where a replica lives.
func TestReadFormsAgreeOnConflictOverRPC(t *testing.T) {
	storetest.ConflictTable(t, func(t *testing.T) (*store.Cluster, map[string]*store.Node) {
		nodes := make(map[string]*store.Node)
		backends := make([]store.NodeBackend, 3)
		for i := range backends {
			n, srv, cl := testPair(t, ClientOptions{})
			nodes[srv.Addr()], backends[i] = n, cl
		}
		c, err := store.NewClusterOptions(backends, store.ClusterOptions{
			Replication:     3,
			ReadConsistency: store.ConsistencyQuorum,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, nodes
	})
}

// callCounts reads one op's client latency count and the client's call
// error total.
func callCounts(t *testing.T, cl *Client, op string) (calls int64, errs float64) {
	t.Helper()
	for _, s := range cl.Metrics().Gather() {
		switch s.Name {
		case `dcdb_rpc_client_call_latency_seconds{op="` + op + `"}`:
			calls = s.Hist.Count()
		case "dcdb_rpc_client_call_errors_total":
			errs = s.Value
		}
	}
	return calls, errs
}

// TestStreamCallMetricsParity: the stream ops reach the client's call
// metrics like unary ops do — a Query and a drained QueryStream are one
// query_stream call each, a stream that fails mid-way is one call error
// (what the benchmark's rpc.call_errors health check reads), and a
// stream the caller closes early is neither a call nor an error.
func TestStreamCallMetricsParity(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{})
	id := sid(4, 4)
	fillSensor(t, n, id, 3*store.StreamChunkReadings)
	for name, read := range map[string]func() error{
		"Query": func() error { _, err := cl.Query(id, 0, 1<<60); return err },
		"QueryStream": func() error {
			st, err := cl.QueryStream(id, 0, 1<<60)
			if err != nil {
				return err
			}
			_, err = store.Drain(st)
			return err
		},
	} {
		calls0, errs0 := callCounts(t, cl, "query_stream")
		if err := read(); err != nil {
			t.Fatal(err)
		}
		if calls, errs := callCounts(t, cl, "query_stream"); calls-calls0 != 1 || errs != errs0 {
			t.Fatalf("%s moved query_stream calls by %d and call errors by %g, want 1 and 0", name, calls-calls0, errs-errs0)
		}
	}
	if _, err := cl.QueryPrefix(core.SensorID{}, 0, 0, 1<<60); err != nil {
		t.Fatal(err)
	}
	if calls, _ := callCounts(t, cl, "query_prefix_stream"); calls != 1 {
		t.Fatalf("QueryPrefix made %d query_prefix_stream calls, want 1", calls)
	}

	calls0, errs0 := callCounts(t, cl, "query_stream")
	st, err := cl.QueryStream(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if calls, errs := callCounts(t, cl, "query_stream"); calls != calls0 || errs != errs0 {
		t.Fatalf("a stream closed early counted %d calls and %g errors, want neither", calls-calls0, errs-errs0)
	}

	bad := NewServer(errStreamBackend{store.NewNode(0)}, true)
	if err := bad.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bcl := NewClient(bad.Addr(), ClientOptions{})
	defer bcl.Close()
	if _, err := bcl.Query(id, 0, 10); err == nil {
		t.Fatal("the scripted mid-stream failure did not surface")
	}
	if calls, errs := callCounts(t, bcl, "query_stream"); calls != 1 || errs != 1 {
		t.Fatalf("a stream that failed mid-way counted %d calls and %g errors, want 1 and 1", calls, errs)
	}
}

// stallBackend serves one chunk per QueryStream and then blocks until
// released — a read caught mid-stream.
type stallBackend struct {
	store.NodeBackend
	firstChunk chan struct{} // closed once a stream has served its chunk
	release    chan struct{}
	once       sync.Once
}

type stallStream struct {
	b    *stallBackend
	sent bool
}

func (b *stallBackend) QueryStream(core.SensorID, int64, int64) (store.ReadingStream, error) {
	return &stallStream{b: b}, nil
}

func (s *stallStream) Next() ([]core.Reading, error) {
	if !s.sent {
		s.sent = true
		return []core.Reading{{Timestamp: 1, Value: 1}}, nil
	}
	s.b.once.Do(func() { close(s.b.firstChunk) })
	<-s.b.release
	return nil, store.ErrNodeDown
}

func (s *stallStream) Close() error { return nil }

// TestQueryAbandonedByConnectionLoss: a materialised read is a stream
// underneath, so losing the connection mid-read must clean up like a
// stream — the caller gets the error, no waiter stays in any
// clientConn.pending, and the server's handler finishes.
func TestQueryAbandonedByConnectionLoss(t *testing.T) {
	b := &stallBackend{NodeBackend: store.NewNode(0), firstChunk: make(chan struct{}), release: make(chan struct{})}
	srv := NewServer(b, true)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(srv.Addr(), ClientOptions{CallTimeout: 5 * time.Second})
	defer cl.Close()

	const readers = 4
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			_, err := cl.Query(sid(1, 1), 0, 10)
			errs <- err
		}()
	}
	<-b.firstChunk
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	for i := 0; i < readers; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a Query whose connection died mid-stream returned no error")
		}
	}
	for _, slot := range cl.slots {
		slot.pmu.Lock()
		left := len(slot.pending)
		slot.pmu.Unlock()
		if left != 0 {
			t.Fatalf("%d calls still waiting on a client connection after the loss", left)
		}
	}
	close(b.release)
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.inFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d stream handlers still running on the server", srv.met.inFlight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// queryCost runs one Query and returns what it read and the requests
// the server took for it.
func queryCost(t *testing.T, srv *Server, cl *Client, id core.SensorID, want int) (read, requests int64) {
	t.Helper()
	read0, _ := cl.NetBytes()
	req0 := srv.Requests()
	rs, err := cl.Query(id, 0, 1<<60)
	if err != nil || len(rs) != want {
		t.Fatalf("query: %d readings, %v; want %d", len(rs), err, want)
	}
	read, _ = cl.NetBytes()
	return read - read0, srv.Requests() - req0
}

// TestEmptyQueryIsOneFrame: a Query of an empty range costs exactly one
// response frame — the open's reply, saying nothing follows, no chunk.
func TestEmptyQueryIsOneFrame(t *testing.T) {
	_, srv, cl := testPair(t, ClientOptions{})
	if err := cl.Ping(); err != nil { // dials
		t.Fatal(err)
	}
	const frame = 8 + chunkHeaderLen // frame header | reqID, status, more
	if read, reqs := queryCost(t, srv, cl, sid(1, 1), 0); read != frame || reqs != 1 {
		t.Fatalf("an empty Query read %d bytes in %d requests, want the %d of one reply", read, reqs, frame)
	}
	var chunks metrics.Sample
	for _, s := range srv.Metrics().Gather() {
		if s.Name == "dcdb_rpc_server_stream_chunks_total" {
			chunks = s
		}
	}
	if chunks.Value != 0 {
		t.Fatalf("the server sent %g chunks for empty results", chunks.Value)
	}
}

// TestOneChunkQueryIsOneFrame: a result of at most one chunk costs one
// response frame too — the open's reply carries the chunk and says
// nothing follows.
func TestOneChunkQueryIsOneFrame(t *testing.T) {
	n, srv, cl := testPair(t, ClientOptions{})
	id := sid(1, 2)
	fillSensor(t, n, id, store.StreamChunkReadings)
	if err := cl.Ping(); err != nil { // dials
		t.Fatal(err)
	}
	const frame = 8 + chunkHeaderLen + 4 + 16*store.StreamChunkReadings
	if read, reqs := queryCost(t, srv, cl, id, store.StreamChunkReadings); read != frame || reqs != 1 {
		t.Fatalf("a one-chunk Query read %d bytes in %d requests, want the %d of one reply", read, reqs, frame)
	}
	// One more reading is a second chunk: one more request and reply.
	fillSensor(t, n, sid(1, 3), store.StreamChunkReadings+1)
	if _, reqs := queryCost(t, srv, cl, sid(1, 3), store.StreamChunkReadings+1); reqs != 2 {
		t.Fatalf("a two-chunk Query took %d requests, want 2", reqs)
	}
}

// TestQuorumResolveBehindUnreadStreams: a QUORUM read that finds its
// replicas diverged resolves the span through versioned streams while
// it still holds the replicas' value streams, with chunks unread behind
// the divergence. With one connection per client, the versioned
// streams must not wait on those chunks: a single-sensor read and a
// prefix read each answer with the winner, inside the call timeout.
func TestQuorumResolveBehindUnreadStreams(t *testing.T) {
	const timeout = 3 * time.Second
	short, long := sid(1, 1), sid(2, 1)
	history := make([]store.VersionedReading, 12*store.StreamChunkReadings)
	for i := range history {
		history[i] = store.VersionedReading{Timestamp: int64(i), Value: float64(i), Version: 1}
	}
	rewrite := []store.VersionedReading{{Timestamp: 0, Value: 99, Version: 2}}
	backends := make([]store.NodeBackend, 3)
	for i := range backends {
		n, _, cl := testPair(t, ClientOptions{PoolSize: 1, CallTimeout: timeout})
		backends[i] = cl
		for _, w := range []struct {
			id  core.SensorID
			vrs []store.VersionedReading
		}{{short, history[:10]}, {long, history}} {
			if err := n.InsertVersioned(w.id, w.vrs); err != nil {
				t.Fatal(err)
			}
			if i == 0 { // the replica that diverged: it alone holds the rewrites
				if err := n.InsertVersioned(w.id, rewrite); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	c, err := store.NewClusterOptions(backends, store.ClusterOptions{
		Replication:     3,
		ReadConsistency: store.ConsistencyQuorum,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	check := func(what string, rs []core.Reading, want int) {
		t.Helper()
		if len(rs) != want || rs[0].Value != 99 {
			t.Fatalf("%s: %d readings, want %d led by the rewrite", what, len(rs), want)
		}
	}

	start := time.Now()
	rs, err := c.Query(long, 0, 1<<60)
	if err != nil {
		t.Fatalf("QUORUM read of a diverged sensor: %v", err)
	}
	check("read", rs, len(history))
	m, err := c.QueryPrefix(core.SensorID{}, 0, 0, 1<<60)
	if err != nil {
		t.Fatalf("QUORUM prefix read over a diverged sensor: %v", err)
	}
	check("prefix read, diverged sensor", m[short], 10)
	check("prefix read, the sensor streaming behind it", m[long], len(history))
	if took := time.Since(start); took >= timeout {
		t.Fatalf("the reads took %v: a versioned stream stalled behind a value stream", took)
	}
}
