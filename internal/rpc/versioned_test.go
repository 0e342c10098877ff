package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
)

// Wire coverage for what replica transfers ride on: InsertVersioned
// (an opWrite frame), opQueryVersionedStream and the OpSummary
// aggregate replicas are compared by must round-trip versions and
// fingerprints exactly, because a version lost in transit reopens the
// stale-resurrection window the versions exist to close.

func TestRPCVersionedInsertQueryRoundtrip(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{})
	id := sid(7, 1)
	vrs := []store.VersionedReading{
		{Timestamp: 1, Value: 1.5, Version: 40},
		{Timestamp: 2, Value: 2.5, Version: 41, Expire: 1 << 62},
		{Timestamp: 3, Value: 3.5, Version: 41, Expire: 1 << 62},
	}
	if err := cl.InsertVersioned(id, vrs); err != nil {
		t.Fatalf("InsertVersioned: %v", err)
	}
	// A stale version over the wire must lose at the node's dedup.
	if err := cl.InsertVersioned(id, []store.VersionedReading{
		{Timestamp: 2, Value: 99, Version: 30},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := storetest.Versioned(cl, id, 0, 1<<60)
	if err != nil {
		t.Fatalf("QueryVersionedStream: %v", err)
	}
	if !slices.Equal(got, vrs) {
		t.Fatalf("the versioned stream served %+v, want %+v", got, vrs)
	}
	// The remote view matches the node's own versioned read.
	direct, err := storetest.Versioned(n, id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(direct, got) {
		t.Fatalf("remote %+v vs direct %+v", got, direct)
	}
}

// TestRPCAggregateMatchesLocal: the summary replicas are compared by
// is the same state remotely as locally, and it depends on the range it
// covers.
func TestRPCAggregateMatchesLocal(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{})
	id := sid(7, 2)
	if err := cl.InsertVersioned(id, []store.VersionedReading{
		{Timestamp: 1, Value: 10, Version: 1},
		{Timestamp: 2, Value: 20, Version: 2},
		{Timestamp: 3, Value: 30, Version: 3},
	}); err != nil {
		t.Fatal(err)
	}
	full := fold.Spec{Op: fold.OpSummary, From: 0, To: 1 << 60}
	remote, err := cl.Aggregate(id, full)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	local, err := n.Aggregate(id, full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fold.Append(nil, remote), fold.Append(nil, local)) {
		t.Fatalf("remote summary (%x,%d) != local (%x,%d)", remote.Fingerprint(), remote.Count(), local.Fingerprint(), local.Count())
	}
	if remote.Count() != 3 {
		t.Fatalf("summary count %d, want 3", remote.Count())
	}
	// A different range folds differently (the fingerprint actually
	// depends on the data it covers).
	sub, err := cl.Aggregate(id, fold.Spec{Op: fold.OpSummary, From: 0, To: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Count() != 2 || sub.Fingerprint() == remote.Fingerprint() {
		t.Fatalf("sub-range summary (%x,%d) should differ from full (%x,%d)", sub.Fingerprint(), sub.Count(), remote.Fingerprint(), remote.Count())
	}
}

// TestRPCVersionedStreamChunks: a versioned read of 10^6 readings, each
// with a stamp of its own, arrives as a stream of bounded chunks
// — the one-frame read it replaced tore the connection down above
// frameMax — and the client stays healthy afterwards.
func TestRPCVersionedStreamChunks(t *testing.T) {
	n, srv, cl := testPair(t, ClientOptions{})
	id := sid(7, 4)
	const total = 1_000_000
	vrs := make([]store.VersionedReading, 0, 10_000)
	for base := 0; base < total; base += cap(vrs) {
		vrs = vrs[:0]
		for ts := base; ts < base+cap(vrs); ts++ {
			vrs = append(vrs, store.VersionedReading{Timestamp: int64(ts), Value: float64(ts), Version: uint64(ts + 1)})
		}
		if err := n.InsertVersioned(id, vrs); err != nil {
			t.Fatal(err)
		}
	}

	// On the wire: every reply within the client's bound, its chunk
	// whole entries, the readings in order under their stamps, one
	// opStreamNext request a chunk after the open's.
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	body := appendI64(appendI64(appendSID(nil, id), math.MinInt64), math.MaxInt64)
	bw := bufio.NewWriter(c)
	request := func(id uint64, op byte, body []byte) {
		if err := writeFrame(bw, buildRequest(id, op, 0, body)); err != nil || bw.Flush() != nil {
			t.Fatal("sending a request failed")
		}
	}
	request(1, opQueryVersionedStream, body)
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(time.Minute))
	next, chunks := int64(0), 0
	for id := uint64(1); ; id++ {
		p, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if p[8] != statusOK || binary.BigEndian.Uint64(p) != id {
			t.Fatalf("reply to request %d, status %d, want %d: %s", binary.BigEndian.Uint64(p), p[8], id, p[respHeaderLen:])
		}
		if len(p) > streamChunkMaxBytes {
			t.Fatalf("chunk %d is %d bytes, over the client's %d-byte bound", chunks, len(p), streamChunkMaxBytes)
		}
		entries, err := store.DecodeEntries(p[chunkHeaderLen:])
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			for _, r := range e.Readings {
				if r.Timestamp != next || e.Version != uint64(next+1) {
					t.Fatalf("reading ts %d version %d, want ts %d version %d", r.Timestamp, e.Version, next, next+1)
				}
				next++
			}
		}
		chunks++
		if p[respHeaderLen] == 0 {
			break
		}
		request(id+1, opStreamNext, appendU64(nil, 1))
	}
	if next != total || chunks < total/store.StreamChunkReadings {
		t.Fatalf("%d readings in %d chunks, want %d in at least %d", next, chunks, total, total/store.StreamChunkReadings)
	}

	// Through the client, twice: the connection survives the stream.
	for round := 0; round < 2; round++ {
		st, err := cl.QueryVersionedStream(id, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for {
			chunk, err := st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("round %d after %d readings: %v", round, got, err)
			}
			got += len(chunk)
		}
		st.Close()
		if got != total {
			t.Fatalf("round %d streamed %d readings, want %d", round, got, total)
		}
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("client unhealthy after the stream: %v", err)
	}
}

// TestRPCClusterAntiEntropyOverWire: the full repair loop where every
// replica is behind a TCP client — the deployment shape of the paper's
// multi-server backend. A diverged remote replica converges through
// summary comparison and the versioned merge alone.
func TestRPCClusterAntiEntropyOverWire(t *testing.T) {
	nodes := make([]*store.Node, 2)
	backends := make([]store.NodeBackend, 2)
	for i := range nodes {
		nodes[i] = store.NewNode(0)
		srv := NewServer(nodes[i], true)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl := NewClient(srv.Addr(), ClientOptions{})
		t.Cleanup(func() { cl.Close() })
		backends[i] = cl
	}
	c, err := store.NewClusterOptions(backends, store.ClusterOptions{
		Replication:      2,
		WriteConsistency: store.ConsistencyOne,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := sid(7, 3)
	if err := c.InsertBatch(id, []core.Reading{rd(1, 1), rd(2, 2)}, 0); err != nil {
		t.Fatal(err)
	}
	nodes[1].SetDown(true)
	if err := c.Insert(id, rd(2, 99), 0); err != nil {
		t.Fatal(err)
	}
	nodes[1].SetDown(false)
	c.RepairRound()
	for i, n := range nodes {
		rs, err := n.Query(id, 0, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 2 || rs[1].Value != 99 {
			t.Fatalf("node %d serves %v after wire repair, want ts2=99", i, rs)
		}
	}
}
