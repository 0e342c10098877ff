package rpc

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/store"
)

// Tests of the server's connection model: a write frame runs to
// completion on the connection's read loop, every other op in a
// goroutine under maxInFlight, and all replies share one writer.

// blockingPings is a node whose Pings wait until release is closed.
type blockingPings struct {
	*store.Node
	entered atomic.Int32
	release chan struct{}
}

func (b *blockingPings) Ping() error {
	b.entered.Add(1)
	<-b.release
	return nil
}

// TestServerModelWriteBypassesInFlightCap: with every handler slot of
// a connection held by a blocked op, a write frame on that connection
// is still answered — writes run on the read loop and never queue
// behind the cap.
func TestServerModelWriteBypassesInFlightCap(t *testing.T) {
	b := &blockingPings{Node: store.NewNode(0), release: make(chan struct{})}
	srv := serveBackend(t, b)
	cl := NewClient(srv.Addr(), ClientOptions{PoolSize: 1, CallTimeout: 5 * time.Second})
	defer cl.Close()

	var pings sync.WaitGroup
	for i := 0; i < maxInFlight; i++ {
		pings.Add(1)
		go func() {
			defer pings.Done()
			if err := cl.Ping(); err != nil {
				t.Error(err)
			}
		}()
	}
	defer pings.Wait()
	defer close(b.release)
	deadline := time.Now().Add(5 * time.Second)
	for b.entered.Load() < maxInFlight {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d pings reached the backend", b.entered.Load(), maxInFlight)
		}
		time.Sleep(time.Millisecond)
	}

	id := sid(60, 1)
	start := time.Now()
	if errs := cl.WriteFrame([]store.WriteEntry{entry(id, 1000, 1, 3)}); errs != nil {
		t.Fatalf("write frame behind %d blocked ops: %v", maxInFlight, errs)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("write frame took %s behind %d blocked ops", elapsed, maxInFlight)
	}
	if got, err := b.Query(id, 0, 10); err != nil || len(got) != 3 {
		t.Fatalf("stored %v, %v; want 3 readings", got, err)
	}
	if n := b.entered.Load(); n != maxInFlight {
		t.Fatalf("%d pings ran, want %d", n, maxInFlight)
	}
}

// TestServerModelInterleavedReplies: pipelined write frames, unary
// reads and a stream on one connection. Every request id is answered
// exactly once, write frames in the order they were sent, and the
// stream's chunks arrive in sequence before its end.
func TestServerModelInterleavedReplies(t *testing.T) {
	n := store.NewNode(0)
	streamed := sid(61, 0)
	const chunks = 6
	fillSensor(t, n, streamed, chunks*store.StreamChunkReadings)
	srv := serveBackend(t, n)
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const rounds = 200
	const streamID = 1 << 40
	var writeIDs, readIDs []uint64
	var reqs [][]byte
	for i := 0; i < rounds; i++ {
		if i == rounds/4 {
			body := appendSID(nil, streamed)
			body = appendI64(body, -1<<62)
			body = appendI64(body, 1<<62)
			reqs = append(reqs, buildRequest(streamID, opQueryStream, 0, body))
		}
		wid := uint64(2*i + 1)
		writeIDs = append(writeIDs, wid)
		body := store.AppendEntries(nil, []store.WriteEntry{entry(sid(62, uint64(i%5)), uint64(1000+i), int64(i), 1)})
		reqs = append(reqs, buildRequest(wid, opWrite, 0, body))
		rid := uint64(2*i + 2)
		readIDs = append(readIDs, rid)
		body = fold.AppendSpec(appendSID(nil, sid(62, uint64(i%5))), fold.Spec{Op: fold.OpSummary, From: 0, To: 1 << 62})
		reqs = append(reqs, buildRequest(rid, opAggregate, 0, body))
	}
	sent := make(chan error, 1)
	go func() {
		bw := bufio.NewWriter(c)
		for _, r := range reqs {
			if err := writeFrame(bw, r); err != nil {
				sent <- err
				return
			}
		}
		sent <- bw.Flush()
	}()

	answered := make(map[uint64]int)
	var writeOrder []uint64
	nextSeq, streamReadings, ended := uint32(0), 0, false
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(20 * time.Second))
	for len(answered) < len(writeIDs)+len(readIDs) || !ended {
		p, err := readFrame(br)
		if err != nil {
			t.Fatalf("after %d answers: %v", len(answered), err)
		}
		id, status := binary.BigEndian.Uint64(p), p[8]
		if id != streamID {
			if status != statusOK {
				t.Fatalf("request %d: status %d: %s", id, status, p[respHeaderLen:])
			}
			if answered[id]++; answered[id] > 1 {
				t.Fatalf("request %d answered twice", id)
			}
			if id%2 == 1 {
				writeOrder = append(writeOrder, id)
			}
			continue
		}
		if ended {
			t.Fatal("stream frame after the stream's end")
		}
		seq := binary.BigEndian.Uint32(p[respHeaderLen:])
		if seq != nextSeq {
			t.Fatalf("stream frame seq %d, want %d", seq, nextSeq)
		}
		switch status {
		case statusChunk:
			nextSeq++
			streamReadings += (len(p) - respHeaderLen - 4) / 16
		case statusStreamEnd:
			ended = true
		default:
			t.Fatalf("stream status %d: %s", status, p[respHeaderLen:])
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for _, id := range append(writeIDs, readIDs...) {
		if answered[id] != 1 {
			t.Fatalf("request %d answered %d times", id, answered[id])
		}
	}
	for i, id := range writeOrder {
		if id != writeIDs[i] {
			t.Fatalf("write reply %d is request %d, want %d: write frames are answered in arrival order", i, id, writeIDs[i])
		}
	}
	if streamReadings != chunks*store.StreamChunkReadings {
		t.Fatalf("stream carried %d readings, want %d", streamReadings, chunks*store.StreamChunkReadings)
	}
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if p, err := readFrame(br); err == nil {
		t.Fatalf("unexpected extra reply to request %d", binary.BigEndian.Uint64(p))
	}
	for k := 0; k < 5; k++ {
		if got, _ := n.Query(sid(62, uint64(k)), 0, 1<<62); len(got) != rounds/5 {
			t.Fatalf("sensor %d holds %d readings, want %d", k, len(got), rounds/5)
		}
	}
}

// endlessStream yields full chunks forever.
type endlessStream struct{ chunk []core.Reading }

func (s endlessStream) Next() ([]core.Reading, error) { return s.chunk, nil }
func (s endlessStream) Close() error                  { return nil }

// endlessStreams is a node whose QueryStream never ends.
type endlessStreams struct{ *store.Node }

func (endlessStreams) QueryStream(core.SensorID, int64, int64) (store.ReadingStream, error) {
	return endlessStream{chunk: make([]core.Reading, store.StreamChunkReadings)}, nil
}

// TestServerModelStalledPeerTeardown: a peer that sends a stream
// request and a write frame and then stops reading, without closing,
// stalls every reply. The write-stall deadline must still end the
// connection: the stream producer and the read loop return and the
// server forgets the connection.
func TestServerModelStalledPeerTeardown(t *testing.T) {
	t.Cleanup(func(d time.Duration) func() { return func() { writeStallTimeout = d } }(writeStallTimeout))
	writeStallTimeout = 200 * time.Millisecond
	srv := serveBackend(t, endlessStreams{store.NewNode(0)})
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	body := appendSID(nil, sid(63, 1))
	body = appendI64(body, 0)
	body = appendI64(body, 1)
	bw := bufio.NewWriter(c)
	writeFrame(bw, buildRequest(1, opQueryStream, 0, body))
	writeFrame(bw, buildRequest(2, opWrite, 0, store.AppendEntries(nil, []store.WriteEntry{entry(sid(63, 2), 1000, 1, 1)})))
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	live := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Requests() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the server never read both requests")
		}
		time.Sleep(time.Millisecond)
	}
	for live() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("a connection whose peer stopped reading was not torn down")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
