package rpc

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
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
	if err := cl.WriteFrame([]store.WriteEntry{entry(id, 1000, 1, 3)}); err != nil {
		t.Fatalf("write frame behind %d blocked ops: %v", maxInFlight, err)
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
// stream's chunks arrive one per request until one says no more
// follows.
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
	// Both the pipelining goroutine and the reader (asking for the
	// stream's next chunk) send, each frame in one Write.
	var wmu sync.Mutex
	send := func(p []byte) error {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(p)))
		frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(p))
		wmu.Lock()
		defer wmu.Unlock()
		_, err := c.Write(append(frame, p...))
		return err
	}
	sent := make(chan error, 1)
	go func() {
		for _, r := range reqs {
			if err := send(r); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()

	answered := make(map[uint64]int)
	var writeOrder []uint64
	nextID, streamReadings, ended := uint64(streamID), 0, false
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(20 * time.Second))
	for len(answered) < len(writeIDs)+len(readIDs) || !ended {
		p, err := readFrame(br)
		if err != nil {
			t.Fatalf("after %d answers: %v", len(answered), err)
		}
		id, status := binary.BigEndian.Uint64(p), p[8]
		if status != statusOK {
			t.Fatalf("request %d: status %d: %s", id, status, p[respHeaderLen:])
		}
		if id < streamID {
			if answered[id]++; answered[id] > 1 {
				t.Fatalf("request %d answered twice", id)
			}
			if id%2 == 1 {
				writeOrder = append(writeOrder, id)
			}
			continue
		}
		if ended || id != nextID {
			t.Fatalf("stream reply to request %d, want %d (ended %v)", id, nextID, ended)
		}
		streamReadings += (len(p) - chunkHeaderLen - 4) / 16
		if ended = p[respHeaderLen] == 0; !ended {
			nextID++
			if err := send(buildRequest(nextID, opStreamNext, 0, appendU64(nil, streamID))); err != nil {
				t.Fatal(err)
			}
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

// endlessStream yields the same chunk forever.
type endlessStream struct{ chunk []core.Reading }

func (s endlessStream) Next() ([]core.Reading, error) { return s.chunk, nil }
func (s endlessStream) Close() error                  { return nil }

// endlessStreams is a node whose QueryStream never ends, in chunks of
// 8 MB: more than the socket buffers hold, so that one reply left
// unread blocks the server's writer.
type endlessStreams struct{ *store.Node }

func (endlessStreams) QueryStream(core.SensorID, int64, int64) (store.ReadingStream, error) {
	return endlessStream{chunk: make([]core.Reading, 1<<19)}, nil
}

// TestServerModelStalledPeerTeardown: a peer that opens a stream and
// sends a write frame and then stops reading, without closing, stalls
// every reply. The write-stall deadline must still end the connection:
// the handlers and the read loop return and the server forgets the
// connection.
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
