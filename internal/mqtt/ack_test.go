package mqtt

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// countingWriter counts Write calls: on a bare net.Conn each is a
// syscall and a TCP segment.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWritePacketIsOneWrite: header and body leave in a single Write,
// whatever the packet and however long its remaining-length varint.
func TestWritePacketIsOneWrite(t *testing.T) {
	packets := []*Packet{
		{Type: CONNECT, ClientID: "pusher-01", KeepAlive: 60, CleanSession: true},
		{Type: PUBACK, ID: 9},
		{Type: PINGREQ},
		{Type: PUBLISH, Flags: 1 << 1, ID: 7, Topic: "/a/b/c", Payload: make([]byte, 16)},
		{Type: PUBLISH, Topic: "/a", Payload: make([]byte, 200)},    // two-byte remaining length
		{Type: PUBLISH, Topic: "/a", Payload: make([]byte, 20_000)}, // three
		{Type: PUBLISH, Topic: "/a", Payload: make([]byte, 3<<20)},  // four
	}
	for _, p := range packets {
		var w countingWriter
		if err := WritePacket(&w, p); err != nil {
			t.Fatalf("%v: %v", p.Type, err)
		}
		if w.writes != 1 {
			t.Errorf("%v with a %d-byte payload took %d writes, want 1", p.Type, len(p.Payload), w.writes)
		}
		got, err := ReadPacket(bufio.NewReader(&w.Buffer))
		if err != nil || got.Type != p.Type || got.Topic != p.Topic || !bytes.Equal(got.Payload, p.Payload) || got.ID != p.ID {
			t.Errorf("%v did not round-trip: %+v, %v", p.Type, got, err)
		}
	}
}

// rawConn is a hand-driven MQTT connection: the test decides when a
// PUBLISH is sent and looks at what comes back, packet by packet.
type rawConn struct {
	t *testing.T
	c net.Conn
	r *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rc := &rawConn{t: t, c: c, r: bufio.NewReader(c)}
	rc.send(&Packet{Type: CONNECT, ClientID: "raw", CleanSession: true})
	if p := rc.next(time.Second); p == nil || p.Type != CONNACK {
		t.Fatalf("no CONNACK: %+v", p)
	}
	return rc
}

func (rc *rawConn) send(p *Packet) {
	rc.t.Helper()
	if err := WritePacket(rc.c, p); err != nil {
		rc.t.Fatal(err)
	}
}

// next returns the next packet, or nil when none arrives within d.
func (rc *rawConn) next(d time.Duration) *Packet {
	rc.t.Helper()
	rc.c.SetReadDeadline(time.Now().Add(d))
	p, err := ReadPacket(rc.r)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil
		}
		rc.t.Fatal(err)
	}
	return p
}

// TestAckContractBlockedStoreHoldsNextPuback pins what a PUBACK means,
// over real TCP: PUBACK(m) does not wait for m to be stored — only for
// everything before it — so a store that blocks on message 1 holds
// PUBACK(2) and never PUBACK(1); the reader runs one message ahead and
// no further; and QoS 0 messages, never acknowledged themselves, are
// covered by the next PUBACK like any other.
func TestAckContractBlockedStoreHoldsNextPuback(t *testing.T) {
	var mu sync.Mutex
	var received, stored []string
	release := map[string]chan struct{}{"/m1": make(chan struct{}), "/m2": make(chan struct{})}
	b := NewReceiverBroker(func(topic string, _ []byte) func() {
		mu.Lock()
		received = append(received, topic)
		mu.Unlock()
		return func() {
			if ch := release[topic]; ch != nil {
				<-ch
			}
			mu.Lock()
			stored = append(stored, topic)
			mu.Unlock()
		}
	})
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	snapshot := func() (r, s []string) {
		mu.Lock()
		defer mu.Unlock()
		return append(r, received...), append(s, stored...)
	}
	waitReceived := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			if r, _ := snapshot(); len(r) >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("broker received fewer than %d messages", n)
			}
		}
	}

	rc := dialRaw(t, b.Addr())
	qos1 := func(id uint16, topic string) *Packet {
		return &Packet{Type: PUBLISH, Flags: 1 << 1, ID: id, Topic: topic}
	}
	// Message 1 has nothing before it: acknowledged at once, although
	// its store is blocked.
	rc.send(qos1(1, "/m1"))
	if p := rc.next(2 * time.Second); p == nil || p.Type != PUBACK || p.ID != 1 {
		t.Fatalf("PUBACK(1) must not wait for message 1 to be stored; got %+v", p)
	}
	// Message 2 is received while 1 is being stored, but not
	// acknowledged; message 3 is not even received (one ahead, no more).
	rc.send(qos1(2, "/m2"))
	rc.send(qos1(3, "/m3"))
	waitReceived(2)
	if p := rc.next(100 * time.Millisecond); p != nil {
		t.Fatalf("%v(%d) sent while message 1 was not stored", p.Type, p.ID)
	}
	if r, s := snapshot(); len(r) != 2 || len(s) != 0 {
		t.Fatalf("with message 1 blocked: received %v, stored %v; want two received, none stored", r, s)
	}
	// Storing 1 releases PUBACK(2) — and only that: 2 is now blocked.
	close(release["/m1"])
	if p := rc.next(2 * time.Second); p == nil || p.Type != PUBACK || p.ID != 2 {
		t.Fatalf("want PUBACK(2) once message 1 is stored; got %+v", p)
	}
	if _, s := snapshot(); len(s) != 1 || s[0] != "/m1" {
		t.Fatalf("PUBACK(2) arrived with %v stored, want exactly /m1", s)
	}
	waitReceived(3)
	if p := rc.next(100 * time.Millisecond); p != nil {
		t.Fatalf("%v(%d) sent while message 2 was not stored", p.Type, p.ID)
	}
	close(release["/m2"])
	if p := rc.next(2 * time.Second); p == nil || p.Type != PUBACK || p.ID != 3 {
		t.Fatalf("want PUBACK(3) once message 2 is stored; got %+v", p)
	}
	// A QoS 0 message gets no answer of its own; the PUBACK after it
	// proves it stored.
	rc.send(&Packet{Type: PUBLISH, Topic: "/m4"})
	rc.send(qos1(5, "/m5"))
	if p := rc.next(2 * time.Second); p == nil || p.Type != PUBACK || p.ID != 5 {
		t.Fatalf("want PUBACK(5); got %+v", p)
	}
	if _, s := snapshot(); len(s) < 4 || s[3] != "/m4" {
		t.Fatalf("PUBACK(5) arrived with %v stored, want /m1../m4 first, in order", s)
	}
}

// TestFanoutWithoutSubscribersSkipsTheLock: the publish path must not take the
// broker-wide mutex — a PUBLISH is handled and acknowledged while the
// test holds it.
func TestFanoutWithoutSubscribersSkipsTheLock(t *testing.T) {
	handled := make(chan string, 1)
	b := NewBroker(func(topic string, _ []byte) { handled <- topic })
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pub, err := Dial(b.Addr(), DialOptions{ClientID: "p"})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	b.mu.Lock()
	acked := make(chan error, 1)
	go func() { acked <- pub.Publish("/t", []byte("x"), 1) }()
	select {
	case err := <-acked:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(2 * time.Second):
		t.Error("a PUBLISH waited for the broker-wide mutex")
	}
	b.mu.Unlock()
	if got := <-handled; got != "/t" {
		t.Fatalf("handled %q", got)
	}
}

// TestSubscribeRefused: the broker is publish-only. A SUBSCRIBE or an
// UNSUBSCRIBE fails to decode and closes its connection unanswered,
// and another connection's QoS 1 PUBLISH is still acknowledged.
func TestSubscribeRefused(t *testing.T) {
	b := NewBroker(nil)
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, tc := range []struct {
		name   string
		packet []byte
	}{
		// Packet ID 1, filter "/a/#", requested QoS 0.
		{"SUBSCRIBE", []byte{0x82, 9, 0, 1, 0, 4, '/', 'a', '/', '#', 0}},
		// Packet ID 2, filter "/a/#".
		{"UNSUBSCRIBE", []byte{0xa2, 8, 0, 2, 0, 4, '/', 'a', '/', '#'}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub, pub := dialRaw(t, b.Addr()), dialRaw(t, b.Addr())
			if _, err := sub.c.Write(tc.packet); err != nil {
				t.Fatal(err)
			}
			sub.c.SetReadDeadline(time.Now().Add(2 * time.Second))
			p, err := ReadPacket(sub.r)
			if err == nil {
				t.Fatalf("%s answered with %v, want its connection closed", tc.name, p.Type)
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("%s left its connection open", tc.name)
			}
			pub.send(&Packet{Type: PUBLISH, Flags: 1 << 1, ID: 1, Topic: "/a/b"})
			if p := pub.next(2 * time.Second); p == nil || p.Type != PUBACK || p.ID != 1 {
				t.Fatalf("PUBLISH on another connection after a %s: got %+v, want PUBACK(1)", tc.name, p)
			}
		})
	}
}

// TestReadPacketDeclaredLengthIsNotAllocated: a PUBLISH header that
// declares the largest remaining length and is followed by nothing
// must not make the broker allocate what it declared.
func TestReadPacketDeclaredLengthIsNotAllocated(t *testing.T) {
	b := NewBroker(nil)
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rc := dialRaw(t, b.Addr())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	header := appendVarint([]byte{byte(PUBLISH) << 4}, maxRemainingLength)
	if _, err := rc.c.Write(header); err != nil {
		t.Fatal(err)
	}
	if err := rc.c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The broker closes its side once it has given up on the body.
	rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, rc.c); err != nil {
		t.Fatalf("broker did not close the connection: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("a %d-byte header declaring %d bytes made the broker allocate %d bytes", len(header), maxRemainingLength, grew)
	}
}
