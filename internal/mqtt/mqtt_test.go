package mqtt

import (
	"bufio"
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func roundtrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePacket(&buf, p); err != nil {
		t.Fatalf("WritePacket(%v): %v", p.Type, err)
	}
	got, err := ReadPacket(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadPacket(%v): %v", p.Type, err)
	}
	return got
}

func TestPacketRoundtrips(t *testing.T) {
	conn := roundtrip(t, &Packet{Type: CONNECT, ClientID: "pusher-01", KeepAlive: 60, CleanSession: true})
	if conn.ClientID != "pusher-01" || conn.KeepAlive != 60 || !conn.CleanSession {
		t.Errorf("CONNECT = %+v", conn)
	}
	ack := roundtrip(t, &Packet{Type: CONNACK, ReturnCode: ConnAccepted, SessionPresent: true})
	if ack.ReturnCode != ConnAccepted || !ack.SessionPresent {
		t.Errorf("CONNACK = %+v", ack)
	}
	pub := roundtrip(t, &Packet{Type: PUBLISH, Topic: "/a/b", Payload: []byte("hi")})
	if pub.Topic != "/a/b" || string(pub.Payload) != "hi" || pub.PublishQoS() != 0 {
		t.Errorf("PUBLISH = %+v", pub)
	}
	pub1 := roundtrip(t, &Packet{Type: PUBLISH, Flags: 1 << 1, ID: 7, Topic: "/q", Payload: []byte{1, 2, 3}})
	if pub1.PublishQoS() != 1 || pub1.ID != 7 {
		t.Errorf("PUBLISH qos1 = %+v", pub1)
	}
	puback := roundtrip(t, &Packet{Type: PUBACK, ID: 9})
	if puback.ID != 9 {
		t.Errorf("PUBACK = %+v", puback)
	}
	for _, typ := range []PacketType{PINGREQ, PINGRESP, DISCONNECT} {
		p := &Packet{Type: typ, ID: 5}
		got := roundtrip(t, p)
		if got.Type != typ {
			t.Errorf("%v roundtrip = %v", typ, got.Type)
		}
	}
}

// FuzzReadPacket: the decoder never panics, and a packet it accepts
// re-encodes to bytes that decode to the same packet.
func FuzzReadPacket(f *testing.F) {
	for _, p := range []*Packet{
		{Type: CONNECT, ClientID: "pusher-01", KeepAlive: 60, CleanSession: true},
		{Type: CONNACK, ReturnCode: ConnAccepted, SessionPresent: true},
		{Type: PUBLISH, Topic: "/a/b", Payload: []byte("hi")},
		{Type: PUBLISH, Flags: 1 << 1, ID: 7, Topic: "/q", Payload: make([]byte, 16)},
		{Type: PUBACK, ID: 9},
		{Type: PINGREQ},
		{Type: PINGRESP},
		{Type: DISCONNECT},
	} {
		var buf bytes.Buffer
		if err := WritePacket(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{byte(PUBLISH) << 4, 0x80})                   // torn header: the length goes on
	f.Add([]byte{byte(PUBLISH) << 4, 0xff, 0xff, 0xff, 0x7f}) // a 4-byte length, no body
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPacket(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePacket(&buf, p); err != nil {
			t.Fatalf("accepted %+v does not re-encode: %v", p, err)
		}
		again, err := ReadPacket(bufio.NewReader(&buf))
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("accepted %+v, re-encoded it decodes to %+v, %v", p, again, err)
		}
	})
}

func TestPacketTypeString(t *testing.T) {
	names := map[PacketType]string{
		CONNECT: "CONNECT", CONNACK: "CONNACK", PUBLISH: "PUBLISH",
		PUBACK: "PUBACK", PINGREQ: "PINGREQ", PINGRESP: "PINGRESP", DISCONNECT: "DISCONNECT",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d.String() = %q", typ, typ.String())
		}
	}
	if PacketType(0).String() == "" {
		t.Error("unknown type String empty")
	}
}

func TestVarint(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 2097151, 2097152, maxRemainingLength} {
		b := appendVarint(nil, n)
		got, err := readVarint(bufio.NewReader(bytes.NewReader(b)))
		if err != nil || got != n {
			t.Errorf("varint(%d) = %d, %v", n, got, err)
		}
	}
	// 5-byte varint rejected.
	if _, err := readVarint(bufio.NewReader(bytes.NewReader([]byte{0x80, 0x80, 0x80, 0x80, 1}))); err == nil {
		t.Error("oversized varint accepted")
	}
}

func TestPublishPayloadRoundtripQuick(t *testing.T) {
	f := func(topic string, payload []byte) bool {
		if len(topic) > 1000 || len(payload) > 100000 {
			return true
		}
		p := &Packet{Type: PUBLISH, Topic: topic, Payload: payload}
		var buf bytes.Buffer
		if err := WritePacket(&buf, p); err != nil {
			return false
		}
		got, err := ReadPacket(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return got.Topic == topic && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBrokerPublishToHandler(t *testing.T) {
	var got atomic.Int64
	var mu sync.Mutex
	topics := map[string][]byte{}
	b := NewBroker(func(topic string, payload []byte) {
		mu.Lock()
		topics[topic] = append([]byte(nil), payload...)
		mu.Unlock()
		got.Add(1)
	})
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c, err := Dial(b.Addr(), DialOptions{ClientID: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish("/x/y", []byte("v0"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("/x/z", []byte("v1"), 1); err != nil {
		t.Fatal(err)
	}
	// QoS-1 publish is acknowledged, so the handler must have seen both
	// (handler runs before PUBACK for the second message; wait for the
	// first briefly).
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if string(topics["/x/y"]) != "v0" || string(topics["/x/z"]) != "v1" {
		t.Fatalf("handler saw %v", topics)
	}
	pubs, bytesIn := b.Stats()
	if pubs != 2 || bytesIn != 4 {
		t.Errorf("Stats = %d, %d", pubs, bytesIn)
	}
}

func TestClientManyConcurrentPublishes(t *testing.T) {
	var count atomic.Int64
	b := NewBroker(func(string, []byte) { count.Add(1) })
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := Dial(b.Addr(), DialOptions{ClientID: "many"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Publish("/c", []byte("x"), 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if count.Load() != n {
		t.Fatalf("handler saw %d of %d", count.Load(), n)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", DialOptions{Timeout: 200 * time.Millisecond}); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestClientPublishInvalidQoS(t *testing.T) {
	b := NewBroker(nil)
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := Dial(b.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish("/t", nil, 2); err == nil {
		t.Error("QoS 2 accepted")
	}
}

func TestBrokerCloseUnblocksClients(t *testing.T) {
	b := NewBroker(nil)
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(b.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	select {
	case <-c.done:
	case <-time.After(2 * time.Second):
		t.Fatal("client did not observe broker close")
	}
	c.Close()
}

func TestClientErrAfterBrokerClose(t *testing.T) {
	b := NewBroker(nil)
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(b.Addr(), DialOptions{ClientID: "errcheck"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Err() != nil {
		t.Fatalf("Err before close: %v", c.Err())
	}
	b.Close()
	deadline := time.Now().Add(2 * time.Second)
	for c.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Err() == nil {
		t.Fatal("Err still nil after the broker closed the connection")
	}
}
