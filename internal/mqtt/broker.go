package mqtt

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
)

// Handler receives every PUBLISH the broker accepts. Collect Agents
// register one handler that forwards readings to the Storage Backend;
// this mirrors the custom MQTT implementation of the paper (§4.2), which
// has no topic filtering because the Storage Backend takes everything.
type Handler func(topic string, payload []byte)

// Receiver is a Handler in two halves, for a consumer that can overlap
// storing one message with reading the next. The broker calls it on the
// connection's goroutine, in arrival order; it does whatever must
// happen in that order and returns stored, which blocks until the
// message is stored (nil: it already is). The broker calls stored
// exactly once, after the stored of every earlier PUBLISH of the
// connection has returned.
type Receiver func(topic string, payload []byte) (stored func())

// Broker is a publish-only MQTT 3.1.1 broker: every PUBLISH goes to its
// one Receiver, and nothing is forwarded to clients. It answers
// CONNECT, PUBLISH, PINGREQ and DISCONNECT; a connection that sends a
// packet the codec does not read, such as SUBSCRIBE, is closed.
//
// What an acknowledgement means here. A connection's messages are
// received in order and stored in order. QoS 0 is never acknowledged.
// PUBACK(m), the answer to a QoS 1 PUBLISH m, is sent once every
// EARLIER PUBLISH of the same connection — of either QoS — is stored:
// it proves m was received and everything before it is readable at the
// backend's read consistency level; m itself is being stored while the
// client sends m+1 and is covered by the next PUBACK. A client that
// needs m itself stored waits for one more acknowledgement (any later
// QoS 1 PUBLISH, however small). "Stored" is the Handler having
// returned, or the Receiver's stored having returned; a message the
// consumer rejects (undecodable, unmappable, write failed) counts as
// settled — rejection is reported by the consumer's own error counters,
// not by withholding the PUBACK. At most two messages of a connection
// are in the consumer at once: the one being stored and the one being
// received.
type Broker struct {
	receive Receiver

	ln     net.Listener
	mu     sync.Mutex
	conns  map[*brokerConn]struct{}
	closed bool

	// Stats counters (atomic).
	published atomic.Int64
	bytesIn   atomic.Int64
}

// NewBroker creates a broker delivering PUBLISH packets to handler
// (which may be nil): the synchronous form of NewReceiverBroker — a
// message is stored when handler returns.
func NewBroker(handler Handler) *Broker {
	if handler == nil {
		return NewReceiverBroker(nil)
	}
	return NewReceiverBroker(func(topic string, payload []byte) func() {
		handler(topic, payload)
		return nil
	})
}

// NewReceiverBroker creates a broker delivering PUBLISH packets to
// receive (which may be nil).
func NewReceiverBroker(receive Receiver) *Broker {
	return &Broker{receive: receive, conns: make(map[*brokerConn]struct{})}
}

// Listen binds the broker to addr ("host:port"; port 0 picks a free
// port) and starts accepting connections.
func (b *Broker) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("mqtt: listen %s: %w", addr, err)
	}
	b.ln = ln
	go b.acceptLoop()
	return nil
}

// Addr returns the broker's bound address.
func (b *Broker) Addr() string {
	if b.ln == nil {
		return ""
	}
	return b.ln.Addr().String()
}

// Stats reports the number of PUBLISH packets and payload bytes
// received since start.
func (b *Broker) Stats() (published, payloadBytes int64) {
	return b.published.Load(), b.bytesIn.Load()
}

// Close stops accepting and drops all connections.
func (b *Broker) Close() error {
	b.mu.Lock()
	b.closed = true
	conns := make([]*brokerConn, 0, len(b.conns))
	for c := range b.conns {
		conns = append(conns, c)
	}
	b.mu.Unlock()
	var err error
	if b.ln != nil {
		err = b.ln.Close()
	}
	for _, c := range conns {
		c.conn.Close()
	}
	return err
}

func (b *Broker) acceptLoop() {
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return
		}
		bc := &brokerConn{broker: b, conn: conn, r: bufio.NewReaderSize(conn, 1<<16)}
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			conn.Close()
			return
		}
		b.conns[bc] = struct{}{}
		b.mu.Unlock()
		go bc.serve()
	}
}

type brokerConn struct {
	broker  *Broker
	conn    net.Conn
	r       *bufio.Reader
	writeMu sync.Mutex
}

func (c *brokerConn) write(p *Packet) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WritePacket(c.conn, p)
}

// inflight is a received PUBLISH on its way to the settler: what to
// acknowledge and what to wait for.
type inflight struct {
	qos1   bool
	id     uint16
	stored func()
}

// settle is the second goroutine of a connection: for each received
// PUBLISH, in order, it sends the PUBACK — every earlier message is
// stored by then, this loop waited for it — and then waits for the
// message itself. The hand-over channel is unbuffered, so the reader
// runs at most one message ahead.
func (c *brokerConn) settle(pipe <-chan inflight, done chan<- struct{}) {
	defer close(done)
	for m := range pipe {
		if m.qos1 {
			if err := c.write(&Packet{Type: PUBACK, ID: m.id}); err != nil {
				c.conn.Close() // the reader stops; what it handed over is still settled
			}
		}
		if m.stored != nil {
			m.stored()
		}
	}
}

func (c *brokerConn) serve() {
	pipe, settled := make(chan inflight), make(chan struct{})
	go c.settle(pipe, settled)
	defer func() {
		close(pipe)
		<-settled
		c.conn.Close()
		c.broker.mu.Lock()
		delete(c.broker.conns, c)
		c.broker.mu.Unlock()
	}()
	// First packet must be CONNECT.
	p, err := ReadPacket(c.r)
	if err != nil || p.Type != CONNECT {
		return
	}
	if err := c.write(&Packet{Type: CONNACK, ReturnCode: ConnAccepted}); err != nil {
		return
	}
	for {
		p, err := ReadPacket(c.r)
		if err != nil {
			return
		}
		switch p.Type {
		case PUBLISH:
			c.broker.published.Add(1)
			c.broker.bytesIn.Add(int64(len(p.Payload)))
			m := inflight{qos1: p.PublishQoS() == 1, id: p.ID}
			if r := c.broker.receive; r != nil {
				m.stored = r(p.Topic, p.Payload)
			}
			pipe <- m
		case PINGREQ:
			if err := c.write(&Packet{Type: PINGRESP}); err != nil {
				return
			}
		case DISCONNECT:
			return
		default:
			log.Printf("mqtt broker: dropping unexpected %v from %s", p.Type, c.conn.RemoteAddr())
		}
	}
}
