package mqtt

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"dcdb/internal/timers"
)

// Client is an MQTT 3.1.1 client tailored to DCDB's Pushers: it
// publishes sensor readings at QoS 0 or 1 and never subscribes, as the
// broker takes no subscriptions (see the package comment). The client
// is safe for concurrent use; QoS-1 publishes block until the matching
// PUBACK.
type Client struct {
	conn net.Conn
	r    *bufio.Reader

	writeMu sync.Mutex  // serialises WritePacket
	idle    timers.Idle // the timeout timer its PUBACK waits reuse

	mu      sync.Mutex
	nextID  uint16
	acks    map[uint16]chan struct{}
	closed  bool
	done    chan struct{}
	readErr error
}

// DialOptions configure Dial.
type DialOptions struct {
	// ClientID identifies the session; a random-ish default is derived
	// from the local address when empty.
	ClientID string
	// KeepAlive is advertised to the broker (seconds granularity);
	// defaults to 60 s. The client sends PINGREQ at half this interval.
	KeepAlive time.Duration
	// Timeout bounds the TCP connect and CONNACK wait; defaults to 10 s.
	Timeout time.Duration
}

// Dial connects and performs the MQTT handshake.
func Dial(addr string, opts DialOptions) (*Client, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	if opts.KeepAlive <= 0 {
		opts.KeepAlive = 60 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, opts.Timeout)
	if err != nil {
		return nil, fmt.Errorf("mqtt: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:   conn,
		r:      bufio.NewReaderSize(conn, 1<<16),
		acks:   make(map[uint16]chan struct{}),
		nextID: 1,
		done:   make(chan struct{}),
	}
	id := opts.ClientID
	if id == "" {
		id = "dcdb-" + conn.LocalAddr().String()
	}
	connect := &Packet{
		Type:         CONNECT,
		ClientID:     id,
		KeepAlive:    uint16(opts.KeepAlive / time.Second),
		CleanSession: true,
	}
	if err := c.write(connect); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(opts.Timeout))
	ack, err := ReadPacket(c.r)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("mqtt: waiting for CONNACK: %w", err)
	}
	if ack.Type != CONNACK || ack.ReturnCode != ConnAccepted {
		conn.Close()
		return nil, fmt.Errorf("mqtt: connection refused (type %v, code %d)", ack.Type, ack.ReturnCode)
	}
	go c.readLoop()
	go c.pingLoop(opts.KeepAlive / 2)
	return c, nil
}

func (c *Client) write(p *Packet) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WritePacket(c.conn, p)
}

// ackTimeout bounds the wait for a PUBACK.
const ackTimeout = 30 * time.Second

// Publish sends a message at the given QoS (0 or 1). QoS 1 blocks until
// the broker acknowledges — which, from this package's Broker, means
// the message was received and every earlier message of this client is
// stored (see Broker).
func (c *Client) Publish(topic string, payload []byte, qos byte) error {
	if qos > 1 {
		return fmt.Errorf("mqtt: QoS %d not supported", qos)
	}
	p := &Packet{Type: PUBLISH, Flags: qos << 1, Topic: topic, Payload: payload}
	if qos == 0 {
		return c.write(p)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("mqtt: client closed")
	}
	id := c.nextID
	c.nextID++
	if c.nextID == 0 {
		c.nextID = 1
	}
	ch := make(chan struct{})
	c.acks[id] = ch
	c.mu.Unlock()
	p.ID = id
	if err := c.write(p); err != nil {
		c.mu.Lock()
		delete(c.acks, id)
		c.mu.Unlock()
		return err
	}
	timeout := c.idle.Get(ackTimeout)
	defer c.idle.Put(timeout)
	select {
	case <-ch:
		return nil
	case <-c.done:
		return fmt.Errorf("mqtt: connection lost waiting for PUBACK: %v", c.Err())
	case <-timeout.C:
		return fmt.Errorf("mqtt: PUBACK timeout for packet %d", id)
	}
}

// Err returns the terminal read error after the connection ends.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// Close sends DISCONNECT and tears the connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.write(&Packet{Type: DISCONNECT})
	err := c.conn.Close()
	return err
}

func (c *Client) readLoop() {
	defer close(c.done)
	for {
		p, err := ReadPacket(c.r)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			c.mu.Unlock()
			return
		}
		if p.Type == PUBACK {
			c.mu.Lock()
			if ch, ok := c.acks[p.ID]; ok {
				close(ch)
				delete(c.acks, p.ID)
			}
			c.mu.Unlock()
		}
	}
}

func (c *Client) pingLoop(interval time.Duration) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			if err := c.write(&Packet{Type: PINGREQ}); err != nil {
				return
			}
		}
	}
}
