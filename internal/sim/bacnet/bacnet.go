// Package bacnet simulates a building-automation controller speaking a
// BACnet/IP-style object/property protocol over TCP, the facility-side
// data source of the paper's BACnet plugin (§3.1). Objects are analog
// inputs identified by a 32-bit instance number; the plugin reads their
// Present_Value property.
//
// Wire format (big-endian):
//
//	request : 'B' | objectID u32 | propertyID u32
//	response: status u8 | f64 value
package bacnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// PropPresentValue is the BACnet Present_Value property identifier.
const PropPresentValue = 85

// Status codes.
const (
	StatusOK              = 0
	StatusUnknownObject   = 1
	StatusUnknownProperty = 2
	StatusBadRequest      = 3
)

// ObjectFunc produces the present value of an analog-input object.
type ObjectFunc func(at time.Time) float64

// Server simulates a BACnet device.
type Server struct {
	objects map[uint32]ObjectFunc
	ln      net.Listener
}

// NewServer creates a device serving the given analog-input instances;
// the server only reads the map.
func NewServer(objects map[uint32]ObjectFunc) *Server { return &Server{objects: objects} }

// Listen starts the device on addr.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("bacnet: listen: %w", err)
	}
	s.ln = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return nil
}

// Addr returns the device's address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the device.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	return s.ln.Close()
}

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	for {
		var req [9]byte
		if _, err := io.ReadFull(r, req[:]); err != nil {
			return
		}
		if req[0] != 'B' {
			conn.Write([]byte{StatusBadRequest})
			continue
		}
		obj := binary.BigEndian.Uint32(req[1:])
		prop := binary.BigEndian.Uint32(req[5:])
		if prop != PropPresentValue {
			conn.Write([]byte{StatusUnknownProperty})
			continue
		}
		f, ok := s.objects[obj]
		if !ok {
			conn.Write([]byte{StatusUnknownObject})
			continue
		}
		var resp [9]byte
		resp[0] = StatusOK
		binary.BigEndian.PutUint64(resp[1:], math.Float64bits(f(time.Now())))
		if _, err := conn.Write(resp[:]); err != nil {
			return
		}
	}
}

// Client reads properties from a BACnet device.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a device.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("bacnet: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close drops the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ReadProperty reads one property of an object.
func (c *Client) ReadProperty(object uint32, property uint32) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var req [9]byte
	req[0] = 'B'
	binary.BigEndian.PutUint32(req[1:], object)
	binary.BigEndian.PutUint32(req[5:], property)
	if _, err := c.conn.Write(req[:]); err != nil {
		return 0, err
	}
	status, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	if status != StatusOK {
		return 0, fmt.Errorf("bacnet: object %d property %d: status %d", object, property, status)
	}
	var raw [8]byte
	if _, err := io.ReadFull(c.r, raw[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(raw[:])), nil
}
