// Package ipmi simulates a board management controller (BMC) reachable
// over an IPMI-over-LAN-style protocol, the out-of-band data source the
// paper's IPMI plugin samples (§3.1). Real BMCs are unavailable here,
// so the simulator speaks a compact binary request/response protocol
// over TCP that preserves the plugin-relevant behaviour: per-sensor
// reads by name and a network round-trip per query.
//
// Wire format (all big-endian):
//
//	request : cmd u8 | nameLen u16 | name bytes
//	response: status u8 | payload
//
// Commands: 1 = get sensor reading (payload f64).
package ipmi

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

// Command and status codes.
const (
	CmdGetReading = 1

	StatusOK            = 0
	StatusUnknownSensor = 1
	StatusBadRequest    = 2
)

// SensorFunc produces the current value of a simulated BMC sensor.
type SensorFunc func(at time.Time) float64

// Server is a simulated BMC.
type Server struct {
	mu      sync.RWMutex
	sensors map[string]SensorFunc
	ln      net.Listener
}

// NewServer creates an empty BMC simulator.
func NewServer() *Server { return &Server{sensors: make(map[string]SensorFunc)} }

// AddSensor registers a sensor under its SDR name ("CPU1 Temp",
// "PSU1 Power", …).
func (s *Server) AddSensor(name string, f SensorFunc) {
	s.mu.Lock()
	s.sensors[name] = f
	s.mu.Unlock()
}

// Listen starts serving on addr (port 0 picks a free port).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("ipmi: listen: %w", err)
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

// Addr returns the server's address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server.
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
		var hdr [3]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		cmd := hdr[0]
		nameLen := binary.BigEndian.Uint16(hdr[1:])
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return
		}
		switch cmd {
		case CmdGetReading:
			s.mu.RLock()
			f, ok := s.sensors[string(name)]
			s.mu.RUnlock()
			if !ok {
				conn.Write([]byte{StatusUnknownSensor})
				continue
			}
			var resp [9]byte
			resp[0] = StatusOK
			binary.BigEndian.PutUint64(resp[1:], math.Float64bits(f(time.Now())))
			if _, err := conn.Write(resp[:]); err != nil {
				return
			}
		default:
			conn.Write([]byte{StatusBadRequest})
		}
	}
}

// Client is the plugin-side connection to a BMC.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a BMC.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("ipmi: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close drops the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) request(cmd byte, name string) error {
	buf := make([]byte, 3+len(name))
	buf[0] = cmd
	binary.BigEndian.PutUint16(buf[1:], uint16(len(name)))
	copy(buf[3:], name)
	_, err := c.conn.Write(buf)
	return err
}

// GetReading fetches one sensor value by SDR name.
func (c *Client) GetReading(name string) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.request(CmdGetReading, name); err != nil {
		return 0, err
	}
	status, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	if status != StatusOK {
		return 0, fmt.Errorf("ipmi: sensor %q: status %d", name, status)
	}
	var raw [8]byte
	if _, err := io.ReadFull(c.r, raw[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(raw[:])), nil
}
