// Package mqtt implements the publish path of MQTT 3.1.1 that DCDB uses
// between Pushers and Collect Agents (paper §3.1, §4.2): a wire-format
// codec, a publishing client, and a broker.
//
// The codec reads CONNECT, CONNACK, PUBLISH (QoS 0/1), PUBACK, PINGREQ,
// PINGRESP and DISCONNECT, and nothing else: any other packet,
// SUBSCRIBE and UNSUBSCRIBE included, fails to decode and its
// connection is closed. The broker is publish-only because the paper's
// Collect Agent has one consumer, the Storage Backend, which takes
// every message (§4.2); there are no subscriptions, no fan-out and no
// topic-filter matching. Other consumers read the agent's sensor cache
// over REST (§5.3) or run as operators inside the agent.
//
// What the two QoS levels acknowledge (the Broker type has the full
// statement; TestAckContract* pin it): a QoS 0 PUBLISH is never
// acknowledged. The PUBACK of a QoS 1 PUBLISH m says that m was
// received and that every earlier PUBLISH of the same connection, of
// either QoS, is stored; m itself is stored while the client sends its
// next message, and the next PUBACK says so. The broker thus overlaps
// one message's store with the next one's arrival and never holds more
// than two messages of a connection.
package mqtt

import (
	"bufio"
	"fmt"
	"io"

	"dcdb/internal/wire"
)

// PacketType identifies an MQTT control packet.
type PacketType byte

// MQTT 3.1.1 control packet types.
const (
	CONNECT    PacketType = 1
	CONNACK    PacketType = 2
	PUBLISH    PacketType = 3
	PUBACK     PacketType = 4
	PINGREQ    PacketType = 12
	PINGRESP   PacketType = 13
	DISCONNECT PacketType = 14
)

// String returns the packet type mnemonic.
func (t PacketType) String() string {
	switch t {
	case CONNECT:
		return "CONNECT"
	case CONNACK:
		return "CONNACK"
	case PUBLISH:
		return "PUBLISH"
	case PUBACK:
		return "PUBACK"
	case PINGREQ:
		return "PINGREQ"
	case PINGRESP:
		return "PINGRESP"
	case DISCONNECT:
		return "DISCONNECT"
	}
	return fmt.Sprintf("PacketType(%d)", byte(t))
}

// Packet is a decoded MQTT control packet. Fields are used according to
// the packet type.
type Packet struct {
	Type PacketType
	// Flags are the lower four bits of the fixed header. For PUBLISH
	// they encode DUP/QoS/RETAIN.
	Flags byte
	// ID is the packet identifier (PUBLISH QoS>0, PUBACK).
	ID uint16
	// Topic is the PUBLISH topic name.
	Topic string
	// Payload is the PUBLISH application payload.
	Payload []byte
	// ClientID is the CONNECT client identifier.
	ClientID string
	// KeepAlive is the CONNECT keep-alive interval in seconds.
	KeepAlive uint16
	// CleanSession is the CONNECT clean-session flag.
	CleanSession bool
	// ReturnCode is the CONNACK return code.
	ReturnCode byte
	// SessionPresent is the CONNACK session-present flag.
	SessionPresent bool
}

// PublishQoS extracts the QoS level of a PUBLISH packet.
func (p *Packet) PublishQoS() byte { return (p.Flags >> 1) & 0x3 }

// maxRemainingLength is the largest payload MQTT's 4-byte varint allows.
const maxRemainingLength = 268435455

// protocolName and protocolLevel identify MQTT 3.1.1 in CONNECT.
const (
	protocolName  = "MQTT"
	protocolLevel = 4
)

// CONNACK return codes.
const (
	ConnAccepted          = 0
	ConnRefusedProtocol   = 1
	ConnRefusedIdentifier = 2
)

// maxFixedHeader is the longest fixed header: the type/flags byte and a
// four-byte remaining length.
const maxFixedHeader = 5

// WritePacket encodes a packet onto w with a single Write: on a bare
// net.Conn that is one syscall and one TCP segment per packet, a
// four-byte PUBACK included. The body is built behind room for the
// longest fixed header, which is then written right-aligned in front
// of it.
func WritePacket(w io.Writer, p *Packet) error {
	size := maxFixedHeader + 2
	if p.Type == PUBLISH {
		size += 2 + len(p.Topic) + len(p.Payload)
	}
	body := make([]byte, maxFixedHeader, size)
	switch p.Type {
	case CONNECT:
		body = appendString(body, protocolName)
		body = append(body, protocolLevel)
		var flags byte
		if p.CleanSession {
			flags |= 0x02
		}
		body = append(body, flags)
		body = appendUint16(body, p.KeepAlive)
		body = appendString(body, p.ClientID)
	case CONNACK:
		var sp byte
		if p.SessionPresent {
			sp = 1
		}
		body = append(body, sp, p.ReturnCode)
	case PUBLISH:
		body = appendString(body, p.Topic)
		if p.PublishQoS() > 0 {
			body = appendUint16(body, p.ID)
		}
		body = append(body, p.Payload...)
	case PUBACK:
		body = appendUint16(body, p.ID)
	case PINGREQ, PINGRESP, DISCONNECT:
		// No variable header or payload.
	default:
		return fmt.Errorf("mqtt: cannot encode packet type %v", p.Type)
	}
	n := len(body) - maxFixedHeader
	if n > maxRemainingLength {
		return fmt.Errorf("mqtt: packet too large (%d bytes)", n)
	}
	var hdr [maxFixedHeader]byte
	header := appendVarint(append(hdr[:0], byte(p.Type)<<4|p.Flags&0x0f), n)
	start := maxFixedHeader - len(header)
	copy(body[start:], header)
	_, err := w.Write(body[start:])
	return err
}

// ReadPacket decodes the next packet from r. Its body buffer grows only
// as the bytes arrive, whatever remaining length the header declares.
func ReadPacket(r *bufio.Reader) (*Packet, error) {
	first, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	p := &Packet{Type: PacketType(first >> 4), Flags: first & 0x0f}
	n, err := readVarint(r)
	if err != nil {
		return nil, fmt.Errorf("mqtt: bad remaining length: %w", err)
	}
	body, err := wire.ReadBody(r, n)
	if err != nil {
		return nil, err
	}
	d := decoder{buf: body}
	switch p.Type {
	case CONNECT:
		proto, err := d.string()
		if err != nil {
			return nil, err
		}
		level, err := d.byte()
		if err != nil {
			return nil, err
		}
		if proto != protocolName || level != protocolLevel {
			return nil, fmt.Errorf("mqtt: unsupported protocol %q level %d", proto, level)
		}
		flags, err := d.byte()
		if err != nil {
			return nil, err
		}
		p.CleanSession = flags&0x02 != 0
		if flags&0xfc != 0 {
			return nil, fmt.Errorf("mqtt: CONNECT with will/auth flags not supported")
		}
		if p.KeepAlive, err = d.uint16(); err != nil {
			return nil, err
		}
		if p.ClientID, err = d.string(); err != nil {
			return nil, err
		}
	case CONNACK:
		sp, err := d.byte()
		if err != nil {
			return nil, err
		}
		p.SessionPresent = sp&1 != 0
		if p.ReturnCode, err = d.byte(); err != nil {
			return nil, err
		}
	case PUBLISH:
		if p.Topic, err = d.string(); err != nil {
			return nil, err
		}
		if p.PublishQoS() > 0 {
			if p.ID, err = d.uint16(); err != nil {
				return nil, err
			}
		}
		p.Payload = d.rest()
	case PUBACK:
		if p.ID, err = d.uint16(); err != nil {
			return nil, err
		}
	case PINGREQ, PINGRESP, DISCONNECT:
		// Nothing to decode.
	default:
		return nil, fmt.Errorf("mqtt: unsupported packet type %v", p.Type)
	}
	return p, nil
}

// decoder walks an MQTT variable header/payload.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) byte() (byte, error) {
	if d.remaining() < 1 {
		return 0, io.ErrUnexpectedEOF
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) uint16() (uint16, error) {
	if d.remaining() < 2 {
		return 0, io.ErrUnexpectedEOF
	}
	v := uint16(d.buf[d.off])<<8 | uint16(d.buf[d.off+1])
	d.off += 2
	return v, nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uint16()
	if err != nil {
		return "", err
	}
	if d.remaining() < int(n) {
		return "", io.ErrUnexpectedEOF
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) rest() []byte {
	r := d.buf[d.off:]
	d.off = len(d.buf)
	return r
}

func appendUint16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func appendString(b []byte, s string) []byte {
	b = appendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendVarint(b []byte, n int) []byte {
	for {
		d := byte(n % 128)
		n /= 128
		if n > 0 {
			d |= 0x80
		}
		b = append(b, d)
		if n == 0 {
			return b
		}
	}
}

func readVarint(r *bufio.Reader) (int, error) {
	var n, shift int
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		n |= int(b&0x7f) << shift
		if b&0x80 == 0 {
			return n, nil
		}
		shift += 7
	}
	return 0, fmt.Errorf("varint longer than 4 bytes")
}
