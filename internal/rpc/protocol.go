// Package rpc carries the full storage-node API over TCP, which is
// what lets storage nodes run as separate processes from the Collect
// Agent (paper §4.3: Pushers forward to Collect Agents, which forward
// to a cluster of database server processes). The protocol is a
// length-prefixed, CRC-framed binary framing with request pipelining:
// any number of requests may be in flight on one connection, each
// carries an id, and responses are matched by id in whatever order the
// server finishes them.
//
// Frame (both directions, integers big-endian):
//
//	u32 payloadLen | u32 crc32(payload) | payload
//
// Request payload:
//
//	u64 reqID | u8 op | i64 timeout (nanos of budget left; 0 = none) | body
//
// The timeout is a *relative* budget, not a wall-clock deadline, so it
// survives clock skew between coordinator and storage hosts: the
// server anchors it to the frame's local arrival time and refuses to
// execute an op whose budget was exhausted while it queued.
//
// Response payload:
//
//	u64 reqID | u8 status | body
//	status 0 = ok (body is the op's result encoding)
//	status 1 = application error (body is the error string)
//
// Reads are streams: opQueryStream/opQueryPrefixStream answer with
// chunk frames (status 2) closed by an end frame (status 3), and
// Client.Query/QueryPrefix are a drain of them — a result is never
// materialised in one frame on either side, so its size is not bounded
// by frameMax. The one-frame read ops 4 and 5 that preceded the streams
// are retired; their numbers stay reserved.
//
// A frame whose CRC does not match its payload — a torn write, a
// corrupted link, a non-DCDB peer — poisons the connection: the reader
// closes it rather than guess at record boundaries, and the client
// re-establishes with backoff.
package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"dcdb/internal/core"
	"dcdb/internal/store"
)

// SplitAddrList parses a comma-separated host:port list the way every
// CLI flag should: entries are trimmed and empties dropped, so
// "a:1, b:2," and "a:1,b:2" name the same ring. Sharing this between
// the agent and the query tools matters — a phantom "" entry would
// silently shift every replica index.
func SplitAddrList(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// Ops of the node API. The numbering is part of the wire format.
// Numbers 4 and 5 (the retired one-frame Query and QueryPrefix) are
// reserved and never reused: a peer that still sends them gets the
// "rpc: unknown op" answer, not a different op's behaviour.
const (
	opPing         = 1
	opInsert       = 2
	opInsertBatch  = 3
	opDeleteBefore = 6
	opFlush        = 7
	opSync         = 8
	opCompact      = 9
	opStats        = 10
	opSensorIDs    = 11
	// opQueryStream / opQueryPrefixStream answer with a sequence of
	// chunk frames sharing the request id (see the status bytes below).
	opQueryStream       = 12
	opQueryPrefixStream = 13
	// opCancelStream carries the request id of an in-flight stream the
	// client abandoned; the server stops producing. No response frame.
	opCancelStream = 14
	// opAggregate pushes an analysis fold down to the node: the request
	// body is a fold.Spec (sid | spec), the response body one encoded
	// fold.State. The node folds its streaming read path, so a
	// month-long range answers with O(1) response bytes instead of
	// millions of readings.
	opAggregate = 15
	// opInsertVersioned / opQueryVersioned carry coordinator-assigned
	// write versions (store.VersionedReading, 32 bytes each on the
	// wire): the anti-entropy repair path re-delivers a write with the
	// version it was originally coordinated under, so a repair can never
	// outrank a later rewrite.
	opInsertVersioned = 16
	opQueryVersioned  = 17
	// opDigest answers with one fold fingerprint + reading count for a
	// sensor range — the O(1)-response comparison anti-entropy uses to
	// decide whether replicas have diverged before moving any data.
	opDigest = 18
	// opGossip carries one membership push-pull exchange: the request
	// body is the sender's encoded member state, the response the
	// receiver's (both sides merge — see internal/membership). The rpc
	// layer treats both as opaque bytes; a node without a registered
	// gossip handler answers with an application error.
	opGossip = 19

	// lastOp is the highest op number; the per-op metric arrays size off
	// it, so a new op must move it (TestEveryOpHasNameAndHistogram).
	lastOp = opGossip
)

// opName names an op for metric labels and diagnostics. Unknown ops
// (a newer peer) collapse into one label rather than growing the
// metric space unboundedly.
func opName(op byte) string {
	switch op {
	case opPing:
		return "ping"
	case opInsert:
		return "insert"
	case opInsertBatch:
		return "insert_batch"
	case opDeleteBefore:
		return "delete_before"
	case opFlush:
		return "flush"
	case opSync:
		return "sync"
	case opCompact:
		return "compact"
	case opStats:
		return "stats"
	case opSensorIDs:
		return "sensor_ids"
	case opQueryStream:
		return "query_stream"
	case opQueryPrefixStream:
		return "query_prefix_stream"
	case opCancelStream:
		return "cancel_stream"
	case opAggregate:
		return "aggregate"
	case opInsertVersioned:
		return "insert_versioned"
	case opQueryVersioned:
		return "query_versioned"
	case opDigest:
		return "digest"
	case opGossip:
		return "gossip"
	default:
		return "unknown"
	}
}

const (
	statusOK  = 0
	statusErr = 1
	// statusChunk is one continuation frame of a streaming response:
	//   u64 reqID | u8 statusChunk | u32 seq | body
	// seq counts from 0 per stream; a gap means frames were lost or
	// reordered and poisons the connection. For opQueryStream the body
	// is a readings block; for opQueryPrefixStream it is
	// sid | readings (a sensor may repeat across consecutive chunks).
	statusChunk = 2
	// statusStreamEnd terminates a stream successfully:
	//   u64 reqID | u8 statusStreamEnd | u32 seq
	statusStreamEnd = 3
	// A mid-stream failure arrives as a plain statusErr frame for the
	// stream's request id and terminates it.
)

// frameMax bounds a frame's payload so a corrupt or hostile length
// field cannot drive a huge allocation — enforced on BOTH decode
// paths: the server's read loop and the client's (a misbehaving or
// corrupt server must not drive the coordinator into a giant
// allocation either; see readFrame and the client's stream chunk
// bound). Large batches are chunked by the store layer well below
// this.
const frameMax = 1 << 28

// streamChunkMaxBytes bounds one stream chunk frame on the client
// decode path. The server chunks at store.StreamChunkReadings (~64
// KB); anything over this bound means the peer is not honouring the
// protocol and the connection is poisoned rather than trusted with
// large allocations.
const streamChunkMaxBytes = 1 << 20

// reqHeaderLen is the fixed prefix of a request payload.
const reqHeaderLen = 8 + 1 + 8

// respHeaderLen is the fixed prefix of a response payload.
const respHeaderLen = 8 + 1

var errFrameTooLarge = fmt.Errorf("rpc: frame exceeds %d bytes", frameMax)

// errBadCRC poisons a connection: framing can no longer be trusted.
var errBadCRC = fmt.Errorf("rpc: frame CRC mismatch")

// writeFrame frames payload onto w. The caller flushes.
func writeFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) > frameMax {
		return errFrameTooLarge
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one CRC-checked payload from r. The returned slice
// is freshly allocated and owned by the caller.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	plen := binary.BigEndian.Uint32(hdr[0:])
	crc := binary.BigEndian.Uint32(hdr[4:])
	if plen > frameMax {
		return nil, errFrameTooLarge
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, errBadCRC
	}
	return payload, nil
}

// --- body encoding helpers (append-style, big-endian) ---

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendI64(b []byte, v int64) []byte { return appendU64(b, uint64(v)) }

func appendSID(b []byte, id core.SensorID) []byte {
	b = appendU64(b, id.Hi)
	return appendU64(b, id.Lo)
}

func appendReadings(b []byte, rs []core.Reading) []byte {
	b = appendU32(b, uint32(len(rs)))
	for _, r := range rs {
		b = appendI64(b, r.Timestamp)
		b = appendU64(b, math.Float64bits(r.Value))
	}
	return b
}

// appendVersionedReadings encodes a count-prefixed run of 32-byte
// versioned readings: ts | value bits | version | absolute expire.
func appendVersionedReadings(b []byte, vrs []store.VersionedReading) []byte {
	b = appendU32(b, uint32(len(vrs)))
	for _, r := range vrs {
		b = appendI64(b, r.Timestamp)
		b = appendU64(b, math.Float64bits(r.Value))
		b = appendU64(b, r.Version)
		b = appendI64(b, r.Expire)
	}
	return b
}

// cursor is a bounds-checked sequential decoder over one payload.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) u8() byte {
	if c.err != nil || len(c.b)-c.off < 1 {
		c.fail()
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil || len(c.b)-c.off < 4 {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || len(c.b)-c.off < 8 {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) i64() int64 { return int64(c.u64()) }

func (c *cursor) sid() core.SensorID {
	return core.SensorID{Hi: c.u64(), Lo: c.u64()}
}

func (c *cursor) readings() []core.Reading {
	n := c.u32()
	if c.err != nil {
		return nil
	}
	// Each reading is 16 bytes; reject counts the payload cannot hold
	// before allocating.
	if uint64(n)*16 > uint64(len(c.b)-c.off) {
		c.fail()
		return nil
	}
	rs := make([]core.Reading, n)
	for i := range rs {
		rs[i] = core.Reading{Timestamp: c.i64(), Value: math.Float64frombits(c.u64())}
	}
	return rs
}

func (c *cursor) versionedReadings() []store.VersionedReading {
	n := c.u32()
	if c.err != nil {
		return nil
	}
	// 32 bytes per versioned reading; reject counts the payload cannot
	// hold before allocating.
	if uint64(n)*32 > uint64(len(c.b)-c.off) {
		c.fail()
		return nil
	}
	vrs := make([]store.VersionedReading, n)
	for i := range vrs {
		vrs[i] = store.VersionedReading{
			Timestamp: c.i64(),
			Value:     math.Float64frombits(c.u64()),
			Version:   c.u64(),
			Expire:    c.i64(),
		}
	}
	return vrs
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("rpc: truncated or malformed payload")
	}
}

// done errors unless the payload was consumed exactly.
func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("rpc: %d trailing bytes in payload", len(c.b)-c.off)
	}
	return nil
}
