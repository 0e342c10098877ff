// Package rpc carries the full storage-node API over TCP, which is
// what lets storage nodes run as separate processes from the Collect
// Agent (paper §4.3: Pushers forward to Collect Agents, which forward
// to a cluster of database server processes). The protocol is a
// length-prefixed, CRC-framed binary framing with request pipelining:
// any number of requests may be in flight on one connection, each
// carries an id, and responses are matched by id. The server answers a
// connection's write frames in arrival order on its read loop and every
// other request in whatever order it finishes.
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
//	statuses 2 and 3 (the chunk and end frames of pushed streams) are
//	retired and stay reserved
//
// A write travels one way, as a write frame (opWrite, op 24). Its body
// is write entries back to back, each one coordinated write of one
// sensor — a message's readings under the single stamp the coordinator
// gave them — in the store's entry encoding (store.AppendEntries,
// store.DecodeEntries), the encoding a node's WAL record and a
// coordinator's hint file hold too: the frame's length ends the
// entries, a reading costs 16 bytes and its stamp is sent once per
// message. Entries of different sensors, of different messages, share
// a frame: a coordinator sends whatever queued for the node while its
// previous frame was in flight (store/cluster_write.go). The node
// applies a frame whole or not at all and answers like any other op:
// status ok with an empty body, or an application error that refuses
// every entry of the frame. Op 21 was the write whose reply listed the
// entries that failed; an agent and a node on either side of that
// change cannot write to each other (each gets "rpc: unknown op").
//
// Client.InsertBatch and InsertVersioned both encode entries — version
// 0 for the first, one entry per run of equal stamps for a repair or
// hint batch — and a frame that would exceed frameMax is cut by
// store.CutEntries, which splits an entry too large for any frame into
// consecutive entries of its stamp.
//
// Reads are streams, and a stream is a sequence of calls on one
// connection. An open op (opQueryStream, opQueryPrefixStream,
// opQueryVersionedStream) answers with the first chunk; every later
// chunk answers one opStreamNext call naming the stream by its open
// call's request id. The node keeps the stream's cursor in the
// connection's table and reads one chunk ahead, so each reply says
// whether more follows:
//
//	u8 more | chunk (absent when the result is empty)
//
// The client keeps one opStreamNext in flight ahead of its consumer,
// never two, and Client.Query is a drain of its stream (a prefix read
// is only ever a stream) — a result is never materialised in one frame
// on either side, so its
// size is not bounded by frameMax, and a result of at most one chunk
// costs one response frame. The node sends a chunk only when asked, so
// a stream its consumer stops reading holds back nothing else on its
// connection. A connection holds at most maxInFlight open streams; an
// open beyond that is refused. A versioned chunk's body is entries in
// the one entry encoding, so a replica transfer reads what a write
// frame carries.
//
// The fifteen ops (numbers are the wire format; 2, 3, 4, 5, 16, 17, 18,
// 20 and 21 — the one-reading, one-batch and per-reading-stamped
// inserts, the one-frame Query and QueryPrefix, the one-frame versioned
// read and the digest, the write frame whose body led with an entry
// count and the write answered per entry — are retired and stay
// reserved):
//
//	1 ping            10 stats                15 aggregate
//	6 delete_before   11 sensor_ids           19 gossip
//	7 flush           12 query_stream         22 query_versioned_stream
//	8 sync            13 query_prefix_stream  23 stream_next
//	9 compact         14 cancel_stream        24 write
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
	"dcdb/internal/wire"
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
// Numbers 2, 3 and 16 (the retired opInsert, opInsertBatch and
// opInsertVersioned), 4 and 5 (the retired one-frame Query and
// QueryPrefix), 17 and 18 (the retired one-frame QueryVersioned, which
// failed above frameMax, and Digest, which Aggregate of an OpSummary
// answers), 20 (the write frame whose body led with an entry count)
// and 21 (the write answered with a list of failed entries) are
// reserved and never reused: a peer that still sends them gets the
// "rpc: unknown op" answer, not a different op's behaviour — never a
// count misread as a sensor ID, never a per-entry reply misread as a
// plain one.
const (
	opPing         = 1
	opDeleteBefore = 6
	opFlush        = 7
	opSync         = 8
	opCompact      = 9
	opStats        = 10
	opSensorIDs    = 11
	// opQueryStream / opQueryPrefixStream open a stream and answer with
	// its first chunk (see the package comment). For opQueryStream a
	// chunk is a readings block; for opQueryPrefixStream it is
	// sid | readings (a sensor may repeat across consecutive chunks).
	opQueryStream       = 12
	opQueryPrefixStream = 13
	// opCancelStream carries the id of a stream the client abandoned;
	// the node closes its cursor. No response frame.
	opCancelStream = 14
	// opAggregate pushes an analysis fold down to the node: the request
	// body is a fold.Spec (sid | spec), the response body one encoded
	// fold.State. The node folds its streaming read path, so a
	// month-long range answers with O(1) response bytes instead of
	// millions of readings.
	opAggregate = 15
	// opGossip carries one membership push-pull exchange: the request
	// body is the sender's encoded member state, the response the
	// receiver's (both sides merge — see internal/membership). The rpc
	// layer treats both as opaque bytes; a node without a registered
	// gossip handler answers with an application error.
	opGossip = 19
	// opQueryVersionedStream streams a sensor's winning readings with the
	// stamp each winning write carried (store.QueryVersionedStream): the
	// chunk body is entries (store.AppendEntries of store.SplitStamps):
	// 32 bytes a reading where every reading has a stamp of its own, as
	// little as 16 where a run of readings shares one, 40 at worst.
	opQueryVersionedStream = 22
	// opStreamNext asks for an open stream's next chunk: the body is the
	// stream's id (u64), the reply one chunk like an open's.
	opStreamNext = 23
	// opWrite is the one write op: a frame of entries (see the package
	// comment), applied whole or not at all and answered with the plain
	// status every op has.
	opWrite = 24

	// lastOp is the highest op number; the per-op metric arrays size off
	// it, so a new op must move it (TestEveryOpHasNameAndHistogram).
	lastOp = opWrite
)

// opName names an op for metric labels and diagnostics. Unknown ops
// (a newer peer) collapse into one label rather than growing the
// metric space unboundedly.
func opName(op byte) string {
	switch op {
	case opPing:
		return "ping"
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
	case opGossip:
		return "gossip"
	case opWrite:
		return "write"
	case opQueryVersionedStream:
		return "query_versioned_stream"
	case opStreamNext:
		return "stream_next"
	default:
		return "unknown"
	}
}

// Response statuses (2 and 3 are reserved; see the package comment).
const (
	statusOK  = 0
	statusErr = 1
)

// frameMax bounds a frame's payload so a corrupt or hostile length
// field cannot drive a huge allocation — enforced on BOTH decode
// paths: the server's read loop and the client's (a misbehaving or
// corrupt server must not drive the coordinator into a giant
// allocation either; see readFrame and the client's stream chunk
// bound). Large batches are chunked by the store layer well below
// this.
const frameMax = 1 << 28

// streamChunkMaxBytes bounds one stream reply on the client decode
// path. The server chunks at store.StreamChunkReadings (~64 KB);
// anything over this bound means the peer is not honouring the
// protocol and the connection is poisoned rather than trusted with
// large allocations.
const streamChunkMaxBytes = 1 << 20

// reqHeaderLen is the fixed prefix of a request payload.
const reqHeaderLen = 8 + 1 + 8

// respHeaderLen is the fixed prefix of a response payload.
const respHeaderLen = 8 + 1

// chunkHeaderLen is the fixed prefix of a stream reply: the response
// header and the more-follows flag.
const chunkHeaderLen = respHeaderLen + 1

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
// is freshly allocated and owned by the caller; it grows only as the
// payload arrives, whatever length the header declares.
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
	payload, err := wire.ReadBody(r, int(plen))
	if err != nil {
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
	// Each reading is 16 bytes; reject counts the payload cannot hold
	// before allocating.
	if c.err != nil || uint64(n)*16 > uint64(len(c.b)-c.off) {
		c.fail()
		return nil
	}
	rs := make([]core.Reading, n)
	for i := range rs {
		rs[i] = core.Reading{Timestamp: c.i64(), Value: math.Float64frombits(c.u64())}
	}
	return rs
}

// bytes decodes a u32-length-prefixed byte string (aliasing the payload).
func (c *cursor) bytes() []byte {
	n := c.u32()
	if c.err != nil || uint64(n) > uint64(len(c.b)-c.off) {
		c.fail()
		return nil
	}
	v := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return v
}

// rest takes the rest of the payload (aliasing it): a body that its
// frame's length ends, such as a write frame's entries.
func (c *cursor) rest() []byte {
	if c.err != nil {
		return nil
	}
	v := c.b[c.off:]
	c.off = len(c.b)
	return v
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
