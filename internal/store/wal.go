package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dcdb/internal/core"
	"dcdb/internal/fsutil"
)

// Write-ahead log: one segment sequence per node (`wal-<seq>.log`).
// Every mutation is appended as a CRC32-framed record before it touches
// the memtable, so a crash can lose at most the writes since the last
// fsync (none, with SyncInterval 0). At a flush every shard's memtable
// moves into a run of the segment's generation and a fresh segment
// takes over; the retired one is deleted once every run file of the
// generation is durable. Recovery replays every surviving segment in
// sequence order, each entry into its shard, and stops at the first
// torn record — a short or empty frame or a CRC mismatch —
// truncating the tail so a half-written record is never served. A
// record that is whole but that this build cannot parse is not a torn
// tail: acknowledged records may follow it, so it fails the open by
// name and the segment is left as it is (errWALRecordUnreadable).
//
// Record framing (integers big-endian):
//
//	u32 payloadLen | u32 crc32(payload) | payload
//
// Payloads:
//
//	type 2 (delete): u8 2 | sidHi u64 | sidLo u64 | cutoff i64
//	type 4 (insert): u8 4 | write entries (entries.go)
//
// A type-4 record holds the entries of one write frame, spelled as the
// frame carried them on the wire. Types 1 and 3, the insert records of
// older builds, are refused with their way out (walOldInsertRoute).

const (
	walRecDelete = 2
	walRecInsert = 4

	// walMaxRecord bounds a record's payload so a corrupt length field
	// cannot drive a huge allocation during replay.
	walMaxRecord = 1 << 26
)

// walRecordCut is the payload size the writer cuts insert records at:
// walMaxRecord, so replay accepts every record it writes. Tests lower
// it to exercise the cut without a 64 MiB write.
var walRecordCut = walMaxRecord

// walSink is the sink a WAL segment writes through. It is a seam for
// fault injection: recovery tests swap openWALSink for one that fails
// or tears writes mid-record.
type walSink interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// openWALSink creates the segment file. Overridable in tests; the
// default goes through fsutil.Disk so fault injection can target WAL
// writes and fsyncs by path.
var openWALSink = func(path string) (walSink, error) {
	return fsutil.Disk.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// wal is one segment. mu guards the buffered writer, and syncMu
// serialises fsyncs without blocking appends.
//
// appended/synced implement group commit for sync-every mode: append
// hands each record a position, and syncTo(pos) makes everything up to
// pos durable with one fsync shared by every writer whose record was
// buffered when the fsync's leader flushed (see syncTo).
type wal struct {
	mu       sync.Mutex
	syncMu   sync.Mutex
	sink     walSink
	bw       *bufio.Writer
	path     string
	seq      uint64
	broken   bool   // a write failed; the segment is no longer trusted
	appended uint64 // records appended so far (under mu)
	synced   uint64 // records known durable (under mu)
	scratch  []byte // record encoding buffer, reused under mu

	// dirSynced: the segment's directory entry is durable. The first
	// fsync makes it so, under syncMu, so no record is acknowledged in a
	// file a crash could unname.
	dirSynced bool

	// met points at the owning node's WAL counters (nil in isolated
	// tests); segments rotate, the counters persist across them.
	met *walMetrics
}

// errWALBroken refuses an append or sync on a segment a write or fsync
// failed on; the node then replaces the segment.
var errWALBroken = errors.New("is broken")

func createWAL(dir string, seq uint64, met *walMetrics) (*wal, error) {
	path := filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
	sink, err := openWALSink(path)
	if err != nil {
		return nil, fmt.Errorf("store: creating WAL segment: %w", err)
	}
	return &wal{sink: sink, bw: bufio.NewWriter(sink), path: path, seq: seq, met: met}, nil
}

func (w *wal) brokenErr() error { return fmt.Errorf("store: WAL segment %s %w", w.path, errWALBroken) }

// append frames and buffers one record payload, returning the record's
// position for syncTo. The write is durable only after a sync covering
// the position.
func (w *wal) append(payload []byte) (uint64, error) {
	var hdr [walFrameHeader]byte
	putWALFrameHeader(hdr[:], payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeLocked(1, hdr[:], payload)
}

// appendEntries logs a write frame's entries as type-4 records (one,
// unless they exceed walRecordCut) and returns the last one's position.
func (w *wal) appendEntries(es []WriteEntry) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var n int
	w.scratch, n = appendWALInserts(w.scratch[:0], es)
	return w.writeLocked(n, w.scratch)
}

// writeLocked buffers n records, framed, and returns the position of
// the last. Caller holds mu.
func (w *wal) writeLocked(n int, parts ...[]byte) (uint64, error) {
	if w.broken {
		return 0, w.brokenErr()
	}
	for _, p := range parts {
		if _, err := w.bw.Write(p); err != nil {
			w.broken = true
			return 0, err
		}
	}
	w.appended += uint64(n)
	if w.met != nil {
		w.met.appends.Add(int64(n))
	}
	return w.appended, nil
}

// sync makes every record appended so far durable.
func (w *wal) sync() error {
	w.mu.Lock()
	pos := w.appended
	w.mu.Unlock()
	return w.syncTo(pos)
}

// syncTo makes the record at position pos (and everything before it)
// durable, group-committing concurrent writers: the first writer
// through syncMu becomes the fsync leader; it flushes the buffer —
// capturing every record appended by then, including the followers
// queued behind it — and fsyncs once. A follower acquiring syncMu
// afterwards observes synced >= pos and returns without touching the
// disk, so N concurrent sync-every writers pay ~1 fsync, not N.
//
// The buffer flush happens under mu, but the fsync itself runs outside
// it (serialised by syncMu) so a sync never stalls appends — and
// therefore the node's writes — for the fsync duration.
func (w *wal) syncTo(pos uint64) error {
	w.mu.Lock()
	done, err := w.settledLocked(pos)
	w.mu.Unlock()
	if done {
		return err
	}

	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if done, err := w.settledLocked(pos); done {
		w.mu.Unlock()
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.broken = true
		w.mu.Unlock()
		return err
	}
	target := w.appended
	w.mu.Unlock()

	err = w.fsync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.broken = true
		return err
	}
	if target > w.synced {
		if w.met != nil {
			// One fsync covered target-synced records: the group-commit
			// batch size concurrent writers achieved.
			w.met.fsyncs.Inc()
			w.met.batch.Observe(int64(target - w.synced))
		}
		w.synced = target
	}
	return nil
}

// settledLocked reports whether a sync to pos has nothing to do: the
// record is durable (records at or below synced were fsynced before any
// failure), or the segment is broken (its error). Caller holds mu.
func (w *wal) settledLocked(pos uint64) (bool, error) {
	if w.synced >= pos {
		return true, nil
	}
	if w.broken {
		return true, w.brokenErr()
	}
	return false, nil
}

// fsync makes the flushed bytes durable, the directory entry first.
// Caller holds syncMu.
func (w *wal) fsync() error {
	if !w.dirSynced {
		if err := fsutil.SyncDir(filepath.Dir(w.path)); err != nil {
			return err
		}
		w.dirSynced = true
	}
	return w.sink.Sync()
}

// close flushes, fsyncs and closes a segment no writer appends to any
// more. On success every appended record is durable, so a later syncTo
// takes its fast path; on failure the segment is broken, so syncTo
// reports it.
func (w *wal) close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	ferr := w.bw.Flush()
	serr := w.fsync()
	cerr := w.sink.Close()
	if ferr == nil && serr == nil {
		w.synced = w.appended
	} else {
		w.broken = true
	}
	if ferr != nil {
		return ferr
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// walFrameHeader is the length + CRC prefix of a framed record.
const walFrameHeader = 8

// putWALFrameHeader fills hdr with payload's framing.
func putWALFrameHeader(hdr, payload []byte) {
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
}

// appendWALInserts appends es to buf as framed type-4 records, cut by
// CutEntries at walRecordCut, and returns buf and how many records it
// took: one, unless the entries exceed the cut.
func appendWALInserts(buf []byte, es []WriteEntry) ([]byte, int) {
	records := 0
	cut := CutEntries(es, walRecordCut-1)
	for piece, _ := cut.Next(); len(piece) > 0; piece, _ = cut.Next() {
		buf = appendWALInsert(buf, piece)
		records++
	}
	return buf, records
}

// appendWALInsert appends es to buf as one framed type-4 record.
func appendWALInsert(buf []byte, es []WriteEntry) []byte {
	at := len(buf)
	buf = append(buf, make([]byte, walFrameHeader)...)
	buf = append(buf, walRecInsert)
	buf = AppendEntries(buf, es)
	putWALFrameHeader(buf[at:], buf[at+walFrameHeader:])
	return buf
}

// encodeWALDelete builds a type-2 record payload, reusing buf.
func encodeWALDelete(buf []byte, id core.SensorID, cutoff int64) []byte {
	const need = 1 + 16 + 8
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	buf[0] = walRecDelete
	binary.BigEndian.PutUint64(buf[1:], id.Hi)
	binary.BigEndian.PutUint64(buf[9:], id.Lo)
	binary.BigEndian.PutUint64(buf[17:], uint64(cutoff))
	return buf
}

// walOp is one replayed record: a delete, or a write frame's entries.
type walOp struct {
	del     bool
	id      core.SensorID // delete only
	cutoff  int64         // delete only
	entries []WriteEntry  // insert only
}

// errWALRecordUnreadable refuses a record whose frame and CRC check out
// but whose payload this build cannot parse. It was written whole, so
// unlike a torn tail it may be followed by acknowledged records.
var errWALRecordUnreadable = errors.New("WAL record this build cannot read")

// walOldInsertRoute is the way out of a type-1 or type-3 record — the
// insert records older builds wrote, which this build no longer reads.
const walOldInsertRoute = "types 1 and 3 are the insert records of older builds (1 unstamped, 3 with a stamp per reading); " +
	"replay it with a build that still reads it: " +
	"open the node directory once, writable, and close it cleanly, which flushes its records into run files and deletes the segment " +
	"(an agent data directory: dcdbconfig -db DIR compact), or, for a hint file, run that build's collect agent on the data directory " +
	"until its hints are delivered; see \"WAL format\" in internal/store/README.md"

// decodeWALRecords replays a segment's byte content. It stops silently
// at the first torn record — a frame that is short or empty or fails
// its CRC; the tail from there was never acknowledged — and returns how
// many bytes formed valid records so callers can truncate the file
// there. A whole record it cannot parse fails with
// errWALRecordUnreadable, naming its type and offset, and nothing is
// returned to replay or truncate.
func decodeWALRecords(data []byte) (ops []walOp, valid int, err error) {
	off := 0
	for {
		if len(data)-off < walFrameHeader {
			return ops, off, nil
		}
		plen := int(binary.BigEndian.Uint32(data[off:]))
		crc := binary.BigEndian.Uint32(data[off+4:])
		if plen < 1 || plen > walMaxRecord || len(data)-off-walFrameHeader < plen {
			return ops, off, nil
		}
		payload := data[off+walFrameHeader : off+walFrameHeader+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			return ops, off, nil
		}
		op, ok := decodeWALPayload(payload)
		if !ok {
			err := fmt.Errorf("%w: type %d at offset %d", errWALRecordUnreadable, payload[0], off)
			if payload[0] == 1 || payload[0] == 3 {
				err = fmt.Errorf("%w; %s", err, walOldInsertRoute)
			}
			return nil, 0, err
		}
		ops = append(ops, op)
		off += walFrameHeader + plen
	}
}

func decodeWALPayload(p []byte) (walOp, bool) {
	switch p[0] {
	case walRecInsert:
		es, err := DecodeEntries(p[1:])
		return walOp{entries: es}, err == nil
	case walRecDelete:
		if len(p) != 25 {
			return walOp{}, false
		}
		return walOp{
			del:    true,
			id:     core.SensorID{Hi: binary.BigEndian.Uint64(p[1:]), Lo: binary.BigEndian.Uint64(p[9:])},
			cutoff: int64(binary.BigEndian.Uint64(p[17:])),
		}, true
	}
	return walOp{}, false
}

// segSeq parses a log file name, prefix + hex sequence + ".log" (WAL
// segments "wal-", hint files "hint-"), or returns false.
func segSeq(name, prefix string) (uint64, bool) {
	hex, ok := strings.CutPrefix(name, prefix)
	if hex, ok2 := strings.CutSuffix(hex, ".log"); ok && ok2 {
		seq, err := strconv.ParseUint(hex, 16, 64)
		return seq, err == nil
	}
	return 0, false
}

// readLog reads a WAL segment or a hint file (what, for errors). With
// truncate set, a torn tail is cut off in place so the next open does
// not re-parse garbage; read-only recovery leaves the file as the crash
// left it, and so does a refusal.
func readLog(path, what string, truncate bool) ([]walOp, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ops, valid, err := decodeWALRecords(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s %s: %w", what, path, err)
	}
	if truncate && valid < len(data) {
		// Failure to truncate is not fatal — replay will stop at the
		// same offset next time.
		_ = os.Truncate(path, int64(valid))
	}
	return ops, nil
}

func findWALSegments(dir string) ([]walSegRef, error) { return findSegments(dir, "wal-") }

// findSegments lists dir's log files of a prefix in sequence order. A
// directory that does not exist holds none.
func findSegments(dir, prefix string) ([]walSegRef, error) {
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var segs []walSegRef
	for _, de := range des {
		if seq, ok := segSeq(de.Name(), prefix); ok {
			segs = append(segs, walSegRef{seq: seq, path: filepath.Join(dir, de.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

type walSegRef struct {
	seq  uint64
	path string
}
