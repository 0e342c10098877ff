package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dcdb/internal/core"
)

// The one insert record: every write a node applies is logged as type
// 4, the frame's entries for the shard spelled as the wire carried
// them; a record that is whole but that this build cannot parse refuses
// the open — or its hint file's replay — instead of being cut off as a
// torn tail; and types 1 and 3, the insert records older builds wrote,
// are refused with their way out.

// framed returns payload with its WAL framing.
func framed(payload []byte) []byte {
	rec := make([]byte, walFrameHeader, walFrameHeader+len(payload))
	putWALFrameHeader(rec, payload)
	return append(rec, payload...)
}

// insertRecord is the framed type-4 record of one entry.
func insertRecord(e WriteEntry) []byte {
	rec, _ := appendWALInserts(nil, []WriteEntry{e})
	return rec
}

// type1Payload is an unstamped insert record as older builds wrote it:
// u8 1 | sidHi | sidLo | count u32 | count × (ts i64 | val f64 | expire i64).
func type1Payload(id core.SensorID, rs []core.Reading, expire int64) []byte {
	p := binary.BigEndian.AppendUint64([]byte{1}, id.Hi)
	p = binary.BigEndian.AppendUint64(p, id.Lo)
	p = binary.BigEndian.AppendUint32(p, uint32(len(rs)))
	for _, r := range rs {
		p = binary.BigEndian.AppendUint64(p, uint64(r.Timestamp))
		p = binary.BigEndian.AppendUint64(p, math.Float64bits(r.Value))
		p = binary.BigEndian.AppendUint64(p, uint64(expire))
	}
	return p
}

// type3Payload is a stamped insert record as older builds wrote it, a
// stamp per reading: u8 3 | sidHi | sidLo | count u32
// | count × (ts i64 | val f64 | expire i64 | ver u64).
func type3Payload(id core.SensorID, vrs []VersionedReading) []byte {
	p := binary.BigEndian.AppendUint64([]byte{3}, id.Hi)
	p = binary.BigEndian.AppendUint64(p, id.Lo)
	p = binary.BigEndian.AppendUint32(p, uint32(len(vrs)))
	for _, v := range vrs {
		p = binary.BigEndian.AppendUint64(p, uint64(v.Timestamp))
		p = binary.BigEndian.AppendUint64(p, math.Float64bits(v.Value))
		p = binary.BigEndian.AppendUint64(p, uint64(v.Expire))
		p = binary.BigEndian.AppendUint64(p, v.Version)
	}
	return p
}

// placeWALSegment writes data as the first WAL segment of the node
// directory dir and returns its path.
func placeWALSegment(t *testing.T, dir string, id core.SensorID, data []byte) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal-0000000000000001.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// walRecords splits a whole segment into its records' payloads.
func walRecords(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(data) > 0 {
		if len(data) < walFrameHeader {
			t.Fatalf("%d stray bytes after the last record", len(data))
		}
		end := walFrameHeader + int(binary.BigEndian.Uint32(data))
		if end > len(data) {
			t.Fatalf("record of %d bytes runs past the segment", end)
		}
		out = append(out, data[walFrameHeader:end])
		data = data[end:]
	}
	return out
}

// allDiskOpens are the three ways a directory is opened: hot and cold
// writable, and read-only.
var allDiskOpens = []DiskOptions{noCompact, coldOptions, {ReadOnly: true}}

// TestUnreadableWALRecordRefused forges a segment whose middle record
// is whole — frame and CRC fine — but unparseable: an unknown type, or
// a type-4 record whose reading count disagrees with its length. Every
// open fails naming the segment and the record's type and offset, and
// the segment keeps every byte, the acknowledged record after it
// included.
func TestUnreadableWALRecordRefused(t *testing.T) {
	id := sid(27, 1)
	first := insertRecord(WriteEntry{ID: id, Version: 5, Readings: []core.Reading{rd(1, 1)}})
	last := insertRecord(WriteEntry{ID: id, Version: 6, Readings: []core.Reading{rd(2, 2)}})
	shortCount := slices.Clone(insertRecord(WriteEntry{ID: id, Readings: []core.Reading{rd(3, 3)}})[walFrameHeader:])
	binary.BigEndian.PutUint32(shortCount[1+32:], 2)
	for _, tc := range []struct {
		name    string
		payload []byte
		typ     int
	}{
		{"unknown type", append([]byte{9}, make([]byte, 24)...), 9},
		{"malformed type 4", shortCount, walRecInsert},
	} {
		seg := slices.Concat(first, framed(tc.payload), last)
		for _, o := range allDiskOpens {
			dir := t.TempDir()
			path := placeWALSegment(t, dir, id, seg)
			err := NewNode(0).OpenOptions(dir, o)
			want := fmt.Sprintf("WAL segment %s: %v: type %d at offset %d", path, errWALRecordUnreadable, tc.typ, len(first))
			if !errors.Is(err, errWALRecordUnreadable) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s, open %+v: %v, want %q", tc.name, o, err, want)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, seg) {
				t.Fatalf("%s, open %+v: the refused segment was modified (%d bytes, was %d)", tc.name, o, len(got), len(seg))
			}
		}
	}
}

// TestUnreadableHintRecordRefused: the same forged record in a hint
// file fails that member's replay by name, applies nothing of the file
// and keeps it, so a later replay by a build that reads it still can.
func TestUnreadableHintRecordRefused(t *testing.T) {
	c, nodes := ringCluster(t, []string{"alpha", "bravo"}, ClusterOptions{
		Replication: 2, HintDir: t.TempDir(), HintReplayInterval: -1,
	})
	defer c.Close()
	id := sid(27, 2)
	first := insertRecord(WriteEntry{ID: id, Version: 5, Readings: []core.Reading{rd(1, 1)}})
	file := slices.Concat(first, framed(append([]byte{9}, make([]byte, 24)...)),
		insertRecord(WriteEntry{ID: id, Version: 6, Readings: []core.Reading{rd(2, 2)}}))
	if err := c.hints.enqueue("bravo", file, len(walRecords(t, file))); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.hints.dir, "bravo", "hint-0000000000000000.log")
	for attempt := 0; attempt < 2; attempt++ {
		err := c.ReplayHints()
		want := fmt.Sprintf("hint file %s: %v: type 9 at offset %d", path, errWALRecordUnreadable, len(first))
		if !errors.Is(err, errWALRecordUnreadable) || !strings.Contains(err.Error(), want) {
			t.Fatalf("replay %d: %v, want %q", attempt, err, want)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, file) {
			t.Fatalf("replay %d modified or removed the refused hint file", attempt)
		}
		if !c.hints.has("bravo") {
			t.Fatalf("replay %d dropped the member's pending hints", attempt)
		}
		if rs, _ := nodes["bravo"].Query(id, 0, 10); len(rs) != 0 {
			t.Fatalf("replay %d applied %v from a refused file", attempt, rs)
		}
	}
}

// oldRecordWayOut is how the refusal of a type-1 or type-3 record
// begins its way out.
const oldRecordWayOut = "types 1 and 3 are the insert records of older builds (1 unstamped, 3 with a stamp per reading); " +
	"replay it with a build that still reads it: open the node directory once, writable, and close it cleanly"

// checkOldRecordRefused: a record of an older build's insert type is
// refused in a node directory by every open and in a hint file by its
// replay, each time with the way out, and the file is kept as it is.
func checkOldRecordRefused(t *testing.T, id core.SensorID, payload []byte) {
	t.Helper()
	seg := framed(payload)
	refusal := fmt.Sprintf("type %d at offset 0; %s", payload[0], oldRecordWayOut)
	for _, o := range allDiskOpens {
		dir := t.TempDir()
		path := placeWALSegment(t, dir, id, seg)
		err := NewNode(0).OpenOptions(dir, o)
		if !errors.Is(err, errWALRecordUnreadable) || !strings.Contains(err.Error(), path) ||
			!strings.Contains(err.Error(), refusal) || !strings.Contains(err.Error(), "dcdbconfig -db DIR compact") {
			t.Fatalf("open %+v over a type-%d segment: %v, want the refusal naming %s and the way out", o, payload[0], err, path)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, seg) {
			t.Fatalf("open %+v modified the type-%d segment", o, payload[0])
		}
	}

	c, nodes := ringCluster(t, []string{"alpha", "bravo"}, ClusterOptions{
		Replication: 2, HintDir: t.TempDir(), HintReplayInterval: -1,
	})
	defer c.Close()
	if err := c.hints.enqueue("bravo", seg, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.hints.dir, "bravo", "hint-0000000000000000.log")
	err := c.ReplayHints()
	if !errors.Is(err, errWALRecordUnreadable) || !strings.Contains(err.Error(), path) ||
		!strings.Contains(err.Error(), refusal) || !strings.Contains(err.Error(), "collect agent") {
		t.Fatalf("replaying a type-%d hint file: %v, want the refusal naming %s and the way out", payload[0], err, path)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, seg) {
		t.Fatalf("replay modified or removed the type-%d hint file", payload[0])
	}
	if rs, _ := nodes["bravo"].Query(id, 0, 10); len(rs) != 0 {
		t.Fatalf("replay applied %v from a refused hint file", rs)
	}
}

// TestOldWALRecordsRefused: a type-1 record, as older builds logged
// every plain insert, is refused with its way out.
func TestOldWALRecordsRefused(t *testing.T) {
	id := sid(27, 3)
	checkOldRecordRefused(t, id, type1Payload(id, []core.Reading{rd(1, 1), rd(2, 2)}, 0))
}

// TestType3RecordsRefused: a type-3 record, as older builds logged
// every write with a stamp per reading, is refused the same way — in a
// WAL segment and in a hint file, each kept byte for byte.
func TestType3RecordsRefused(t *testing.T) {
	id := sid(27, 7)
	checkOldRecordRefused(t, id, type3Payload(id, []VersionedReading{
		{Timestamp: 1, Value: 1, Version: 5000},
		{Timestamp: 2, Value: 2, Version: 6000, Expire: 1 << 62},
	}))
}

// TestRefusedWritableOpenLeavesDirectory: a writable open that refuses
// a record in shard-07 has created nothing in the shards before it — no
// shard directory, no WAL segment — so the directory keeps the same
// names and the same bytes, whether it holds only the refused shard or
// a crashed node's run files and segments besides.
func TestRefusedWritableOpenLeavesDirectory(t *testing.T) {
	id := sid(29, 0)
	for shardIndex(id) != 7 {
		id.Lo++
	}
	seg := framed(type3Payload(id, []VersionedReading{{Timestamp: 1, Value: 1, Version: 5000}}))
	for _, o := range allDiskOpens {
		if o.ReadOnly {
			continue
		}
		for _, crashed := range []bool{false, true} {
			dir := t.TempDir()
			if crashed {
				n := openedNode(t, dir, 2*numShards, noCompact)
				for i := 0; i < 200; i++ {
					if err := n.InsertBatch(sid(30, uint64(i%40)), []core.Reading{rd(int64(i), float64(i))}, 0); err != nil {
						t.Fatal(err)
					}
				}
				n.crash()
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "wal-00000000000fffff.log"), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirContents(t, dir)
			if err := NewNode(0).OpenOptions(dir, o); !errors.Is(err, errWALRecordUnreadable) {
				t.Fatalf("open %+v (crashed %v): %v, want the type-3 refusal", o, crashed, err)
			}
			after := dirContents(t, dir)
			for name, data := range after {
				if old, ok := before[name]; !ok || old != data {
					t.Fatalf("open %+v (crashed %v) created or changed %s", o, crashed, name)
				}
			}
			if len(after) != len(before) {
				t.Fatalf("open %+v (crashed %v) removed %d entries", o, crashed, len(before)-len(after))
			}
		}
	}
}

// dirContents maps every path below dir to its bytes ("" for a
// directory).
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			out[path] = ""
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWritePathLogsOnlyStampedRecords: whatever form a write takes on a
// durable node — InsertBatch, WriteFrame, InsertVersioned,
// DeleteBefore — every WAL record on disk is a type-4 insert, one per
// write, or a type-2 delete. A one-reading insert costs
// one 61-byte record: frame 8, type 1, entry header 36, ts | val 16.
func TestWritePathLogsOnlyStampedRecords(t *testing.T) {
	dir := t.TempDir()
	n := openedNode(t, dir, 0, noCompact)
	a, b := sid(27, 4), sid(27, 5)
	if err := n.InsertBatch(a, []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	if _, size := newestWAL(t, dir, a); size != 61 {
		t.Fatalf("a one-reading insert logged %d bytes, want 61", size)
	}
	if err := n.InsertBatch(a, []core.Reading{rd(2, 2), rd(3, 3)}, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteFrame([]WriteEntry{
		{ID: a, Version: 7, Readings: []core.Reading{rd(4, 4)}},
		{ID: b, Version: 8, Readings: []core.Reading{rd(1, 1)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.InsertVersioned(b, []VersionedReading{{Timestamp: 2, Value: 2, Version: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := n.DeleteBefore(a, 2); err != nil {
		t.Fatal(err)
	}
	n.crash()

	counts := map[byte]int{}
	segs, err := findWALSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		for k, p := range walRecords(t, data) {
			if p[0] != walRecInsert && p[0] != walRecDelete {
				t.Fatalf("%s record %d is type %d; a node logs only types 2 and 4", seg.path, k, p[0])
			}
			counts[p[0]]++
		}
	}
	// The frame is one record, whatever shards a and b hash to.
	if counts[walRecInsert] != 4 || counts[walRecDelete] != 1 {
		t.Fatalf("records by type %v, want 4 inserts and 1 delete", counts)
	}
	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	if rs, _ := n2.Query(a, 0, 10); len(rs) != 3 || rs[0].Timestamp != 2 {
		t.Fatalf("sensor a after replay: %v", rs)
	}
	if vrs, _ := queryVersioned(n2, b, 0, 10); len(vrs) != 2 || vrs[0].Version != 8 || vrs[1].Version != 9 {
		t.Fatalf("sensor b after replay: %+v", vrs)
	}
}

// TestWALRecordBytes pins what a write costs in the WAL, frame and type
// byte included: a one-reading write 61 bytes, as a stamp per reading
// cost; a 64-reading batch 1 069, its stamp once, where a stamp per
// reading took 2 077; a 1 000-reading repair batch, every reading under
// its own stamp, 32 045 — one stamped run, 16 bytes over the 32 029 a
// stamp per reading took. After its type byte the record is the
// entries' wire encoding, byte for byte.
func TestWALRecordBytes(t *testing.T) {
	id := sid(27, 8)
	batch := make([]core.Reading, 64)
	for i := range batch {
		batch[i] = rd(int64(i), float64(i))
	}
	repair := make([]WriteEntry, 1000)
	for i := range repair {
		repair[i] = WriteEntry{ID: id, Version: uint64(1000 * (i + 1)), Readings: []core.Reading{rd(int64(i), float64(i))}}
	}
	for _, tc := range []struct {
		name string
		es   []WriteEntry
		want int64
	}{
		{"one reading", []WriteEntry{{ID: id, Version: 1000, Readings: batch[:1]}}, 61},
		{"64-reading batch", []WriteEntry{{ID: id, Version: 1000, Expire: 1 << 62, Readings: batch}}, 1069},
		{"1000-reading repair batch", repair, 32045},
	} {
		dir := t.TempDir()
		n := openedNode(t, dir, 0, noCompact)
		if err := n.WriteFrame(tc.es); err != nil {
			t.Fatal(err)
		}
		n.crash()
		path, size := newestWAL(t, dir, id)
		if size != tc.want {
			t.Fatalf("%s: logged %d bytes, want %d", tc.name, size, tc.want)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if recs := walRecords(t, data); len(recs) != 1 || !bytes.Equal(recs[0][1:], AppendEntries(nil, tc.es)) {
			t.Fatalf("%s: %d records, not the entries' encoding after the type byte", tc.name, len(recs))
		}
	}
}

// TestHugeBatchCutIntoBoundedRecords: an entry larger than a record
// may hold is logged in records cut at walRecordCut — lowered here to
// 1 MiB so 250 001 readings need four — as consecutive entries of its
// stamp, each record under the cut, and a crash without Close brings
// every reading back under that stamp.
func TestHugeBatchCutIntoBoundedRecords(t *testing.T) {
	defer func(cut int) { walRecordCut = cut }(walRecordCut)
	walRecordCut = 1 << 20
	const total = 250_001
	dir := t.TempDir()
	id := sid(27, 6)
	n := openedNode(t, dir, 2*total*numShards, noCompact) // nothing flushes: the batch lives in the WAL
	rs := make([]core.Reading, total)
	for i := range rs {
		rs[i] = rd(int64(i), float64(i%1000))
	}
	stamp := WriteEntry{ID: id, Version: 7000, Expire: 1 << 62, Readings: rs}
	if err := n.WriteFrame([]WriteEntry{stamp}); err != nil {
		t.Fatal(err)
	}
	n.crash()

	path, _ := newestWAL(t, dir, id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords(t, data)
	if len(recs) != 4 {
		t.Fatalf("%d records for %d readings, want 4", len(recs), total)
	}
	logged := 0
	for k, p := range recs {
		es, err := DecodeEntries(p[1:])
		if p[0] != walRecInsert || err != nil || len(p) > walRecordCut || len(es) != 1 ||
			es[0].ID != id || es[0].Version != stamp.Version || es[0].Expire != stamp.Expire {
			t.Fatalf("record %d: type %d, %d bytes, %d entries (%v)", k, p[0], len(p), len(es), err)
		}
		logged += len(es[0].Readings)
	}
	if logged != total {
		t.Fatalf("records hold %d of %d readings", logged, total)
	}
	n2 := openedNode(t, dir, 2*total*numShards, noCompact)
	defer n2.Close()
	got, err := queryVersioned(n2, id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("%d of %d readings after the crash", len(got), total)
	}
	for i, v := range got {
		if v.Timestamp != rs[i].Timestamp || v.Value != rs[i].Value || v.Version != stamp.Version || v.Expire != stamp.Expire {
			t.Fatalf("reading %d: %+v, want %+v under the entry's stamp", i, v, rs[i])
		}
	}
}

// failFirstSyncSink is a segment file whose first fsync fails.
type failFirstSyncSink struct {
	walSink
	failed bool
}

func (s *failFirstSyncSink) Sync() error {
	if !s.failed {
		s.failed = true
		return fmt.Errorf("injected fsync failure")
	}
	return s.walSink.Sync()
}

// TestWALSyncAfterFailedCloseReportsError: a rotation whose close fails
// its fsync leaves records that are not durable. A sync-every writer
// whose record sits in that segment syncs the closed handle afterwards;
// it must get an error, not an acknowledgement.
func TestWALSyncAfterFailedCloseReportsError(t *testing.T) {
	realOpen := openWALSink
	defer func() { openWALSink = realOpen }()
	openWALSink = func(path string) (walSink, error) {
		f, err := realOpen(path)
		if err != nil {
			return nil, err
		}
		return &failFirstSyncSink{walSink: f}, nil
	}
	w, err := createWAL(t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := w.append(encodeWALDelete(nil, sid(1, 1), 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err == nil {
		t.Fatal("close succeeded although its fsync failed")
	}
	if err := w.syncTo(pos); err == nil {
		t.Fatal("syncTo acknowledged a record whose segment's fsync failed")
	}
}
