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
// 3; a record that is whole but that this build cannot parse refuses
// the open — or its hint file's replay — instead of being cut off as a
// torn tail; and type 1, the unstamped insert older builds wrote, is
// refused with its way out.

// framed returns payload with its WAL framing.
func framed(payload []byte) []byte {
	rec := make([]byte, walFrameHeader, walFrameHeader+len(payload))
	putWALFrameHeader(rec, payload)
	return append(rec, payload...)
}

// insertRecord is the framed type-3 record of one entry.
func insertRecord(e WriteEntry) []byte {
	var b walInsertV
	b.add(&e)
	b.seal()
	return b.buf
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

// placeWALSegment writes data as the first WAL segment of the shard
// directory id hashes to under dir and returns its path.
func placeWALSegment(t *testing.T, dir string, id core.SensorID, data []byte) string {
	t.Helper()
	shardDir := filepath.Join(dir, fmt.Sprintf("shard-%02d", shardIndex(id)))
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(shardDir, "wal-0000000000000001.log")
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
var allDiskOpens = []DiskOptions{noCompact, coldOptions, {CompactInterval: -1, ReadOnly: true}}

// TestUnreadableWALRecordRefused forges a segment whose middle record
// is whole — frame and CRC fine — but unparseable: an unknown type, or
// a type-3 record whose count disagrees with its length. Every open
// fails naming the segment and the record's type and offset, and the
// segment keeps every byte, the acknowledged record after it included.
func TestUnreadableWALRecordRefused(t *testing.T) {
	id := sid(27, 1)
	first := insertRecord(WriteEntry{ID: id, Version: 5, Readings: []core.Reading{rd(1, 1)}})
	last := insertRecord(WriteEntry{ID: id, Version: 6, Readings: []core.Reading{rd(2, 2)}})
	shortCount := slices.Clone(insertRecord(WriteEntry{ID: id, Readings: []core.Reading{rd(3, 3)}})[walFrameHeader:])
	binary.BigEndian.PutUint32(shortCount[17:], 2)
	for _, tc := range []struct {
		name    string
		payload []byte
		typ     int
	}{
		{"unknown type", append([]byte{9}, make([]byte, 24)...), 9},
		{"malformed type 3", shortCount, walRecInsertV},
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
	for _, rec := range walRecords(t, file) {
		if err := c.hints.enqueue("bravo", rec); err != nil {
			t.Fatal(err)
		}
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

// TestOldWALRecordsRefused: a type-1 record, as older builds logged
// every plain insert, is refused in a node directory by every open and
// in a hint file by its replay, each time with the way out, and the
// file is kept as it is.
func TestOldWALRecordsRefused(t *testing.T) {
	const way = "type 1 is the unstamped insert of older builds; replay it with a build that still reads it: " +
		"open the node directory once, writable, and close it cleanly"
	id := sid(27, 3)
	seg := framed(type1Payload(id, []core.Reading{rd(1, 1), rd(2, 2)}, 0))
	for _, o := range allDiskOpens {
		dir := t.TempDir()
		path := placeWALSegment(t, dir, id, seg)
		err := NewNode(0).OpenOptions(dir, o)
		if !errors.Is(err, errWALRecordUnreadable) || !strings.Contains(err.Error(), path) ||
			!strings.Contains(err.Error(), "type 1 at offset 0; "+way) || !strings.Contains(err.Error(), "dcdbconfig -db DIR compact") {
			t.Fatalf("open %+v over a type-1 segment: %v, want the refusal naming %s and the way out", o, err, path)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, seg) {
			t.Fatalf("open %+v modified the type-1 segment", o)
		}
	}

	c, nodes := ringCluster(t, []string{"alpha", "bravo"}, ClusterOptions{
		Replication: 2, HintDir: t.TempDir(), HintReplayInterval: -1,
	})
	defer c.Close()
	if err := c.hints.enqueue("bravo", seg[walFrameHeader:]); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.hints.dir, "bravo", "hint-0000000000000000.log")
	err := c.ReplayHints()
	if !errors.Is(err, errWALRecordUnreadable) || !strings.Contains(err.Error(), path) ||
		!strings.Contains(err.Error(), way) || !strings.Contains(err.Error(), "collect agent") {
		t.Fatalf("replaying a type-1 hint file: %v, want the refusal naming %s and the way out", err, path)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, seg) {
		t.Fatal("replay modified or removed the type-1 hint file")
	}
	if rs, _ := nodes["bravo"].Query(id, 0, 10); len(rs) != 0 {
		t.Fatalf("replay applied %v from a refused hint file", rs)
	}
}

// TestWritePathLogsOnlyStampedRecords: whatever form a write takes on a
// durable node — Insert, InsertBatch, WriteFrame, InsertVersioned,
// DeleteBefore — every WAL record on disk is a type-3 insert or a
// type-2 delete. A one-reading insert costs one 61-byte record: frame
// 8, header 21, and ts | val | expire | ver.
func TestWritePathLogsOnlyStampedRecords(t *testing.T) {
	dir := t.TempDir()
	n := openedNode(t, dir, 0, noCompact)
	a, b := sid(27, 4), sid(27, 5)
	if err := n.Insert(a, rd(1, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, size := newestWAL(t, dir, a); size != 61 {
		t.Fatalf("a one-reading Insert logged %d bytes, want 61", size)
	}
	if err := n.InsertBatch(a, []core.Reading{rd(2, 2), rd(3, 3)}, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := firstError(n.WriteFrame([]WriteEntry{
		{ID: a, Version: 7, Readings: []core.Reading{rd(4, 4)}},
		{ID: b, Version: 8, Readings: []core.Reading{rd(1, 1)}},
	})); err != nil {
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
	for i := 0; i < numShards; i++ {
		segs, err := findWALSegments(filepath.Join(dir, fmt.Sprintf("shard-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			data, err := os.ReadFile(seg.path)
			if err != nil {
				t.Fatal(err)
			}
			for k, p := range walRecords(t, data) {
				if p[0] != walRecInsertV && p[0] != walRecDelete {
					t.Fatalf("%s record %d is type %d; a node logs only types 2 and 3", seg.path, k, p[0])
				}
				counts[p[0]]++
			}
		}
	}
	if counts[walRecInsertV] != 5 || counts[walRecDelete] != 1 {
		t.Fatalf("records by type %v, want 5 inserts and 1 delete", counts)
	}
	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	if rs, _ := n2.Query(a, 0, 10); len(rs) != 3 || rs[0].Timestamp != 2 {
		t.Fatalf("sensor a after replay: %v", rs)
	}
	if vrs, _ := n2.QueryVersioned(b, 0, 10); len(vrs) != 2 || vrs[0].Version != 8 || vrs[1].Version != 9 {
		t.Fatalf("sensor b after replay: %+v", vrs)
	}
}

// TestHugeBatchCutIntoBoundedRecords: one InsertBatch far above
// walBatchChunk readings on a sync-every node is logged in records cut
// at that size, each under walMaxRecord, and a crash without Close
// brings every reading back.
func TestHugeBatchCutIntoBoundedRecords(t *testing.T) {
	const total = 2*walBatchChunk + walBatchChunk/2 + 1
	dir := t.TempDir()
	id := sid(27, 6)
	n := openedNode(t, dir, 2*total*numShards, noCompact) // nothing flushes: the batch lives in the WAL
	rs := make([]core.Reading, total)
	for i := range rs {
		rs[i] = rd(int64(i), float64(i%1000))
	}
	if err := n.InsertBatch(id, rs, 0); err != nil {
		t.Fatal(err)
	}
	n.crash()

	path, _ := newestWAL(t, dir, id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords(t, data)
	if len(recs) != 3 {
		t.Fatalf("%d records for %d readings, want 3", len(recs), total)
	}
	for k, p := range recs {
		if len(p) > walMaxRecord || int(binary.BigEndian.Uint32(p[17:])) > walBatchChunk {
			t.Fatalf("record %d: %d bytes, %d readings", k, len(p), binary.BigEndian.Uint32(p[17:]))
		}
	}
	n2 := openedNode(t, dir, 2*total*numShards, noCompact)
	defer n2.Close()
	got, err := n2.Query(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("%d of %d readings after the crash", len(got), total)
	}
	for i, r := range got {
		if r != rs[i] {
			t.Fatalf("reading %d: %+v, want %+v", i, r, rs[i])
		}
	}
}
