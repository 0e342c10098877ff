package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"testing"

	"dcdb/internal/core"
)

// Persistence-format coverage for write versions: the WAL's type-4
// record and the block codec's version stream.

func TestWALVersionedRecordRoundtrip(t *testing.T) {
	id := sid(90, 1)
	vrs := []VersionedReading{
		{Timestamp: 1, Value: 1.5, Version: 100, Expire: 0},
		{Timestamp: 2, Value: -2.5, Version: 101, Expire: 1 << 40},
	}
	// Two stamps are two entries, and a frame's entries for one shard
	// share a record: here a stamped run, each reading with its stamp.
	buf, records := appendWALInserts(nil, SplitStamps(id, vrs))
	if records != 1 {
		t.Fatalf("%d records for one sensor's two entries, want 1", records)
	}
	payload := buf[walFrameHeader:]
	if n, crc := binary.BigEndian.Uint32(buf), binary.BigEndian.Uint32(buf[4:]); int(n) != len(payload) || crc != crc32.ChecksumIEEE(payload) {
		t.Fatalf("record framed as %d bytes, crc %08x; payload is %d bytes, crc %08x", n, crc, len(payload), crc32.ChecksumIEEE(payload))
	}
	op, ok := decodeWALPayload(payload)
	if !ok {
		t.Fatal("versioned record did not decode")
	}
	if op.del || len(op.entries) != 2 {
		t.Fatalf("decoded op %+v", op)
	}
	for i, e := range op.entries {
		if e.ID != id || len(e.Readings) != 1 || e.Readings[0].Timestamp != vrs[i].Timestamp || e.Readings[0].Value != vrs[i].Value ||
			e.Version != vrs[i].Version || e.Expire != vrs[i].Expire {
			t.Fatalf("entry %d: %+v, want %+v", i, e, vrs[i])
		}
	}
	// Truncated type-4 payloads must be rejected, not mis-framed.
	if _, ok := decodeWALPayload(payload[:len(payload)-1]); ok {
		t.Fatal("truncated versioned record decoded")
	}
}

func TestWALReplayPreservesVersions(t *testing.T) {
	dir := t.TempDir()
	id := sid(90, 2)
	n := openedNode(t, dir, 0, DiskOptions{SyncInterval: 0})
	// The newer version first: only version-aware replay keeps it on
	// top after a restart.
	if err := n.InsertVersioned(id, []VersionedReading{{Timestamp: 7, Value: 2, Version: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := n.InsertVersioned(id, []VersionedReading{{Timestamp: 7, Value: 1, Version: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n = openedNode(t, dir, 0, DiskOptions{SyncInterval: 0})
	defer n.Close()
	rs, err := n.Query(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Value != 2 {
		t.Fatalf("replayed node serves %v; the WAL dropped the write versions", rs)
	}
	vrs, err := queryVersioned(n, id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(vrs) != 1 || vrs[0].Version != 9 {
		t.Fatalf("replayed versions %+v, want the surviving version 9", vrs)
	}
}

func TestBlockCodecVersionStream(t *testing.T) {
	es := []entry{
		{ts: 1, val: 1, ver: 1 << 40},
		{ts: 2, val: 2, ver: 1<<40 + 3},
		{ts: 3, val: 3, ver: 1 << 39, expire: 99}, // version delta goes negative
	}
	// The base the first version is coded against may lie on either
	// side of it, or be absent (an unversioned file that gained versions).
	for _, baseVer := range []uint64{1 << 40, 1<<40 + 77, 1 << 20, 0} {
		if _, got, err := codecRoundTrip(es, blockBase{ver: baseVer}); err != nil || len(got) != len(es) || got[0] != es[0] {
			t.Fatalf("base %d: decoded %+v (%v)", baseVer, got, err)
		}
	}
	_, got, err := codecRoundTrip(es, blockBase{ver: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(es) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(es))
	}
	for i := range es {
		if got[i] != es[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, got[i], es[i])
		}
	}
	// All-version-0 blocks must not pay for (or advertise) the version
	// section, whatever the file's base version is.
	legacy := []entry{{ts: 1, val: 1}, {ts: 2, val: 2}}
	lenc, lgot, err := codecRoundTrip(legacy, blockBase{ver: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if lenc[0]&blockFlagVersion != 0 {
		t.Fatal("version flag set on an all-version-0 block")
	}
	for i := range legacy {
		if lgot[i] != legacy[i] {
			t.Fatalf("legacy entry %d: %+v, want %+v", i, lgot[i], legacy[i])
		}
	}
}

// queryVersioned drains b's versioned stream of id over [from, to],
// failing on a chunk longer than the stream promises.
func queryVersioned(b NodeBackend, id core.SensorID, from, to int64) ([]VersionedReading, error) {
	st, err := b.QueryVersionedStream(id, from, to)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var out []VersionedReading
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if len(chunk) > StreamChunkReadings {
			return nil, fmt.Errorf("a %d-reading chunk", len(chunk))
		}
		out = append(out, chunk...)
	}
}

// TestQueryVersionedMatchesQuery: the versioned read path must agree
// with the plain read path on which write survives dedup — they share
// the resolution rule, not just the data.
func TestQueryVersionedMatchesQuery(t *testing.T) {
	n := NewNode(0)
	id := sid(90, 5)
	if err := n.InsertVersioned(id, []VersionedReading{
		{Timestamp: 1, Value: 1, Version: 3},
		{Timestamp: 2, Value: 2, Version: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := n.InsertVersioned(id, []VersionedReading{{Timestamp: 1, Value: 5, Version: 2}}); err != nil {
		t.Fatal(err)
	}
	rs, err := n.Query(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	vrs, err := queryVersioned(n, id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(vrs) {
		t.Fatalf("Query %d readings, QueryVersioned %d", len(rs), len(vrs))
	}
	for i := range rs {
		if rs[i].Timestamp != vrs[i].Timestamp || rs[i].Value != vrs[i].Value {
			t.Fatalf("position %d: Query %+v, QueryVersioned %+v", i, rs[i], vrs[i])
		}
	}
	if vrs[0].Version != 3 {
		t.Fatalf("surviving version %d, want 3", vrs[0].Version)
	}
}
