package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
)

// entry builds a one-stamp write of n readings starting at ts.
func entry(id core.SensorID, ver uint64, ts int64, n int) store.WriteEntry {
	e := store.WriteEntry{ID: id, Version: ver}
	for i := 0; i < n; i++ {
		e.Readings = append(e.Readings, rd(ts+int64(i), float64(ts)+float64(i)))
	}
	return e
}

// TestWriteFrameRoundtrip: one opWrite call carries entries of several
// sensors and stamps; every reading lands under its entry's stamp, and
// the three NodeBackend write methods are that same call.
func TestWriteFrameRoundtrip(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{})
	expire := time.Now().Add(time.Hour).UnixNano()
	frame := []store.WriteEntry{
		entry(sid(50, 1), 3000, 1, 4),
		entry(sid(50, 2), 4000, 1, 1),
		entry(sid(50, 1), 5000, 5, 2),
		{ID: sid(50, 3), Version: 6000}, // nothing to store: not an error, not a sensor
	}
	frame[1].Expire = expire
	if err := cl.WriteFrame(frame); err != nil {
		t.Fatal(err)
	}
	if calls, _ := callCounts(t, cl, "write"); calls != 1 {
		t.Fatalf("a frame took %d write calls, want 1", calls)
	}
	got, err := storetest.Versioned(n, sid(50, 1), 0, 100)
	if err != nil || len(got) != 6 {
		t.Fatalf("sensor 1: %+v, %v", got, err)
	}
	for i, v := range got {
		want := store.VersionedReading{Timestamp: int64(i + 1), Value: float64(i + 1), Version: 3000}
		if i >= 4 {
			want.Value, want.Version = float64(5+i-4), 5000
		}
		if v != want {
			t.Fatalf("sensor 1 reading %d = %+v, want %+v", i, v, want)
		}
	}
	if got, _ := storetest.Versioned(n, sid(50, 2), 0, 100); len(got) != 1 || got[0].Expire != expire || got[0].Version != 4000 {
		t.Fatalf("sensor 2: %+v", got)
	}
	if ids := n.SensorIDs(); len(ids) != 2 {
		t.Fatalf("node lists %v, want the two sensors with readings", ids)
	}

	// Insert and InsertBatch are version-0 entries with the TTL resolved
	// by the caller; InsertVersioned is one entry per run of equal stamps.
	if err := cl.InsertBatch(sid(51, 1), []core.Reading{rd(1, 1)}, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := cl.InsertBatch(sid(51, 1), []core.Reading{rd(2, 2), rd(3, 3)}, 0); err != nil {
		t.Fatal(err)
	}
	mixed := []store.VersionedReading{
		{Timestamp: 4, Value: 4, Version: 7000}, {Timestamp: 5, Value: 5, Version: 7000},
		{Timestamp: 6, Value: 6, Version: 8000}, {Timestamp: 7, Value: 7, Version: 8000, Expire: expire},
	}
	if err := cl.InsertVersioned(sid(51, 1), mixed); err != nil {
		t.Fatal(err)
	}
	if calls, _ := callCounts(t, cl, "write"); calls != 4 {
		t.Fatalf("%d write calls after Insert, InsertBatch and InsertVersioned, want 4 in all", calls)
	}
	got, err = storetest.Versioned(n, sid(51, 1), 0, 100)
	if err != nil || len(got) != 7 {
		t.Fatalf("sensor 51/1: %+v, %v", got, err)
	}
	if got[0].Version != 0 || got[0].Expire == 0 || got[1].Version != 0 || got[1].Expire != 0 {
		t.Fatalf("unversioned inserts stored as %+v, %+v", got[0], got[1])
	}
	for i, v := range mixed {
		if got[3+i] != v {
			t.Fatalf("repair reading %d stored as %+v, want %+v", i, got[3+i], v)
		}
	}
}

// refusing fails the writes of one sensor. It embeds the interface, not
// the node, so the server reaches it entry by entry through
// InsertVersioned.
type refusing struct {
	store.NodeBackend
	sensor core.SensorID
}

func (r refusing) InsertVersioned(id core.SensorID, vrs []store.VersionedReading) error {
	if id == r.sensor {
		return errors.New("injected: sensor refused")
	}
	return r.NodeBackend.InsertVersioned(id, vrs)
}

// TestWriteFrameFailsWhole: a frame with one refused entry fails as a
// whole at the caller, with the refusal's error, and is one write call
// and one call error, as any op's refusal is. The node stops at the
// refused entry: nothing after it is written.
func TestWriteFrameFailsWhole(t *testing.T) {
	n := store.NewNode(0)
	srv := NewServer(refusing{NodeBackend: n, sensor: sid(52, 2)}, true)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(srv.Addr(), ClientOptions{})
	defer cl.Close()

	frame := []store.WriteEntry{entry(sid(52, 1), 1000, 1, 2), entry(sid(52, 2), 2000, 1, 2), entry(sid(52, 3), 3000, 1, 2), entry(sid(52, 2), 4000, 3, 1)}
	err := cl.WriteFrame(frame)
	if err == nil || !strings.Contains(err.Error(), "sensor refused") {
		t.Fatalf("a frame with a refused entry answered %v", err)
	}
	if calls, errCount := callCounts(t, cl, "write"); calls != 1 || errCount != 1 {
		t.Fatalf("the refused frame counted %d write calls and %v call errors, want 1 and 1", calls, errCount)
	}
	if rs, _ := n.Query(sid(52, 3), 0, 100); len(rs) != 0 {
		t.Fatalf("an entry after the refused one was written: %v", rs)
	}

	// A frame that cannot be sent fails the same way.
	srv.Close()
	if err := cl.WriteFrame(frame); err == nil {
		t.Fatal("a frame to a dead server succeeded")
	}
}

// TestWriteFrameStampedRun: a frame whose one-reading entries of one
// sensor travel as stamped runs (the store's codec, TestWriteFrameStampedRun
// there) lands every entry under its own stamp, and a repair batch of
// fan-in data — a stamp per reading — costs 32 bytes a reading on the
// wire.
func TestWriteFrameStampedRun(t *testing.T) {
	a, b := sid(53, 1), sid(53, 2)
	expire := time.Now().Add(time.Hour).UnixNano()
	es := []store.WriteEntry{
		entry(a, 1000, 1, 1), entry(a, 2000, 2, 1), entry(a, 2000, 3, 1), // a run, equal stamps included
		entry(b, 3000, 1, 1),                       // alone
		entry(a, 4000, 4, 3),                       // three readings: never in a run
		entry(a, 5000, 7, 1), entry(a, 6000, 8, 1), // a second run
	}
	es[1].Expire = expire

	n, _, cl := testPair(t, ClientOptions{})
	if err := cl.WriteFrame(es); err != nil {
		t.Fatal(err)
	}
	stored, err := storetest.Versioned(n, a, 0, 100)
	if err != nil || len(stored) != 8 || stored[1].Expire != expire || stored[2].Version != 2000 || stored[7].Version != 6000 {
		t.Fatalf("sensor a holds %+v (%v)", stored, err)
	}
	if stored, err := storetest.Versioned(n, b, 0, 100); err != nil || len(stored) != 1 || stored[0].Version != 3000 {
		t.Fatalf("sensor b holds %+v (%v)", stored, err)
	}

	// The repair batch itself: 1000 readings of one sensor, no two
	// under one stamp, in one call.
	const batch = 1000
	vrs := make([]store.VersionedReading, batch)
	for i := range vrs {
		vrs[i] = store.VersionedReading{Timestamp: int64(1000 + i), Value: float64(i), Version: uint64(1000 * (i + 1))}
	}
	_, before := cl.NetBytes()
	if err := cl.InsertVersioned(sid(53, 3), vrs); err != nil {
		t.Fatal(err)
	}
	_, after := cl.NetBytes()
	if perReading := float64(after-before) / batch; perReading > 32.1 {
		t.Fatalf("a stamp-per-reading batch cost %.2f bytes a reading on the wire, want 32", perReading)
	}
	if calls, _ := callCounts(t, cl, "write"); calls != 2 {
		t.Fatalf("%d write calls, want 2", calls)
	}
	back, err := storetest.Versioned(n, sid(53, 3), 0, 1<<60)
	if err != nil || !reflect.DeepEqual(back, vrs) {
		t.Fatalf("the batch reads back as %d readings (%v), want the %d sent with their stamps", len(back), err, batch)
	}
}

// TestWALRecordIsTheWriteFrameBody: a frame sent to a durable node is
// logged as one record whose bytes after the type byte are the opWrite
// body the client sent — runs, stamps and all: one encoding on the wire
// and on disk.
func TestWALRecordIsTheWriteFrameBody(t *testing.T) {
	dir := t.TempDir()
	n := store.NewNode(0)
	if err := n.OpenOptions(dir, store.DiskOptions{}); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	srv := NewServer(n, true)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(srv.Addr(), ClientOptions{})
	defer cl.Close()

	id := sid(54, 1) // one sensor: one shard, one record
	es := []store.WriteEntry{entry(id, 1000, 1, 64), entry(id, 2000, 65, 1), entry(id, 3000, 66, 1), entry(id, 4000, 67, 1)}
	es[3].Expire = time.Now().Add(time.Hour).UnixNano()
	if errs := cl.WriteFrame(es); errs != nil {
		t.Fatal(errs)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var logged [][]byte
	for _, p := range segs {
		if data, err := os.ReadFile(p); err != nil {
			t.Fatal(err)
		} else if len(data) > 0 {
			logged = append(logged, data)
		}
	}
	body := store.AppendEntries(nil, es)
	if len(logged) != 1 {
		t.Fatalf("%d WAL segments hold data, want the one of the sensor's shard", len(logged))
	}
	rec := logged[0]
	if len(rec) != 8+1+len(body) || int(binary.BigEndian.Uint32(rec)) != 1+len(body) || rec[8] != 4 || !bytes.Equal(rec[9:], body) {
		t.Fatalf("the WAL holds %d bytes (type %d); want one type-4 record of the %d-byte frame body", len(rec), rec[8], len(body))
	}
}

// TestWritesDuringRebalanceStayReadableOverRPC is the store's
// union-write test with every member behind a loopback client: during
// a ring change a write goes, through the members' queues and opWrite,
// to the owners on both rings, its acknowledgement counted on the read
// ring alone, so every acknowledged write is readable at QUORUM before,
// during and after the cutover.
func TestWritesDuringRebalanceStayReadableOverRPC(t *testing.T) {
	var infos []store.MemberInfo
	for i := 0; i < 4; i++ {
		_, srv, _ := testPair(t, ClientOptions{})
		infos = append(infos, store.MemberInfo{ID: srv.Addr(), Addr: srv.Addr()})
	}
	c, err := store.NewClusterMembers(infos[:3], store.ClusterOptions{
		Replication:       2,
		WriteConsistency:  store.ConsistencyQuorum,
		ReadConsistency:   store.ConsistencyQuorum,
		RebalanceThrottle: 500 * time.Microsecond,
		BackendFactory: func(id, addr string) store.NodeBackend {
			return NewClient(addr, ClientOptions{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const sensors, seeded = 40, 20
	ids := make([]core.SensorID, sensors)
	for s := range ids {
		ids[s] = sid(uint64(s+1), uint64(s*7+3))
		if err := c.InsertBatch(ids[s], entry(ids[s], 0, 1, seeded).Readings, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetMembers(infos); err != nil {
		t.Fatal(err)
	}
	extra := make(map[int]int)
	midTransition := 0
	for i := 0; i < 200; i++ {
		s := i % sensors
		if storetest.Rebalancing(c) {
			midTransition++
		}
		if err := c.InsertBatch(ids[s], []core.Reading{rd(int64(1000+i), float64(i))}, 0); err == nil {
			extra[s]++
		}
	}
	if midTransition == 0 {
		t.Log("the transition closed before any racing write; union writes not exercised this run")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if !storetest.Rebalancing(c) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the rebalance did not finish")
		}
	}
	for s, id := range ids {
		rs, err := c.Query(id, 0, 1<<60)
		if err != nil {
			t.Fatalf("sensor %d: %v", s, err)
		}
		if want := seeded + extra[s]; len(rs) != want {
			t.Fatalf("sensor %d: %d readings after the rebalance, want %d", s, len(rs), want)
		}
	}
}
