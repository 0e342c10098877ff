package rpc

import (
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/store"
)

// Wire coverage for what anti-entropy rides on: InsertVersioned (an
// opWrite frame), opQueryVersioned and opDigest must round-trip versions
// and digests exactly, because a version lost in transit reopens the
// stale-resurrection window the versions exist to close.

func TestRPCVersionedInsertQueryRoundtrip(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{})
	id := sid(7, 1)
	vrs := []store.VersionedReading{
		{Timestamp: 1, Value: 1.5, Version: 40},
		{Timestamp: 2, Value: 2.5, Version: 41},
	}
	if err := cl.InsertVersioned(id, vrs); err != nil {
		t.Fatalf("InsertVersioned: %v", err)
	}
	// A stale version over the wire must lose at the node's dedup.
	if err := cl.InsertVersioned(id, []store.VersionedReading{
		{Timestamp: 2, Value: 99, Version: 30},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := cl.QueryVersioned(id, 0, 1<<60)
	if err != nil {
		t.Fatalf("QueryVersioned: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("QueryVersioned returned %d readings, want 2", len(got))
	}
	for i, want := range vrs {
		if got[i].Timestamp != want.Timestamp || got[i].Value != want.Value ||
			got[i].Version != want.Version {
			t.Fatalf("reading %d: %+v, want %+v", i, got[i], want)
		}
	}
	// The remote view matches the node's own versioned read.
	direct, err := n.QueryVersioned(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if direct[i] != got[i] {
			t.Fatalf("remote %+v vs direct %+v at %d", got[i], direct[i], i)
		}
	}
}

func TestRPCDigestMatchesLocal(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{})
	id := sid(7, 2)
	if err := cl.InsertVersioned(id, []store.VersionedReading{
		{Timestamp: 1, Value: 10, Version: 1},
		{Timestamp: 2, Value: 20, Version: 2},
		{Timestamp: 3, Value: 30, Version: 3},
	}); err != nil {
		t.Fatal(err)
	}
	fp, count, err := cl.Digest(id, 0, 1<<60)
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	lfp, lcount, err := n.Digest(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if fp != lfp || count != lcount {
		t.Fatalf("remote digest (%x,%d) != local (%x,%d)", fp, count, lfp, lcount)
	}
	if count != 3 {
		t.Fatalf("digest count %d, want 3", count)
	}
	// A different range digests differently (the digest actually
	// depends on the data it covers).
	fp2, count2, err := cl.Digest(id, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if count2 != 2 || fp2 == fp {
		t.Fatalf("sub-range digest (%x,%d) should differ from full (%x,%d)", fp2, count2, fp, count)
	}
}

// TestRPCClusterAntiEntropyOverWire: the full repair loop where every
// replica is behind a TCP client — the deployment shape of the paper's
// multi-server backend. A diverged remote replica converges through
// digest comparison and versioned re-insert alone.
func TestRPCClusterAntiEntropyOverWire(t *testing.T) {
	nodes := make([]*store.Node, 2)
	backends := make([]store.NodeBackend, 2)
	for i := range nodes {
		nodes[i] = store.NewNode(0)
		srv := NewServer(nodes[i], true)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl := NewClient(srv.Addr(), ClientOptions{})
		t.Cleanup(func() { cl.Close() })
		backends[i] = cl
	}
	c, err := store.NewClusterOptions(backends, store.ClusterOptions{
		Replication:      2,
		WriteConsistency: store.ConsistencyOne,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := sid(7, 3)
	if err := c.InsertBatch(id, []core.Reading{rd(1, 1), rd(2, 2)}, 0); err != nil {
		t.Fatal(err)
	}
	nodes[1].SetDown(true)
	if err := c.Insert(id, rd(2, 99), 0); err != nil {
		t.Fatal(err)
	}
	nodes[1].SetDown(false)
	if err := c.RepairRound(); err != nil {
		t.Fatalf("RepairRound over RPC: %v", err)
	}
	for i, n := range nodes {
		rs, err := n.Query(id, 0, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 2 || rs[1].Value != 99 {
			t.Fatalf("node %d serves %v after wire repair, want ts2=99", i, rs)
		}
	}
}
