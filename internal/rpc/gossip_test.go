package rpc

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/store"
)

// TestGossipOp covers the opGossip frame end to end at the rpc layer:
// the payload is opaque — the server hands it to the registered handler
// and returns whatever the handler produces, over the same framed
// connections the data path uses.
func TestGossipOp(t *testing.T) {
	srv := NewServer(store.NewNode(0), true)
	var got []byte
	srv.SetGossip(func(peerState []byte) ([]byte, error) {
		got = append([]byte(nil), peerState...)
		return append([]byte("reply:"), peerState...), nil
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(srv.Addr(), ClientOptions{})
	defer cl.Close()

	state := []byte("push-pull-state")
	reply, err := cl.Gossip(state)
	if err != nil {
		t.Fatalf("Gossip: %v", err)
	}
	if !bytes.Equal(got, state) {
		t.Fatalf("handler saw %q, want %q", got, state)
	}
	if want := append([]byte("reply:"), state...); !bytes.Equal(reply, want) {
		t.Fatalf("Gossip reply %q, want %q", reply, want)
	}
}

// TestGossipOpWithoutHandler: a node that does not serve membership
// must reject gossip frames with a telling error, not hang or panic.
func TestGossipOpWithoutHandler(t *testing.T) {
	_, srv, cl := testPair(t, ClientOptions{})
	_ = srv
	_, err := cl.Gossip([]byte("hello"))
	if err == nil {
		t.Fatal("Gossip against a non-gossiping node succeeded")
	}
	if !strings.Contains(err.Error(), "membership gossip") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestFireAndForgetOpsAgainstDeadNode: the advisory calls must degrade
// quietly when the peer is unreachable — Compact just logs, SensorIDs
// returns nil, StatsFull surfaces the unavailability.
func TestFireAndForgetOpsAgainstDeadNode(t *testing.T) {
	cl := NewClient("127.0.0.1:1", ClientOptions{DialTimeout: 50 * time.Millisecond})
	defer cl.Close()
	cl.Compact() // must not panic or block
	if ids := cl.SensorIDs(); ids != nil {
		t.Fatalf("SensorIDs against a dead node = %v", ids)
	}
	if _, _, _, _, err := cl.StatsFull(); err == nil {
		t.Fatal("StatsFull against a dead node succeeded")
	}
}

// TestCompactOverRPC covers the success half of the fire-and-forget op.
func TestCompactOverRPC(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{})
	if err := cl.InsertBatch(sid(3, 4), []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	cl.Compact()
	if err := cl.Ping(); err != nil {
		t.Fatalf("node unhealthy after remote compact: %v", err)
	}
	_ = n
}
