// Package membershiptest starts in-process gossip clusters for tests of
// code that discovers its storage nodes from a seed.
package membershiptest

import (
	"sync/atomic"
	"testing"
	"time"

	"dcdb/internal/membership"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

// StartNodes runs n in-process storage nodes shaped like dcdbnode -join
// (an RPC server with a membership agent behind it) and returns their
// addresses once every one of them serves the full ring. The nodes stop
// with the test.
func StartNodes(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		node := store.NewNode(0)
		srv := rpc.NewServer(node, true)
		var agent atomic.Pointer[membership.Agent]
		srv.SetGossip(func(peerState []byte) ([]byte, error) {
			a := agent.Load()
			if a == nil {
				return nil, rpc.ErrGossipUnavailable
			}
			return a.Handle(peerState)
		})
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		a, err := membership.New(membership.Config{
			ID: srv.Addr(), Interval: 10 * time.Millisecond, Seeds: addrs,
			Logf: func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		agent.Store(a)
		if len(addrs) > 0 {
			_ = a.Join(addrs...) // the gossip rounds retry
		}
		a.Start()
		t.Cleanup(func() { a.Stop(); srv.Close(); node.Close() })
		addrs = append(addrs, srv.Addr())
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, seed := range addrs {
		for {
			ms, err := membership.DiscoverRing(seed)
			if err == nil && len(ms) == n {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never served a %d-member ring (err %v)", seed, n, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return addrs
}
