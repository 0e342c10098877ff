package collectagent

import (
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/membership"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
)

// gossipBackend runs one storage node with a membership agent on its
// RPC server — the dcdbnode shape, in-process.
type gossipBackend struct {
	srv   *rpc.Server
	agent *membership.Agent
}

func startGossipBackend(t *testing.T, seeds ...string) *gossipBackend {
	t.Helper()
	n := store.NewNode(0)
	srv := rpc.NewServer(n, true)
	g := &gossipBackend{srv: srv}
	srv.SetGossip(func(peerState []byte) ([]byte, error) {
		if g.agent == nil {
			return nil, rpc.ErrGossipUnavailable
		}
		return g.agent.Handle(peerState)
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	a, err := membership.New(membership.Config{
		ID:       srv.Addr(),
		Interval: 10 * time.Millisecond,
		Seeds:    seeds,
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.agent = a
	if len(seeds) > 0 {
		_ = a.Join(seeds...)
	}
	a.Start()
	t.Cleanup(func() {
		a.Stop()
		srv.Close()
		n.Close()
	})
	return g
}

// TestOpenDiscoveredBackendFollowsMembership covers the agent's
// seed-discovery path end to end: the cluster is built from one seed
// address, serves replicated writes, and a WatchMembership poller
// applies a node joining the gossip ring — after the rebalance, the
// cluster coordinates over three members without ever having been
// given a node list.
func TestOpenDiscoveredBackendFollowsMembership(t *testing.T) {
	b0 := startGossipBackend(t)
	b1 := startGossipBackend(t, b0.srv.Addr())
	deadline := time.Now().Add(10 * time.Second)
	for {
		ms, err := membership.DiscoverRing(b0.srv.Addr())
		if err == nil && len(ms) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed never served a 2-member ring (err %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	seeds := []string{b0.srv.Addr()}
	cluster, err := OpenDiscoveredBackend(seeds, store.ClusterOptions{
		Replication:       2,
		WriteConsistency:  store.ConsistencyQuorum,
		ReadConsistency:   store.ConsistencyQuorum,
		RebalanceThrottle: -1,
	}, rpc.ClientOptions{DialTimeout: time.Second, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if n := len(cluster.Backends()); n != 2 {
		t.Fatalf("discovered cluster has %d members, want 2", n)
	}

	id := core.SensorID{Hi: 7, Lo: 7}
	rs := []core.Reading{{Timestamp: 1, Value: 1}, {Timestamp: 2, Value: 2}}
	if err := cluster.InsertBatch(id, rs, 0); err != nil {
		t.Fatal(err)
	}

	w, err := WatchMembership(cluster, seeds, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	// A third node joins the gossip ring; the watcher must grow the
	// cluster and the rebalance must converge.
	startGossipBackend(t, b1.srv.Addr())
	deadline = time.Now().Add(10 * time.Second)
	for {
		n := len(cluster.Backends())
		if n == 3 && !storetest.Rebalancing(cluster) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never followed the join: %d members", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, err := cluster.Query(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rs) {
		t.Fatalf("QUORUM read after the watched join returned %d of %d readings", len(got), len(rs))
	}
}

// TestOpenDiscoveredBackendErrors pins the failure modes: no seeds,
// and no seed answering.
func TestOpenDiscoveredBackendErrors(t *testing.T) {
	if _, err := OpenDiscoveredBackend(nil, store.ClusterOptions{}, rpc.ClientOptions{}); err == nil {
		t.Fatal("no seeds accepted")
	}
	if _, err := OpenDiscoveredBackend([]string{"127.0.0.1:1"}, store.ClusterOptions{}, rpc.ClientOptions{}); err == nil {
		t.Fatal("unreachable seed accepted")
	}
}
