package collectagent

import (
	"math/rand"
	"slices"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

// TestPlacementAgreement: a coordinator handed the node addresses and
// one handed the member identities gossip reports derive the same
// owners for every sensor — the -nodes a,b,c and -join a forms of one
// cluster can be mixed freely across agents and tools.
func TestPlacementAgreement(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		n := store.NewNode(0)
		srv := rpc.NewServer(n, true)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); n.Close() })
		addrs = append(addrs, srv.Addr())
	}
	ms := make([]store.MemberInfo, len(addrs))
	for i, a := range addrs {
		ms[i] = store.MemberInfo{ID: a, Addr: a}
	}
	// The list need not be in any particular order.
	listed := []string{addrs[2], addrs[0], addrs[1]}
	for _, depth := range []int{0, 2, 4} {
		co := store.ClusterOptions{Partitioner: store.RingPartitioner{Depth: depth}, Replication: 2}
		fromList, err := OpenRemoteBackend(listed, co, rpc.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		co.BackendFactory = func(id, addr string) store.NodeBackend { return rpc.NewClient(addr, rpc.ClientOptions{}) }
		fromMembers, err := store.NewClusterMembers(ms, co)
		if err != nil {
			t.Fatal(err)
		}
		rnd := rand.New(rand.NewSource(int64(depth) + 1))
		for i := 0; i < 1000; i++ {
			id := core.SensorID{Hi: rnd.Uint64(), Lo: rnd.Uint64()}
			a, b := fromList.Owners(id), fromMembers.Owners(id)
			if len(a) != 2 || !slices.Equal(a, b) {
				t.Fatalf("depth %d, %v: address list places it on %v, member set on %v", depth, id, a, b)
			}
		}
		fromList.Close()
		fromMembers.Close()
	}
}
