package storetest

import (
	"fmt"
	"testing"

	"dcdb/internal/store"
)

// TestReadFormsAgreeOnConflict runs the conflict table over in-process
// replicas (internal/rpc runs it over loopback clients).
func TestReadFormsAgreeOnConflict(t *testing.T) {
	ConflictTable(t, func(t *testing.T) (*store.Cluster, map[string]*store.Node) {
		nodes := make(map[string]*store.Node)
		backends := make([]store.NodeBackend, 3)
		for i := range backends {
			n := store.NewNode(0)
			nodes[fmt.Sprintf("node%d", i)], backends[i] = n, n
		}
		c, err := store.NewClusterOptions(backends, store.ClusterOptions{
			Replication:     3,
			ReadConsistency: store.ConsistencyQuorum,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, nodes
	})
}
