package store

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/ring"
)

// TestPlacementLocality: every sensor sharing the placement-key prefix
// has one replica set (paper §4.3: a sub-tree maps to one server) — on
// the read ring and, mid-transition, on the union the writes fan to.
func TestPlacementLocality(t *testing.T) {
	ids := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for _, depth := range []int{2, 4, 6} {
		c, _ := ringCluster(t, ids, ClusterOptions{
			Partitioner: RingPartitioner{Depth: depth},
			Replication: 2,
		})
		// A join in flight: reads on the four-member ring, writes also to
		// the five-member one.
		cur := c.top()
		mid := newTopology(cur.members, cur.ring, ring.New(ids[:4], 0))
		rnd := rand.New(rand.NewSource(int64(depth)))
		for subtree := 0; subtree < 200; subtree++ {
			base := core.SensorID{Hi: rnd.Uint64(), Lo: rnd.Uint64()}.Prefix(depth)
			wantRead := c.readReplicas(mid, base)
			wantWrite, _ := c.writeReplicas(mid, base)
			for leaf := 0; leaf < 8; leaf++ {
				// Same first depth levels, random levels below.
				r := core.SensorID{Hi: rnd.Uint64(), Lo: rnd.Uint64()}
				rp := r.Prefix(depth)
				id := core.SensorID{Hi: base.Hi | (r.Hi ^ rp.Hi), Lo: base.Lo | (r.Lo ^ rp.Lo)}
				if id.Prefix(depth) != base {
					t.Fatalf("test bug: %v does not share prefix %v", id, base)
				}
				if got := c.readReplicas(mid, id); !slices.Equal(got, wantRead) {
					t.Fatalf("depth %d: read replicas %v for %v, %v for its prefix", depth, got, id, wantRead)
				}
				if got, _ := c.writeReplicas(mid, id); !slices.Equal(got, wantWrite) {
					t.Fatalf("depth %d: write replicas %v for %v, %v for its prefix", depth, got, id, wantWrite)
				}
			}
			if len(wantWrite) < len(wantRead) {
				t.Fatalf("write set %v smaller than read set %v", wantWrite, wantRead)
			}
		}
		c.Close()
	}
}

// TestPlacementZeroValueCompat pins RingPartitioner{} to the placement
// a -join cluster had before the key took a depth: the owners of 32
// SIDs on a fixed member set, recorded from the build that hashed the
// full SID unconditionally. Digits index the member list, primary
// first.
func TestPlacementZeroValueCompat(t *testing.T) {
	members := []string{"127.0.0.1:4441", "127.0.0.1:4442", "127.0.0.1:4443"}
	recorded := strings.Fields("10 02 21 20 01 02 20 21 02 02 21 01 20 12 10 20 " +
		"21 10 21 20 01 01 02 20 02 10 02 10 01 21 10 01")
	c, _ := ringCluster(t, members, ClusterOptions{Replication: 2})
	defer c.Close()
	for i, want := range recorded {
		id := core.SensorID{Hi: uint64(i+1) * 0x9e3779b97f4a7c15, Lo: uint64(i+1)*0xbf58476d1ce4e5b9 + 1}
		got := ""
		for _, owner := range c.Owners(id) {
			got += string(rune('0' + slices.Index(members, owner)))
		}
		if got != want {
			t.Errorf("SID %d: owners %s, recorded %s", i, got, want)
		}
	}
}
