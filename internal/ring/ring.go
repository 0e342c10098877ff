// Package ring is the consistent-hash placement function shared by
// every coordinator: given the same member-ID set, every caller —
// collect agents, query tools, rebalance — derives bit-identical
// replica placement with no coordination, which is what lets nodes
// join and leave without restarting anything (the membership half of
// the paper's "monitoring that survives the facility" argument).
//
// The ring hashes each member ID at VNodes virtual positions; a key's
// replica set is the first R distinct members walking clockwise from
// the key's hash. Virtual nodes smooth the per-member load imbalance
// from O(1) ranges per member to O(VNodes) smaller ones, and — the
// property rebalance depends on — adding one member moves only the
// ranges that member now owns, not a full reshuffle like modulo
// placement.
//
// The package is a leaf (no dcdb imports) because both internal/store
// (the coordinator) and internal/membership (which rides internal/rpc,
// which imports store) need it; anything higher in the graph would
// cycle.
package ring

import (
	"fmt"
	"slices"
	"sort"
)

// DefaultVNodes is the house virtual-node count: 64 positions per
// member keeps the max/mean ownership ratio under ~1.25 for small
// clusters while the whole ring stays a few KB.
const DefaultVNodes = 64

// point is one virtual node: a position on the hash circle owned by a
// member (an index into Ring.ids).
type point struct {
	hash   uint64
	member int
}

// Ring is an immutable consistent-hash ring over a member-ID set.
// Construction is deterministic: IDs are deduplicated and sorted
// before hashing, so the input order never changes placement.
type Ring struct {
	ids    []string
	points []point
	vnodes int
}

// New builds a ring over ids with v virtual nodes per member (v <= 0
// selects DefaultVNodes). An empty ID set yields an empty ring (every
// lookup returns nil).
func New(ids []string, v int) *Ring {
	if v <= 0 {
		v = DefaultVNodes
	}
	uniq := make([]string, 0, len(ids))
	seen := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		uniq = append(uniq, id)
	}
	sort.Strings(uniq)
	r := &Ring{ids: uniq, vnodes: v, points: make([]point, 0, len(uniq)*v)}
	for m, id := range uniq {
		for k := 0; k < v; k++ {
			r.points = append(r.points, point{hash: vnodeHash(id, k), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full-64-bit collision between two members is astronomically
		// unlikely but must still order deterministically.
		return r.ids[r.points[i].member] < r.ids[r.points[j].member]
	})
	return r
}

// vnodeHash positions virtual node k of a member on the circle:
// FNV-1a over the ID bytes and the vnode index, finished with a
// murmur-style avalanche so every input bit reaches every output bit
// (bare FNV clusters badly on short common-prefix IDs like addresses).
func vnodeHash(id string, k int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * prime
	}
	h = (h ^ uint64(k&0xff)) * prime
	h = (h ^ uint64((k>>8)&0xff)) * prime
	h = (h ^ uint64((k>>16)&0xff)) * prime
	h = (h ^ uint64((k>>24)&0xff)) * prime
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Members returns the ring's member IDs in sorted order. The slice is
// shared; callers must not mutate it.
func (r *Ring) Members() []string { return r.ids }

// Size returns the number of distinct members.
func (r *Ring) Size() int { return len(r.ids) }

// VNodes returns the configured virtual nodes per member.
func (r *Ring) VNodes() int { return r.vnodes }

// ReplicasFor returns the IDs of the rf distinct members owning a
// key's replicas, primary first: the owners of the first rf distinct
// members met walking clockwise from hash. rf is capped at the member
// count; an empty ring returns nil.
func (r *Ring) ReplicasFor(hash uint64, rf int) []string {
	if len(r.ids) == 0 || rf < 1 {
		return nil
	}
	if rf > len(r.ids) {
		rf = len(r.ids)
	}
	// First point at or after hash, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	// rf is a handful at most, so scanning out for a member already
	// taken beats a set — and the lookup allocates only its result.
	out := make([]string, 0, rf)
	for n := 0; n < len(r.points) && len(out) < rf; n++ {
		id := r.ids[r.points[(i+n)%len(r.points)].member]
		if !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// Windows enumerates every distinct replica set the ring can assign at
// replication factor rf — the successor set starting at each virtual
// node, deduplicated. A prefix query that fans to all members uses
// this for its conservative quorum bound: if every window retains a
// quorum of live members, every sensor the prefix could own does too.
func (r *Ring) Windows(rf int) [][]string {
	if len(r.ids) == 0 || rf < 1 {
		return nil
	}
	if rf > len(r.ids) {
		rf = len(r.ids)
	}
	seen := make(map[string]struct{})
	var out [][]string
	for i := range r.points {
		w := r.ReplicasFor(r.points[i].hash, rf)
		key := fmt.Sprint(w)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, w)
	}
	return out
}

// Equal reports whether two rings assign identical placement: same
// member set and same virtual-node count. (Placement is a pure
// function of those two inputs.)
func (r *Ring) Equal(o *Ring) bool {
	if r == nil || o == nil {
		return r == o
	}
	if r.vnodes != o.vnodes || len(r.ids) != len(o.ids) {
		return false
	}
	for i := range r.ids {
		if r.ids[i] != o.ids[i] {
			return false
		}
	}
	return true
}
