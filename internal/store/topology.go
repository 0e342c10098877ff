package store

import (
	"fmt"
	"slices"
	"sort"

	"dcdb/internal/core"
	"dcdb/internal/ring"
)

// Topology: the cluster's member set is an immutable snapshot swapped
// atomically, so every operation resolves its replicas against one
// consistent view — a membership change mid-query can never mix two
// rings inside one fan-out. There is one placement: members are keyed
// by stable identity (their advertised address; node<i> for an
// in-process node) on a consistent-hash ring with virtual nodes
// (internal/ring), and a sensor is looked up by its placement key
// (Cluster.placementKey). Any coordinator that learns the same member
// set — from gossip, from a seed node, from an address list — derives
// bit-identical placement, and SetMembers can grow or shrink the ring
// live; a fixed node list is a ring that never changes.
//
// During a ring change the snapshot carries BOTH rings: prevRing (the
// ring reads trust — every acknowledged write is there) and ring (the
// target). Writes fan to the union of both rings' owners with the
// ack requirement anchored to the read ring, reads resolve against
// prevRing only, and the background rebalance (cluster_rebalance.go)
// streams moved ranges to their new owners before the cutover drops
// prevRing. That ordering is the zero-loss invariant: at every instant
// a QUORUM read intersects every acknowledged QUORUM write.

// member is one topology entry: a backend plus the stable identity the
// ring, the hint queue and the membership layer all key on, and the
// write queue every entry for it travels through (cluster_write.go),
// shared by every topology snapshot the member appears in.
type member struct {
	id      string
	addr    string
	backend NodeBackend
	queue   *writeQueue
}

// wire gives a member that enters the topology its write queue, which
// hands frames to FramesOf its backend.
func (c *Cluster) wire(m *member) {
	m.queue = &writeQueue{c: c, fw: FramesOf(m.backend)}
}

// MemberInfo names one cluster member for SetMembers /
// NewClusterMembers: a stable ID (conventionally the node's advertised
// address) and the address a backend can be built from.
type MemberInfo struct {
	ID   string
	Addr string
}

// topology is one immutable member-set snapshot.
type topology struct {
	members []member
	byID    map[string]int
	// ring is the target placement.
	ring *ring.Ring
	// prevRing, when non-nil, marks an in-progress rebalance: reads
	// resolve here, writes fan to the union of both rings.
	prevRing *ring.Ring
}

// readRing returns the ring reads (and ack requirements) anchor to.
func (t *topology) readRing() *ring.Ring {
	if t.prevRing != nil {
		return t.prevRing
	}
	return t.ring
}

// newTopology indexes a member list.
func newTopology(members []member, target, prev *ring.Ring) *topology {
	t := &topology{
		members:  members,
		byID:     make(map[string]int, len(members)),
		ring:     target,
		prevRing: prev,
	}
	for i := range members {
		t.byID[members[i].id] = i
	}
	return t
}

// all lists every member index, in snapshot order: the replica list of
// a fan-out to the whole member set.
func (t *topology) all() []int {
	idxs := make([]int, len(t.members))
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// top loads the current topology snapshot. Operations load it once at
// entry and resolve everything against that one view.
func (c *Cluster) top() *topology { return c.topo.Load() }

// readReplicas yields the member indices serving reads for a sensor,
// primary first: the read ring's clockwise walk from its placement key.
func (c *Cluster) readReplicas(t *topology, id core.SensorID) []int {
	ids := t.readRing().ReplicasFor(c.placementKey(id), c.replication)
	out := make([]int, 0, len(ids))
	for _, mid := range ids {
		if idx, ok := t.byID[mid]; ok {
			out = append(out, idx)
		}
	}
	return out
}

// writeReplicas yields the indices a write fans to, and readN — how
// many of them (a prefix) form the read set the ack requirement is
// computed over. Outside a transition the two sets coincide. During
// one, the new ring's owners are appended after the read set: they
// receive every write (so post-cutover reads find data written during
// the move) but their acks never count toward the consistency level —
// an acked write must be readable NOW, on the read ring.
func (c *Cluster) writeReplicas(t *topology, id core.SensorID) (idxs []int, readN int) {
	idxs = c.readReplicas(t, id)
	readN = len(idxs)
	if t.prevRing == nil {
		return idxs, readN
	}
	for _, mid := range t.ring.ReplicasFor(c.placementKey(id), c.replication) {
		if idx, ok := t.byID[mid]; ok && !slices.Contains(idxs[:readN], idx) {
			idxs = append(idxs, idx)
		}
	}
	return idxs, readN
}

// replicasFor yields the node indices holding a sensor, primary first,
// resolved against the current snapshot. (Kept as the package-internal
// convenience for tests and single-shot callers; multi-step operations
// load one snapshot and use readReplicas.)
func (c *Cluster) replicasFor(id core.SensorID) []int {
	return c.readReplicas(c.top(), id)
}

// checkPrefixQuorum applies the conservative prefix-read bound to a
// fan-out's per-member error slots: every replica set the read ring
// could assign (its distinct successor sets) must retain as many live
// members as the read consistency requires — a quorum, or at ONE one,
// so that no replica set's sensors go missing from the answer.
func (c *Cluster) checkPrefixQuorum(t *topology, errs []error, firstErr error) error {
	r := t.readRing()
	required := c.readCL.required(min(c.replication, r.Size()))
	for _, win := range r.Windows(c.replication) {
		ok := 0
		for _, mid := range win {
			if idx, found := t.byID[mid]; found && errs[idx] == nil {
				ok++
			}
		}
		if ok < required {
			return fmt.Errorf("store: read consistency %s not met for replica set %v (%d/%d): %w",
				c.readCL, win, ok, required, firstErr)
		}
	}
	return nil
}

// SetMembers installs a new member set. Backends for
// IDs already in the topology are reused; new members are built with
// the cluster's BackendFactory. If placement changes, the swap is a
// transition — reads stay on the old ring, writes fan to the union,
// and a background rebalance streams moved ranges before cutting over
// (see cluster_rebalance.go). Members leaving keep serving reads until
// the cutover; their backends are retired afterwards. A SetMembers
// arriving mid-transition re-targets the rebalance: reads keep
// anchoring to the ring they have trusted all along.
func (c *Cluster) SetMembers(ms []MemberInfo) error {
	if len(ms) == 0 {
		return fmt.Errorf("store: SetMembers needs at least one member")
	}
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if c.closed.Load() {
		return fmt.Errorf("store: cluster closed")
	}
	cur := c.top()
	ids := make([]string, 0, len(ms))
	byID := make(map[string]MemberInfo, len(ms))
	for _, m := range ms {
		if m.ID == "" {
			return fmt.Errorf("store: member with empty ID")
		}
		if _, dup := byID[m.ID]; dup {
			continue
		}
		byID[m.ID] = m
		ids = append(ids, m.ID)
	}
	sort.Strings(ids)
	target := ring.New(ids, ring.DefaultVNodes)
	if target.Equal(cur.ring) {
		return nil // placement unchanged; any in-flight rebalance stands
	}

	// The read ring never moves during a transition: a re-target keeps
	// anchoring reads (and the rebalance source) to the ring every
	// acknowledged write reached.
	readRing := cur.readRing()

	// Union member list: everyone on the target ring, plus old members
	// the read ring still needs until cutover.
	var members []member
	taken := make(map[string]struct{}, len(ids))
	addByID := func(id string) error {
		if _, dup := taken[id]; dup {
			return nil
		}
		taken[id] = struct{}{}
		if idx, ok := cur.byID[id]; ok {
			members = append(members, cur.members[idx])
			return nil
		}
		info, ok := byID[id]
		if !ok {
			return fmt.Errorf("store: read ring member %s missing from both topologies", id)
		}
		if c.factory == nil {
			return fmt.Errorf("store: no BackendFactory to build a backend for new member %s", id)
		}
		b := c.factory(info.ID, info.Addr)
		if b == nil {
			return fmt.Errorf("store: BackendFactory returned nil for member %s", id)
		}
		m := member{id: info.ID, addr: info.Addr, backend: b}
		c.wire(&m)
		members = append(members, m)
		return nil
	}
	for _, id := range ids {
		if err := addByID(id); err != nil {
			return err
		}
	}
	for _, id := range readRing.Members() {
		if err := addByID(id); err != nil {
			return err
		}
	}

	next := newTopology(members, target, readRing)
	c.topo.Store(next)
	c.met.rebTransitions.Inc()
	gen := c.rebGen.Add(1)
	c.rebWG.Add(1)
	go c.rebalance(gen, c.ver.Load())
	return nil
}

// retire queues backends for closing at Cluster.Close. In-flight
// operations may still hold snapshots pointing at a retired backend,
// so retirement defers the actual Close — the cost is one idle client
// per departed member for the coordinator's lifetime.
func (c *Cluster) retire(bs []NodeBackend) {
	c.retiredMu.Lock()
	c.retired = append(c.retired, bs...)
	c.retiredMu.Unlock()
}
