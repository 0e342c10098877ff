package store

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcdb/internal/core"
)

// Coverage for the hint-forwarding machinery around departed members:
// what the cutover's merge finds a target lacking, delete hints
// forwarded through current owners beside a refused type-1 hint, and
// the three deliverHints dispositions.

// TestVersionedMissing: what a rebalance target lacks, as the replica
// merge works it out against the source's copy.
func TestVersionedMissing(t *testing.T) {
	vr := func(ts int64, ver uint64) VersionedReading {
		return VersionedReading{Timestamp: ts, Value: float64(ts), Version: ver}
	}
	source := []VersionedReading{vr(1, 5), vr(2, 5), vr(3, 5)}
	missing := func(target []VersionedReading) []VersionedReading {
		_, lacks := mergeOf(t, source, target)
		return lacks[1]
	}

	// Exact containment: nothing missing.
	if got := missing(source); len(got) != 0 {
		t.Fatalf("identical sets reported %d missing", len(got))
	}
	// Newer target versions hold the winners (live ingest wrote over
	// the moved range while the transfer streamed).
	if got := missing([]VersionedReading{vr(1, 9), vr(2, 5), vr(3, 7)}); len(got) != 0 {
		t.Fatalf("newer versions reported %d missing", len(got))
	}
	// A missing timestamp and a stale version are both gaps.
	got := missing([]VersionedReading{vr(1, 5), vr(3, 4)})
	if len(got) != 2 || got[0] != source[1] || got[1] != source[2] {
		t.Fatalf("missing = %v, want ts 2 (absent) and ts 3 (stale)", got)
	}
	// Extra target-only readings never create gaps.
	if got := missing([]VersionedReading{vr(0, 1), vr(1, 5), vr(2, 5), vr(3, 5), vr(4, 1)}); len(got) != 0 {
		t.Fatalf("superset reported %d missing", len(got))
	}
	// The same version with lower value bits loses the tiebreak, so the
	// target lacks the winner and is rewritten; with higher bits the
	// target's copy is the winner.
	other := []VersionedReading{vr(1, 5), {Timestamp: 2, Value: 1, Version: 5}, vr(3, 5)}
	if got := missing(other); len(got) != 1 || got[0] != source[1] {
		t.Fatalf("same version, lower bits: missing = %v, want ts 2", got)
	}
	other[1].Value = 9
	if got := missing(other); len(got) != 0 {
		t.Fatalf("same version, higher bits: missing = %v, want none", got)
	}
}

// TestForwardedDeleteAndLegacyHints drives what the versioned-insert
// forwarding test does not reach: a delete hint queued for a member
// that then leaves the ring must re-coordinate through the current
// owners, and a type-1 insert hint (the unstamped record of older
// coordinators) queued for another departed member is refused by name
// and kept, without holding up the delete.
func TestForwardedDeleteAndLegacyHints(t *testing.T) {
	dir := t.TempDir()
	c, nodes := ringCluster(t, []string{"alpha", "bravo", "charlie"}, ClusterOptions{
		Replication:        3,
		WriteConsistency:   ConsistencyQuorum,
		ReadConsistency:    ConsistencyQuorum,
		HintDir:            dir,
		HintReplayInterval: -1, // replay manually
	})
	defer c.Close()

	id := sid(41, 13)
	rs := []core.Reading{
		{Timestamp: 1, Value: 1}, {Timestamp: 2, Value: 2},
		{Timestamp: 3, Value: 3}, {Timestamp: 4, Value: 4},
	}
	if err := c.InsertBatch(id, rs, 0); err != nil {
		t.Fatal(err)
	}

	// One replica goes down; a QUORUM delete still acks and queues a
	// delete hint for it.
	nodes["charlie"].SetDown(true)
	if err := c.DeleteBefore(id, 3); err != nil {
		t.Fatalf("QUORUM delete with one down replica: %v", err)
	}
	if _, _, pending := c.HintStats(); pending == 0 {
		t.Fatal("no delete hint queued for the down replica")
	}
	// A type-1 insert hint, as an older coordinator build wrote it, for
	// a member no longer on the ring.
	legacy := sid(42, 14)
	if err := c.hints.enqueue("delta", framed(type1Payload(legacy, []core.Reading{{Timestamp: 7, Value: 7}}, 0)), 1); err != nil {
		t.Fatal(err)
	}

	// The member leaves instead of recovering; after the cutover its
	// delete hint forwards through the remaining owners, while the
	// type-1 hint is refused and stays queued.
	if err := c.SetMembers([]MemberInfo{
		{ID: "alpha", Addr: "alpha"}, {ID: "bravo", Addr: "bravo"},
	}); err != nil {
		t.Fatal(err)
	}
	waitRebalance(t, c)
	err := c.ReplayHints()
	if !errors.Is(err, errWALRecordUnreadable) || !strings.Contains(err.Error(), filepath.Join(c.hints.dir, "delta")) ||
		!strings.Contains(err.Error(), "type 1 at offset 0; "+oldRecordWayOut) {
		t.Fatalf("forwarding a departed member's type-1 hint: %v, want its refusal with the way out", err)
	}
	if c.hints.has("charlie") || !c.hints.has("delta") {
		t.Fatalf("pending hints: charlie %v, delta %v; want only delta's", c.hints.has("charlie"), c.hints.has("delta"))
	}

	got, err := c.Query(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Timestamp != 3 || got[1].Timestamp != 4 {
		t.Fatalf("after forwarded delete: %v, want ts 3 and 4 only", got)
	}
	if lg, err := c.Query(legacy, 0, 1<<60); err != nil || len(lg) != 0 {
		t.Fatalf("a refused type-1 hint was applied: %v, %v", lg, err)
	}
}

// TestDeliverHintsDispositions pins deliverHints' three outcomes: a
// down in-topology member keeps its hints, a mid-transition departed
// member defers, and a recovered member gets its replay.
func TestDeliverHintsDispositions(t *testing.T) {
	dir := t.TempDir()
	c, nodes := ringCluster(t, []string{"alpha", "bravo", "charlie"}, ClusterOptions{
		Replication:        3,
		WriteConsistency:   ConsistencyQuorum,
		ReadConsistency:    ConsistencyQuorum,
		HintDir:            dir,
		HintReplayInterval: -1,
	})
	defer c.Close()

	id := sid(77, 3)
	nodes["charlie"].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if !c.hints.has("charlie") {
		t.Fatal("no hint queued for the down replica")
	}

	// In topology, still down: attempted with an error; hints stay.
	attempted, err := c.deliverHints(c.top(), "charlie")
	if !attempted || err == nil {
		t.Fatalf("down member: attempted=%v err=%v, want attempted with ping failure", attempted, err)
	}
	if !c.hints.has("charlie") {
		t.Fatal("failed delivery dropped the hints")
	}

	// Departed mid-transition: not attempted — forwards must wait for
	// the cutover so they resolve against final owners.
	cur := c.top()
	mid := newTopology(cur.members, cur.ring, cur.ring)
	if attempted, err := c.deliverHints(mid, "no-such-member"); attempted || err != nil {
		t.Fatalf("mid-transition departed member: attempted=%v err=%v, want deferred", attempted, err)
	}

	// Recovered: the replay lands and the queue drains.
	nodes["charlie"].SetDown(false)
	if attempted, err := c.deliverHints(c.top(), "charlie"); !attempted || err != nil {
		t.Fatalf("recovered member: attempted=%v err=%v", attempted, err)
	}
	if c.hints.has("charlie") {
		t.Fatal("hints still queued after a successful replay")
	}
	rs, err := nodes["charlie"].Query(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Value != 1 {
		t.Fatalf("replica after replay: %v", rs)
	}
}

// TestRingScatterQuorumBound covers checkPrefixQuorum: a
// scatter read at QUORUM must fail while any replica window of the read
// ring lacks a quorum of live members, and recover when the member
// answers again.
func TestRingScatterQuorumBound(t *testing.T) {
	c, nodes := ringCluster(t, []string{"alpha", "bravo", "charlie"}, ClusterOptions{
		Replication:      2,
		WriteConsistency: ConsistencyOne,
		ReadConsistency:  ConsistencyQuorum,
	})
	defer c.Close()
	ids := seedSensors(t, c, 20, 5)

	nodes["bravo"].SetDown(true)
	if _, err := drainPrefix(c.QueryPrefixStream(core.SensorID{}, 0, 0, 1<<60)); err == nil {
		t.Fatal("scatter read at QUORUM succeeded with a down member in every window containing it")
	}
	nodes["bravo"].SetDown(false)
	got, err := drainPrefix(c.QueryPrefixStream(core.SensorID{}, 0, 0, 1<<60))
	if err != nil {
		t.Fatalf("scatter read after recovery: %v", err)
	}
	if len(got) != len(ids) {
		t.Fatalf("scatter read returned %d sensors, want %d", len(got), len(ids))
	}

	// Replication above the member count means "everywhere": the quorum
	// is of the three copies that exist, so one member down still serves.
	wide, wnodes := ringCluster(t, []string{"alpha", "bravo", "charlie"}, ClusterOptions{
		Replication:     5,
		ReadConsistency: ConsistencyQuorum,
	})
	defer wide.Close()
	seedSensors(t, wide, 5, 2)
	wnodes["bravo"].SetDown(true)
	if got, err := drainPrefix(wide.QueryPrefixStream(core.SensorID{}, 0, 0, 1<<60)); err != nil || len(got) != 5 {
		t.Fatalf("scatter read with 2 of 3 copies live: %d sensors, %v", len(got), err)
	}
}

// TestRebalanceRetriesUntilTargetRecovers drives the transfer's failure
// loop deterministically: the joining member is down when the
// transition starts, so rebalance rounds fail and back off; once the
// member answers the transfer completes and cuts over. The joiner also
// holds pre-existing data the old owners lack, which the merge reads
// beside theirs.
func TestRebalanceRetriesUntilTargetRecovers(t *testing.T) {
	c, nodes := ringCluster(t, []string{"alpha", "bravo"}, ClusterOptions{
		Replication:      1,
		WriteConsistency: ConsistencyOne,
		ReadConsistency:  ConsistencyOne,
	})
	defer c.Close()
	ids := seedSensors(t, c, 20, 10)

	// The joiner exists before the transition: it already holds foreign
	// readings for a seeded sensor and it is down (so the first transfer
	// rounds fail outright).
	joiner := NewNode(0)
	if err := joiner.InsertBatch(ids[0], []core.Reading{
		{Timestamp: 500, Value: 500}, {Timestamp: 501, Value: 501},
	}, 0); err != nil {
		t.Fatal(err)
	}
	joiner.SetDown(true)
	nodes["charlie"] = joiner

	if err := c.SetMembers([]MemberInfo{
		{ID: "alpha", Addr: "alpha"}, {ID: "bravo", Addr: "bravo"}, {ID: "charlie", Addr: "charlie"},
	}); err != nil {
		t.Fatal(err)
	}
	// Let at least one round fail against the down joiner.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rebalancing(t, c) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("transition never started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if !rebalancing(t, c) {
		t.Fatal("transition completed against a down joiner")
	}

	joiner.SetDown(false)
	waitRebalance(t, c)
	checkSensors(t, c, ids, 10)
	if ins, _, _ := joiner.Stats(); ins == 0 {
		t.Fatal("no data moved to the recovered joiner")
	}
}

// TestForwardedVersionedHintRehints covers the two failure
// dispositions of a departed member's hints re-coordinated through the
// current owners: below write quorum the forward fails outright and the
// hints stay; at quorum with one current owner down the forward acks
// and re-hints the missed owner.
func TestForwardedVersionedHintRehints(t *testing.T) {
	dir := t.TempDir()
	c, nodes := ringCluster(t, []string{"alpha", "bravo", "charlie", "delta"}, ClusterOptions{
		Replication:        3,
		WriteConsistency:   ConsistencyQuorum,
		ReadConsistency:    ConsistencyQuorum,
		HintDir:            dir,
		HintReplayInterval: -1,
	})
	defer c.Close()

	// Pick a sensor whose rf=3 replica set includes charlie (placement
	// is deterministic, so probe rather than hardcode).
	var id core.SensorID
	found := false
	top := c.top()
	for probe := uint64(1); probe < 256 && !found; probe++ {
		cand := sid(55, probe)
		for _, idx := range c.readReplicas(top, cand) {
			if top.members[idx].id == "charlie" {
				id, found = cand, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no probed sensor places on charlie")
	}
	nodes["charlie"].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if !c.hints.has("charlie") {
		t.Fatal("no hint queued for the down replica")
	}

	// The hinted member leaves; three members remain, so every sensor's
	// replica set at rf=3 is all of them.
	if err := c.SetMembers([]MemberInfo{
		{ID: "alpha", Addr: "alpha"}, {ID: "bravo", Addr: "bravo"}, {ID: "delta", Addr: "delta"},
	}); err != nil {
		t.Fatal(err)
	}
	waitRebalance(t, c)

	// Two of three owners down: the forward cannot meet QUORUM and must
	// keep the hints for a later attempt.
	nodes["bravo"].SetDown(true)
	nodes["delta"].SetDown(true)
	if err := c.ReplayHints(); err == nil {
		t.Fatal("forwarding below write quorum succeeded")
	}
	if !c.hints.has("charlie") {
		t.Fatal("failed forward dropped the departed member's hints")
	}

	// One owner back: the forward acks at QUORUM and the reading missed
	// by the still-down owner is re-hinted under its own queue.
	nodes["bravo"].SetDown(false)
	if err := c.ReplayHints(); err != nil {
		t.Fatalf("forwarding at quorum: %v", err)
	}
	if c.hints.has("charlie") {
		t.Fatal("departed member's queue survived a successful forward")
	}
	if !c.hints.has("delta") {
		t.Fatal("owner that missed the forward was not re-hinted")
	}
	nodes["delta"].SetDown(false)
	if err := c.ReplayHints(); err != nil {
		t.Fatalf("draining the re-hint: %v", err)
	}
	rs, err := nodes["delta"].Query(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Value != 1 {
		t.Fatalf("re-hinted owner holds %v", rs)
	}
	// The client wrote once; neither the failed forward nor the one
	// that succeeded is a write of its.
	if ok, failed := c.met.writesOK.Load(), c.met.writesFailed.Load(); ok != 1 || failed != 0 {
		t.Fatalf("write counters ok=%d failed=%d after one client write and two forwards, want 1 and 0", ok, failed)
	}
}
