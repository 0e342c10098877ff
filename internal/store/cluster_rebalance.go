package store

import (
	"errors"
	"fmt"
	"log"
	"time"

	"dcdb/internal/backoff"
	"dcdb/internal/core"
	"dcdb/internal/fold"
)

// Streaming rebalance: the background half of a ring transition. While
// the topology carries both rings (topology.go), every write already
// fans to the union of old and new owners — so the rebalancer only has
// to move HISTORY: for each sensor whose target replica set gained a
// member, it merges the read ring's versioned copies, streams them to
// the new owners in chunks, and proves the hand-off with a digest
// check before the cutover drops the old ring. The ordering is the
// zero-loss argument:
//
//	1. transition installed  -> new owners see every subsequent write
//	2. history streamed      -> new owners hold everything older
//	3. hand-off verified     -> digest (or exact versioned containment)
//	4. cutover               -> reads move to the target ring
//
// A write acked at any point is either in the merged history (pre-1)
// or was delivered by the union fan-out (post-1); either way the
// target owners hold it before any read is routed to them. Versioned
// inserts make the copy idempotent and resurrection-proof: a moved
// reading carries its original write version, so it can never outrank
// a rewrite that landed via the union path while the copy was in
// flight.
//
// The rebalancer is generation-guarded (Cluster.rebGen): a SetMembers
// arriving mid-stream bumps the generation, the superseded run aborts
// at its next check, and the new run re-plans against the latest
// target ring — reads keep anchoring to the ring they trusted all
// along, so chained membership changes never widen the loss window.

// rebalanceChunk bounds one InsertVersioned call while streaming a
// sensor to its new owner, keeping RPC frames and replica batch work
// small enough to interleave with live ingest.
const rebalanceChunk = 4096

// errRebalanceStale aborts a rebalance run that a newer SetMembers (or
// Close) superseded.
var errRebalanceStale = errors.New("store: rebalance superseded")

// rebalance is the background transfer goroutine, one per transition
// generation. It retries whole rounds with backoff until the transfer
// verifies (then cuts over) or a newer generation supersedes it.
func (c *Cluster) rebalance(gen uint64) {
	defer c.rebWG.Done()
	pol := backoff.Policy{Initial: 50 * time.Millisecond, Max: 5 * time.Second, Multiplier: 2, Jitter: 0.2}
	for attempt := 1; ; attempt++ {
		if c.rebGen.Load() != gen || c.closed.Load() {
			return
		}
		err := c.rebalanceRound(gen)
		if err == nil {
			c.cutover(gen)
			return
		}
		if errors.Is(err, errRebalanceStale) || c.rebGen.Load() != gen || c.closed.Load() {
			return
		}
		log.Printf("store: rebalance attempt %d failed (will retry): %v", attempt, err)
		// Sleep in short slices so Close (which bumps the generation,
		// then joins us) is never held up by a long backoff.
		deadline := time.Now().Add(pol.Delay(attempt))
		for time.Now().Before(deadline) {
			if c.rebGen.Load() != gen || c.closed.Load() {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// rebalanceRound makes one full transfer pass: every sensor any member
// knows is checked against both rings and streamed to owners it gained.
// The round fails on the first sensor that cannot be moved AND verified
// — the caller retries; a clean return means every moved range is
// provably on its new owners.
func (c *Cluster) rebalanceRound(gen uint64) error {
	t := c.top()
	if t.prevRing == nil {
		return nil // raced with a concurrent cutover; nothing to move
	}
	for _, id := range c.SensorIDs() {
		if c.rebGen.Load() != gen || c.closed.Load() {
			return errRebalanceStale
		}
		if err := c.moveSensor(t, id); err != nil {
			return fmt.Errorf("moving sensor %v: %w", id, err)
		}
		if c.rebThrottle > 0 {
			time.Sleep(c.rebThrottle)
		}
	}
	return nil
}

// moveSensor streams one sensor's history to the target-ring owners the
// read ring does not already cover, then verifies the hand-off.
func (c *Cluster) moveSensor(t *topology, id core.SensorID) error {
	hash := c.placementKey(id)
	readIDs := t.prevRing.ReplicasFor(hash, c.replication)
	inRead := make(map[string]struct{}, len(readIDs))
	for _, mid := range readIDs {
		inRead[mid] = struct{}{}
	}
	var newOwners []int
	for _, mid := range t.ring.ReplicasFor(hash, c.replication) {
		if _, dup := inRead[mid]; dup {
			continue
		}
		if idx, ok := t.byID[mid]; ok {
			newOwners = append(newOwners, idx)
		}
	}
	if len(newOwners) == 0 {
		return nil // replica set unchanged (or shrank); nothing to move
	}

	// Merge the read ring's versioned copies. A read quorum of the old
	// owners must answer — the same intersection argument the live read
	// path makes: any write acked before this merge is in at least one
	// of the copies we fold together.
	var srcs []int
	for _, mid := range readIDs {
		if idx, ok := t.byID[mid]; ok {
			srcs = append(srcs, idx)
		}
	}
	merged, _, reachable, lastErr := c.reconcile(t, id, srcs, aeFrom, aeTo)
	required := c.readCL.required(len(readIDs))
	if reachable < required {
		return fmt.Errorf("read quorum of old owners unreachable (%d/%d): %w", reachable, required, lastErr)
	}

	// Stream the merged history to each new owner in chunks, throttled
	// so the copy stays below live ingest.
	for _, idx := range newOwners {
		b := t.members[idx].backend
		for off := 0; off < len(merged); off += rebalanceChunk {
			chunk := merged[off:min(off+rebalanceChunk, len(merged))]
			if err := b.InsertVersioned(id, chunk); err != nil {
				return fmt.Errorf("streaming to %s: %w", t.members[idx].id, err)
			}
			if c.rebThrottle > 0 && off+rebalanceChunk < len(merged) {
				time.Sleep(c.rebThrottle)
			}
		}
	}

	// Verify the hand-off. Fast path: the new owner's digest matches a
	// local fold of the merged history exactly — the steady-state
	// outcome when no writes raced the copy. Live ingest makes exact
	// equality unreliable (the union fan-out lands concurrent writes on
	// the target that the merge predates), so the fallback proves
	// CONTAINMENT instead: every merged reading exists on the target at
	// a version >= the one we shipped. That predicate is monotone under
	// concurrent writes — new data can never make it false — and it is
	// exactly the property the cutover needs.
	fp, count, err := digestOfVersioned(merged)
	if err != nil {
		return err
	}
	for _, idx := range newOwners {
		b := t.members[idx].backend
		tfp, tcount, err := b.Digest(id, aeFrom, aeTo)
		if err != nil {
			return fmt.Errorf("digest from %s: %w", t.members[idx].id, err)
		}
		if tfp == fp && tcount == count {
			continue
		}
		have, err := b.QueryVersioned(id, aeFrom, aeTo)
		if err != nil {
			return fmt.Errorf("verify read from %s: %w", t.members[idx].id, err)
		}
		missing := versionedMissing(merged, have)
		if len(missing) == 0 {
			continue
		}
		// One in-line repair attempt before failing the round.
		if err := b.InsertVersioned(id, missing); err != nil {
			return fmt.Errorf("re-streaming %d readings to %s: %w", len(missing), t.members[idx].id, err)
		}
		if have, err = b.QueryVersioned(id, aeFrom, aeTo); err != nil {
			return fmt.Errorf("verify read from %s: %w", t.members[idx].id, err)
		}
		if missing = versionedMissing(merged, have); len(missing) > 0 {
			return fmt.Errorf("hand-off to %s not verified: %d readings missing", t.members[idx].id, len(missing))
		}
	}
	c.met.rebSensors.Inc()
	c.met.rebReadings.Add(int64(len(merged)) * int64(len(newOwners)))
	return nil
}

// cutover completes a verified transition: reads move to the target
// ring, members no longer on it are retired. Reports whether this
// generation performed the cutover.
func (c *Cluster) cutover(gen uint64) bool {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if c.rebGen.Load() != gen || c.closed.Load() {
		return false
	}
	cur := c.top()
	if cur.prevRing == nil {
		return false
	}
	keep := make(map[string]struct{})
	for _, id := range cur.ring.Members() {
		keep[id] = struct{}{}
	}
	members := make([]member, 0, len(cur.members))
	var dropped []NodeBackend
	for _, m := range cur.members {
		if _, ok := keep[m.id]; ok {
			members = append(members, m)
		} else {
			dropped = append(dropped, m.backend)
		}
	}
	c.topo.Store(newTopology(members, cur.ring, nil))
	c.retire(dropped)
	c.met.rebCutovers.Inc()
	return true
}

// RebalanceWait blocks until no transition is in flight (or the
// cluster closes). Tests and operators use it to sequence assertions
// after a membership change; the live paths never need it.
func (c *Cluster) RebalanceWait() {
	for c.top().prevRing != nil && !c.closed.Load() {
		time.Sleep(5 * time.Millisecond)
	}
}

// digestOfVersioned folds merged versioned readings through the exact
// pipeline Node.Digest uses, so coordinator-side expectation and
// replica-side digest are comparable bit for bit.
func digestOfVersioned(vrs []VersionedReading) (fp uint64, count int64, err error) {
	st, err := fold.New(fold.Spec{Op: fold.OpSummary, From: aeFrom, To: aeTo})
	if err != nil {
		return 0, 0, err
	}
	buf := make([]core.Reading, 0, min(len(vrs), rebalanceChunk))
	for off := 0; off < len(vrs); off += rebalanceChunk {
		chunk := vrs[off:min(off+rebalanceChunk, len(vrs))]
		buf = buf[:0]
		for _, v := range chunk {
			buf = append(buf, core.Reading{Timestamp: v.Timestamp, Value: v.Value})
		}
		st.Add(buf)
	}
	return st.Fingerprint(), st.Count() + st.Skipped(), nil
}

// versionedMissing returns the merged readings a target's response does
// not yet hold at an equal-or-newer version — the containment predicate
// the hand-off verification needs. Unlike digest equality it is
// monotone under live ingest: concurrent union-path writes add target
// entries (at newer versions) but can never un-satisfy a merged one.
func versionedMissing(merged, have []VersionedReading) []VersionedReading {
	var missing []VersionedReading
	j := 0
	for _, m := range merged {
		for j < len(have) && have[j].Timestamp < m.Timestamp {
			j++
		}
		if j < len(have) && have[j].Timestamp == m.Timestamp && have[j].Version >= m.Version {
			continue
		}
		missing = append(missing, m)
	}
	return missing
}
