package store

import (
	"errors"
	"fmt"
	"log"
	"slices"
	"time"

	"dcdb/internal/backoff"
	"dcdb/internal/core"
	"dcdb/internal/fold"
)

// Streaming rebalance: the background half of a ring transition. While
// the topology carries both rings (topology.go), every write already
// fans to the union of old and new owners — so the rebalancer only has
// to move HISTORY: for each sensor whose target replica set gained a
// member, one replica merge (merge, antientropy.go) reads the old and
// the new owners together and writes each new owner, in chunks, what
// it lacks, then the hand-off is proven by a summary check before the
// cutover drops the old ring. The ordering is the zero-loss argument:
//
//	1. transition installed  -> new owners see every subsequent write
//	2. history streamed      -> new owners hold everything older
//	3. hand-off verified     -> summary match, or a second merge that
//	                            finds no history a new owner lacks
//	4. cutover               -> reads move to the target ring
//
// A write acked at any point is either in the merged history (pre-1)
// or was delivered by the union fan-out (post-1); either way the
// target owners hold it before any read is routed to them. Versioned
// inserts make the copy idempotent and resurrection-proof: a moved
// reading carries its original write version, so it can never outrank
// a rewrite that landed via the union path while the copy was in
// flight. Reading the new owners too makes a retried round cheap: it
// moves only what a new owner still lacks.
//
// The rebalancer is generation-guarded (Cluster.rebGen): a SetMembers
// arriving mid-stream bumps the generation, the superseded run aborts
// at its next check, and the new run re-plans against the latest
// target ring — reads keep anchoring to the ring they trusted all
// along, so chained membership changes never widen the loss window.

// rebalanceChunk bounds one repair batch of the replica merge — one
// InsertVersioned call to one replica — keeping RPC frames and replica
// batch work small enough to interleave with live ingest.
const rebalanceChunk = 4096

// errRebalanceStale aborts a rebalance run that a newer SetMembers (or
// Close) superseded.
var errRebalanceStale = errors.New("store: rebalance superseded")

// rebalance is the background transfer goroutine, one per transition
// generation. It retries whole rounds with backoff until the transfer
// verifies (then cuts over) or a newer generation supersedes it. since
// is the write-version clock read once the transition was installed:
// a write this coordinator stamps above it fans out to the new owners.
func (c *Cluster) rebalance(gen, since uint64) {
	defer c.rebWG.Done()
	pol := backoff.Policy{Initial: 50 * time.Millisecond, Max: 5 * time.Second, Multiplier: 2, Jitter: 0.2}
	for attempt := 1; ; attempt++ {
		if c.rebGen.Load() != gen || c.closed.Load() {
			return
		}
		err := c.rebalanceRound(gen, since)
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
func (c *Cluster) rebalanceRound(gen, since uint64) error {
	t := c.top()
	if t.prevRing == nil {
		return nil // raced with a concurrent cutover; nothing to move
	}
	for _, id := range c.SensorIDs() {
		if c.rebGen.Load() != gen || c.closed.Load() {
			return errRebalanceStale
		}
		if err := c.moveSensor(t, id, since); err != nil {
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
func (c *Cluster) moveSensor(t *topology, id core.SensorID, since uint64) error {
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

	// One merge reads the old owners, then the new ones. A read quorum
	// of the old owners must answer — the same intersection argument the
	// live read path makes: any write acked before this merge is in at
	// least one of the copies it reads. What a new owner lacks is
	// written to it in line, throttled so the copy stays below live
	// ingest; the old owners are only read.
	var replicas []int
	for _, mid := range readIDs {
		if idx, ok := t.byID[mid]; ok {
			replicas = append(replicas, idx)
		}
	}
	olds := len(replicas)
	replicas = append(replicas, newOwners...)
	// pass runs the merge, handing repair what a new owner lacks, and
	// fails unless a read quorum of the old owners and every new owner
	// answered.
	pass := func(repair func(idx int, lacks []VersionedReading) error, emit func([]VersionedReading)) error {
		errs := c.merge(t, id, replicas, aeFrom, aeTo, func(idx int, lacks []VersionedReading) error {
			if !slices.Contains(newOwners, idx) {
				return nil
			}
			return repair(idx, lacks)
		}, emit)
		required := c.readCL.required(len(readIDs))
		if n, last := answered(errs[:olds]); n < required {
			return fmt.Errorf("read quorum of old owners unreachable (%d/%d): %w", n, required, last)
		}
		for i, idx := range newOwners {
			if err := errs[olds+i]; err != nil {
				return fmt.Errorf("new owner %s: %w", t.members[idx].id, err)
			}
		}
		return nil
	}
	merged := fold.NewSummary()
	var rs []core.Reading
	err := pass(func(idx int, lacks []VersionedReading) error {
		if err := t.members[idx].backend.InsertVersioned(id, lacks); err != nil {
			return err
		}
		c.met.rebReadings.Add(int64(len(lacks)))
		if c.rebThrottle > 0 {
			time.Sleep(c.rebThrottle)
		}
		return nil
	}, func(winners []VersionedReading) {
		rs = rs[:0]
		for _, w := range winners {
			rs = append(rs, core.Reading{Timestamp: w.Timestamp, Value: w.Value})
		}
		merged.Add(rs)
	})
	if err != nil {
		return err
	}

	// Verify the hand-off. Fast path: each new owner's summary matches
	// the fold of the merged winners — the steady-state outcome when no
	// writes raced the copy. Live ingest makes equality unreliable (the
	// union fan-out lands concurrent writes on a new owner that the
	// merge predates), so the fallback is a second merge, which writes
	// nothing: it fails the round, which is retried, only if a new owner
	// lacks history — a winner stamped no later than since. A later
	// write was begun on the union fan-out, so it is on its way to the
	// new owner, queued or hinted, and does not hold the join up.
	verified := true
	for _, idx := range newOwners {
		got, err := t.members[idx].backend.Aggregate(id, fold.Spec{Op: fold.OpSummary, From: aeFrom, To: aeTo})
		if err != nil {
			return fmt.Errorf("summary from %s: %w", t.members[idx].id, err)
		}
		verified = verified && sameSummary(got, merged)
	}
	if !verified {
		err := pass(func(idx int, lacks []VersionedReading) error {
			if i := slices.IndexFunc(lacks, func(w VersionedReading) bool { return w.Version <= since }); i >= 0 {
				return fmt.Errorf("hand-off not verified: the reading at %d is missing", lacks[i].Timestamp)
			}
			return nil
		}, nil)
		if err != nil {
			return err
		}
	}
	c.met.rebSensors.Inc()
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
