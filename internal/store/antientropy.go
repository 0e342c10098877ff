package store

import (
	"fmt"
	"math"
	"time"

	"dcdb/internal/core"
)

// Anti-entropy repair: the background convergence path for replicas
// that diverged with no read traffic to trigger read repair. Each
// round walks the union of sensors, compares one cheap digest per
// replica (fold fingerprint + count over the deduplicated series — see
// Node.Digest), and only for mismatched sensors fetches the versioned
// readings, merges a winner per timestamp (highest write version; a
// deterministic value-bits tiebreak for equal versions, so repeated
// rounds and concurrent coordinators converge to the same bytes), and
// re-inserts each replica's missing delta with the original versions.
// Steady state costs O(sensors) digests and moves no reading data.

// aeFrom/aeTo span the whole timestamp domain: a round compares each
// sensor's full retention. Sensors are the repair granularity — a
// replica set is assigned per placement key, and a sensor never spans
// two keys.
const (
	aeFrom = math.MinInt64
	aeTo   = math.MaxInt64
)

// antiEntropyLoop runs RepairRound at the configured cadence until the
// cluster closes. Failures are per-round best effort: an unreachable
// replica is skipped this round and caught by a later one.
func (c *Cluster) antiEntropyLoop(interval time.Duration) {
	defer c.bgWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopBG:
			return
		case <-t.C:
			_ = c.RepairRound()
		}
	}
}

// RepairRound makes one full anti-entropy pass over every sensor any
// backend knows. The background loop calls it on a timer; tests and
// operators may call it directly. The returned error is the first
// repair failure (comparison against unreachable replicas is not an
// error — they are skipped and caught by a later round).
func (c *Cluster) RepairRound() error {
	defer c.met.aeRounds.Inc()
	if c.replication < 2 {
		return nil // a single copy has nothing to diverge from
	}
	var firstErr error
	for _, id := range c.SensorIDs() {
		if err := c.repairSensor(id, aeFrom, aeTo); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// repairSensor digest-compares one sensor's replicas over [from, to]
// and, only if they disagree, reconciles them and re-inserts each
// replica's delta.
func (c *Cluster) repairSensor(id core.SensorID, from, to int64) error {
	t := c.top()
	replicas := c.readReplicas(t, id)
	fps := make([]uint64, len(replicas))
	counts := make([]int64, len(replicas))
	errs := c.fanOut(replicas, false, func(i, idx int) (err error) {
		fps[i], counts[i], err = t.members[idx].backend.Digest(id, from, to)
		return err
	})
	c.met.aeChecked.Inc()
	reachable, agree := 0, true
	ref := -1
	for i := range replicas {
		if errs[i] != nil {
			continue
		}
		reachable++
		if ref < 0 {
			ref = i
		} else if fps[i] != fps[ref] || counts[i] != counts[ref] {
			agree = false
		}
	}
	if reachable < 2 || agree {
		return nil // nothing to compare, or already converged
	}
	c.met.aeMismatched.Inc()
	_, deltas, _, _ := c.reconcile(t, id, replicas, from, to)
	var firstErr error
	for _, d := range deltas {
		if err := t.members[d.member].backend.InsertVersioned(id, d.delta); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.met.aeRepaired.Add(int64(len(d.delta)))
	}
	return firstErr
}

// replicaDelta is what one replica must be sent to hold a reconciled
// range: the merged readings it lacks or resolves to different bits.
type replicaDelta struct {
	member int // index into the topology's members
	delta  []VersionedReading
}

// reconcile is the cluster's one quorum merge: it reads [from, to] of a
// sensor from every listed replica with write versions, merges the
// answers (highest version wins per timestamp, see winnerVersioned) and
// works out what each answering replica is missing. Anti-entropy, the
// read path's divergence handling and the rebalance copy all resolve
// conflicting copies here and nowhere else, so they cannot disagree.
// answered counts the replicas that responded; err is the last failure
// among those that did not.
func (c *Cluster) reconcile(t *topology, id core.SensorID, replicas []int, from, to int64) (merged []VersionedReading, deltas []replicaDelta, answered int, err error) {
	results := make([][]VersionedReading, len(replicas))
	errs := c.fanOut(replicas, false, func(i, idx int) (err error) {
		results[i], err = t.members[idx].backend.QueryVersioned(id, from, to)
		return err
	})
	for i := range replicas {
		if errs[i] != nil {
			err = errs[i]
			continue
		}
		if answered == 0 {
			merged = results[i]
		} else {
			merged = mergeVersionedReadings(merged, results[i])
		}
		answered++
	}
	for i, idx := range replicas {
		if errs[i] != nil {
			continue
		}
		if d := versionedDelta(merged, results[i]); len(d) > 0 {
			deltas = append(deltas, replicaDelta{member: idx, delta: d})
		}
	}
	return merged, deltas, answered, err
}

// resolveRead answers [from, to] of a sensor for a read that saw its
// replicas disagree: the reconciled range, provided a read quorum of
// the replica set answered. At QUORUM every lagging replica's delta is
// queued for repair in the background — convergence is opportunistic,
// the caller's latency is not taxed with the repair writes; a ONE read
// (a prefix read merging the copies it happened to reach) never writes,
// like every other ONE read. Repairs carry the winning readings'
// original write versions and expiries, so a re-inserted duplicate
// resolves at the replica's query-time dedup exactly where the original
// write would have: above anything older, below any rewrite the replica
// holds that the merge did not.
//
// This is what makes the read path's invariant hold: with a quorum of
// the read set reachable, a QUORUM read never returns, for any
// timestamp, a value whose write version is lower than one held by a
// replica that answered.
func (c *Cluster) resolveRead(t *topology, id core.SensorID, from, to int64) ([]core.Reading, error) {
	replicas := c.readReplicas(t, id)
	merged, deltas, answered, err := c.reconcile(t, id, replicas, from, to)
	if required := c.readCL.required(len(replicas)); answered < required {
		return nil, fmt.Errorf("store: read consistency %s not met resolving divergent replicas (%d/%d): %w",
			c.readCL, answered, required, err)
	}
	if c.readCL == ConsistencyQuorum {
		for _, d := range deltas {
			b, delta := t.members[d.member].backend, d.delta
			c.met.readRepairs.Inc()
			c.repairWG.Add(1)
			go func() {
				defer c.repairWG.Done()
				_ = b.InsertVersioned(id, delta) // best effort; the next read retries
			}()
		}
	}
	out := make([]core.Reading, len(merged))
	for i, m := range merged {
		out[i] = core.Reading{Timestamp: m.Timestamp, Value: m.Value}
	}
	return out, nil
}

// winnerVersioned resolves one timestamp's conflicting writes: highest
// version wins; equal versions (unstamped version-0 conflicts, or one
// write hinted twice) break the tie on value bits so every coordinator
// — and every repair round — picks the same winner.
func winnerVersioned(a, b VersionedReading) VersionedReading {
	if a.Version != b.Version {
		if a.Version > b.Version {
			return a
		}
		return b
	}
	if math.Float64bits(a.Value) >= math.Float64bits(b.Value) {
		return a
	}
	return b
}

// mergeVersionedReadings merges two time-sorted versioned responses:
// the union of timestamps, each duplicate resolved by winnerVersioned.
func mergeVersionedReadings(a, b []VersionedReading) []VersionedReading {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]VersionedReading, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Timestamp < b[j].Timestamp:
			out = append(out, a[i])
			i++
		case a[i].Timestamp > b[j].Timestamp:
			out = append(out, b[j])
			j++
		default:
			out = append(out, winnerVersioned(a[i], b[j]))
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// versionedDelta returns the merged readings a replica's response is
// missing or resolves to different value bits — what must be re-inserted
// for that replica's reads to match the merged result bit for bit.
func versionedDelta(merged, have []VersionedReading) []VersionedReading {
	var delta []VersionedReading
	j := 0
	for _, m := range merged {
		for j < len(have) && have[j].Timestamp < m.Timestamp {
			j++
		}
		if j < len(have) && have[j].Timestamp == m.Timestamp && math.Float64bits(have[j].Value) == math.Float64bits(m.Value) {
			continue
		}
		delta = append(delta, m)
	}
	return delta
}
