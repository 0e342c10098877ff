package store

import (
	"math"
	"sync"
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
// and converges them if they disagree.
func (c *Cluster) repairSensor(id core.SensorID, from, to int64) error {
	t := c.top()
	replicas := c.readReplicas(t, id)
	fps := make([]uint64, len(replicas))
	counts := make([]int64, len(replicas))
	errs := make([]error, len(replicas))
	var wg sync.WaitGroup
	for i, idx := range replicas {
		wg.Add(1)
		go func(i, idx int) {
			defer wg.Done()
			fps[i], counts[i], errs[i] = t.members[idx].backend.Digest(id, from, to)
		}(i, idx)
	}
	wg.Wait()
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

	// Mismatch: fetch the versioned readings from every reachable
	// replica and merge the winning write per timestamp.
	results := make([][]VersionedReading, len(replicas))
	for i, idx := range replicas {
		if errs[i] != nil {
			continue
		}
		wg.Add(1)
		go func(i, idx int) {
			defer wg.Done()
			results[i], errs[i] = t.members[idx].backend.QueryVersioned(id, from, to)
		}(i, idx)
	}
	wg.Wait()
	var merged []VersionedReading
	first := true
	for i := range replicas {
		if errs[i] != nil {
			continue
		}
		if first {
			merged = results[i]
			first = false
			continue
		}
		merged = mergeVersionedReadings(merged, results[i])
	}
	var firstErr error
	for i, idx := range replicas {
		if errs[i] != nil {
			continue
		}
		delta := versionedDelta(merged, results[i])
		if len(delta) == 0 {
			continue
		}
		if err := t.members[idx].backend.InsertVersioned(id, delta); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.met.aeRepaired.Add(int64(len(delta)))
	}
	return firstErr
}

// winnerVersioned resolves one timestamp's conflicting writes: highest
// version wins; equal versions (legacy unversioned conflicts, or one
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
