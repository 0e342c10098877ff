package store

import (
	"fmt"
	"io"
	"math"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fold"
)

// Anti-entropy repair: the background convergence path for replicas
// that diverged with no read traffic to trigger read repair. Each
// round walks the union of sensors, compares one cheap summary per
// replica (the fingerprint and count of an Aggregate(OpSummary) over
// the deduplicated series), and only for mismatched sensors runs the
// replica merge (merge, below), which streams the replicas' versioned
// readings, picks a winner per timestamp (highest write version; a
// deterministic value-bits tiebreak for equal versions, so repeated
// rounds and concurrent coordinators converge to the same bytes), and
// writes each replica what it lacks under the original versions.
// Steady state costs O(sensors) summaries and moves no reading data.

// aeFrom/aeTo span the whole timestamp domain: a round compares each
// sensor's full retention. Sensors are the repair granularity — a
// replica set is assigned per placement key, and a sensor never spans
// two keys.
const (
	aeFrom = math.MinInt64
	aeTo   = math.MaxInt64
)

// antiEntropyLoop runs RepairRound at the configured cadence until the
// cluster closes.
func (c *Cluster) antiEntropyLoop(interval time.Duration) {
	defer c.bgWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopBG:
			return
		case <-t.C:
			c.RepairRound()
		}
	}
}

// RepairRound makes one full anti-entropy pass over every sensor any
// backend knows. The background loop calls it on a timer; tests and
// operators may call it directly. It is best effort: a replica that
// cannot be compared, read or repaired is skipped and caught by a later
// round.
func (c *Cluster) RepairRound() {
	defer c.met.aeRounds.Inc()
	if c.replication < 2 {
		return // a single copy has nothing to diverge from
	}
	for _, id := range c.SensorIDs() {
		c.repairSensor(id, aeFrom, aeTo)
	}
}

// repairSensor compares one sensor's replicas over [from, to] by
// summary and, only if they disagree, merges them, writing each
// replica what it lacks in line. A replica that fails its read or a
// repair write is skipped, like one that fails the comparison, and
// caught by a later round.
func (c *Cluster) repairSensor(id core.SensorID, from, to int64) {
	t := c.top()
	replicas := c.readReplicas(t, id)
	spec := fold.Spec{Op: fold.OpSummary, From: from, To: to}
	states := make([]fold.State, len(replicas))
	errs := c.fanOut(replicas, func(i, idx int) (err error) {
		states[i], err = t.members[idx].backend.Aggregate(id, spec)
		return err
	})
	c.met.aeChecked.Inc()
	reachable, agree := 0, true
	var ref fold.State
	for i := range replicas {
		if errs[i] != nil {
			continue
		}
		reachable++
		if ref == nil {
			ref = states[i]
		} else if !sameSummary(ref, states[i]) {
			agree = false
		}
	}
	if reachable < 2 || agree {
		return // nothing to compare, or already converged
	}
	c.met.aeMismatched.Inc()
	c.merge(t, id, replicas, from, to, func(idx int, lacks []VersionedReading) error {
		if err := t.members[idx].backend.InsertVersioned(id, lacks); err != nil {
			return err
		}
		c.met.aeRepaired.Add(int64(len(lacks)))
		return nil
	}, nil)
}

// sameSummary reports whether two OpSummary states folded the same
// readings: equal fingerprints over every (timestamp, value bits) pair
// and equal counts, non-finite readings included. Replicas holding
// value-identical data agree regardless of the versions that got it
// there.
func sameSummary(a, b fold.State) bool {
	return a.Fingerprint() == b.Fingerprint() && a.Count()+a.Skipped() == b.Count()+b.Skipped()
}

// merge is the cluster's one replica merge: read repair (resolveRead),
// anti-entropy (repairSensor) and rebalance (moveSensor) all resolve
// conflicting copies here and nowhere else, so they cannot disagree. It
// reads [from, to] of a sensor from every listed replica's versioned
// stream, one chunk at a time, and picks the winner of each timestamp
// with winnerVersioned. A replica lacks a winner when it holds nothing
// at that timestamp, a lower version, or the same version with other
// value bits; when repair is set, each replica's lacks are handed to it
// as the merge goes, in batches of at most rebalanceChunk readings that
// repair may keep. When emit is set, it is handed the winners in
// timestamp order, a chunk of at most StreamChunkReadings at a time,
// valid until it returns. Memory is one chunk and one batch per
// replica, whatever the length of the range.
//
// The result holds one slot per replica: nil when the replica answered,
// else the failure of its stream or of a repair handed its lacks, after
// which the merge goes on without it. The caller decides whether enough
// answered.
func (c *Cluster) merge(t *topology, id core.SensorID, replicas []int, from, to int64,
	repair func(idx int, lacks []VersionedReading) error, emit func(winners []VersionedReading)) []error {
	curs := make([]versionedCursor, len(replicas))
	for i, idx := range replicas {
		curs[i].st, curs[i].err = t.members[idx].backend.QueryVersionedStream(id, from, to)
	}
	defer func() {
		for i := range curs {
			if curs[i].st != nil {
				curs[i].st.Close()
			}
		}
	}()
	flush := func(i int) {
		vc := &curs[i]
		lacks := vc.lacks
		vc.lacks = nil
		if len(lacks) > 0 && vc.err == nil {
			vc.err = repair(replicas[i], lacks)
		}
	}
	var out []VersionedReading
	for {
		var win VersionedReading
		found := false
		for i := range curs {
			if h, ok := curs[i].head(); ok {
				if !found || h.Timestamp < win.Timestamp {
					win, found = h, true
				} else if h.Timestamp == win.Timestamp {
					win = winnerVersioned(win, h)
				}
			}
		}
		if !found {
			break
		}
		for i := range curs {
			vc := &curs[i]
			h, ok := vc.head()
			if ok && h.Timestamp == win.Timestamp {
				vc.pos++
				if h.Version == win.Version && math.Float64bits(h.Value) == math.Float64bits(win.Value) {
					continue
				}
			}
			if repair == nil || vc.err != nil {
				continue
			}
			if vc.lacks = append(vc.lacks, win); len(vc.lacks) == rebalanceChunk {
				flush(i)
			}
		}
		if emit != nil {
			if out = append(out, win); len(out) == StreamChunkReadings {
				emit(out)
				out = out[:0]
			}
		}
	}
	if emit != nil && len(out) > 0 {
		emit(out)
	}
	errs := make([]error, len(curs))
	for i := range curs {
		flush(i)
		errs[i] = curs[i].err
	}
	return errs
}

// versionedCursor is one replica's place in a merge.
type versionedCursor struct {
	st    VersionedStream
	buf   []VersionedReading
	pos   int
	eof   bool
	err   error              // the stream failed: the replica did not answer
	lacks []VersionedReading // winners the replica lacks, not yet repaired
}

// head returns the cursor's current reading, pulling the next chunk
// when the current one is used up; ok is false at the end of the
// stream or after a failure.
func (vc *versionedCursor) head() (VersionedReading, bool) {
	for vc.err == nil && !vc.eof {
		if vc.pos < len(vc.buf) {
			return vc.buf[vc.pos], true
		}
		chunk, err := vc.st.Next()
		switch {
		case err == io.EOF:
			vc.eof = true
		case err != nil:
			vc.err = err
		default:
			vc.buf, vc.pos = chunk, 0
		}
	}
	return VersionedReading{}, false
}

// answered counts the replicas of a merge that answered, and returns
// the last failure among those that did not.
func answered(errs []error) (n int, last error) {
	for _, err := range errs {
		if err != nil {
			last = err
		} else {
			n++
		}
	}
	return n, last
}

// resolveRead answers [from, to] of a sensor for a read that saw its
// replicas disagree: the merged range, provided a read quorum of the
// replica set answered. At QUORUM every batch a replica lacks is
// written to it in the background — convergence is opportunistic, the
// caller's latency is not taxed with the repair writes; a ONE read (a
// prefix read merging the copies it happened to reach) never writes,
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
	var repair func(int, []VersionedReading) error
	if c.readCL == ConsistencyQuorum {
		repair = func(idx int, lacks []VersionedReading) error {
			b := t.members[idx].backend
			c.met.readRepairs.Inc()
			c.repairWG.Add(1)
			go func() {
				defer c.repairWG.Done()
				_ = b.InsertVersioned(id, lacks) // best effort; the next read retries
			}()
			return nil
		}
	}
	var out []core.Reading
	errs := c.merge(t, id, replicas, from, to, repair, func(winners []VersionedReading) {
		for _, w := range winners {
			out = append(out, core.Reading{Timestamp: w.Timestamp, Value: w.Value})
		}
	})
	if n, last := answered(errs); n < c.readCL.required(len(replicas)) {
		return nil, fmt.Errorf("store: read consistency %s not met resolving divergent replicas (%d/%d): %w",
			c.readCL, n, c.readCL.required(len(replicas)), last)
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
