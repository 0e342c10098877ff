package store

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fold"
)

// aeCluster builds an n-node cluster replicating every row to all n
// members, with hinted handoff disabled so a write a down replica
// misses stays missed until anti-entropy repairs it.
func aeCluster(t *testing.T, n int, readCL Consistency) (*Cluster, []*Node) {
	t.Helper()
	nodes := make([]*Node, n)
	backends := make([]NodeBackend, n)
	for i := range nodes {
		nodes[i] = NewNode(0)
		backends[i] = nodes[i]
	}
	c, err := NewClusterOptions(backends, ClusterOptions{
		Replication:      n,
		WriteConsistency: ConsistencyOne,
		ReadConsistency:  readCL,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, nodes
}

// TestVersionedDedupNewestVersionWins: duplicate timestamps resolve by
// write version at query time, regardless of insertion order — the
// store-level rule that closes the hint-replay resurrection window.
// Version-0 entries (legacy data) keep the old last-insert-wins rule.
func TestVersionedDedupNewestVersionWins(t *testing.T) {
	n := NewNode(0)
	id := sid(80, 1)
	// The newer version arrives FIRST; the stale version second.
	if err := n.InsertVersioned(id, []VersionedReading{{Timestamp: 5, Value: 3, Version: 20}}); err != nil {
		t.Fatal(err)
	}
	if err := n.InsertVersioned(id, []VersionedReading{{Timestamp: 5, Value: 2, Version: 10}}); err != nil {
		t.Fatal(err)
	}
	rs, err := n.Query(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Value != 3 {
		t.Fatalf("later-inserted stale version won: %v (want value 3 from version 20)", rs)
	}
	// Dedup across the memtable/run boundary too.
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := n.InsertVersioned(id, []VersionedReading{{Timestamp: 5, Value: 1, Version: 15}}); err != nil {
		t.Fatal(err)
	}
	rs, err = n.Query(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Value != 3 {
		t.Fatalf("stale version in a newer run won: %v (want value 3)", rs)
	}
	// Legacy rule preserved: all version-0 writes, last insert wins.
	legacy := sid(80, 2)
	for i, v := range []float64{1, 2, 3} {
		if err := n.InsertBatch(legacy, []core.Reading{{Timestamp: int64(10 + i%1), Value: v}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	rs, err = n.Query(legacy, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Value != 3 {
		t.Fatalf("legacy version-0 dedup changed: %v (want last write, value 3)", rs)
	}
}

// TestHintReplayResurrectionWindowClosed is the bug this change
// exists for. Timeline: a value is written, the replica goes down, a
// rewrite is hinted for it, the replica returns, a NEWER rewrite lands
// on every replica — and only then does the hint replay deliver the
// now-stale middle write. Under the old insertion-order rule the
// replayed value landed newest and resurrected; under write versions
// it resolves below the final rewrite and the replica keeps serving
// the newest value.
func TestHintReplayResurrectionWindowClosed(t *testing.T) {
	nodes := []*Node{NewNode(0), NewNode(0)}
	c, err := NewClusterOptions([]NodeBackend{nodes[0], nodes[1]}, ClusterOptions{
		Replication:        2,
		WriteConsistency:   ConsistencyOne,
		HintDir:            t.TempDir(),
		HintReplayInterval: -1, // replay driven explicitly
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := sid(81, 1)
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 10}}, 0); err != nil {
		t.Fatal(err)
	}
	nodes[1].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 20}}, 0); err != nil {
		t.Fatal(err) // hinted for nodes[1]
	}
	nodes[1].SetDown(false)
	// The replica is back; a newer rewrite reaches both replicas BEFORE
	// the queued hint replays.
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 30}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplayHints(); err != nil {
		t.Fatal(err)
	}
	if _, replayed, _ := c.HintStats(); replayed == 0 {
		t.Fatal("hint was not replayed; the scenario did not exercise the window")
	}
	for i, n := range nodes {
		rs, err := n.Query(id, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 1 || rs[0].Value != 30 {
			t.Fatalf("node %d serves %v: the replayed stale hint resurrected over the newest rewrite", i, rs)
		}
	}
}

// TestQuorumStreamRepairMovesVersionedReadings: the QUORUM read settles
// divergence through the anti-entropy reconciliation, so a repaired
// reading keeps its write version and expiry, a conflicting pair is
// served at — and converges to — the newer version after one read, and
// replicas that agree bit for bit — NaN included — queue nothing. (The
// conflict table, TestReadFormsAgreeOnConflict, runs the stale-primary
// case over every read form.)
func TestQuorumStreamRepairMovesVersionedReadings(t *testing.T) {
	c, nodes := aeCluster(t, 2, ConsistencyQuorum)
	id := sid(84, 1)
	read := func() []core.Reading {
		t.Helper()
		st, err := c.QueryStream(id, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		rs := drainStream(t, st)
		c.repairWG.Wait()
		return rs
	}
	versioned := func(n *Node) []VersionedReading {
		t.Helper()
		vrs, err := queryVersioned(n, id, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		return vrs
	}

	// One replica misses a TTL'd write.
	nodes[1].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 1}}, time.Hour); err != nil {
		t.Fatal(err)
	}
	nodes[1].SetDown(false)
	if rs := read(); len(rs) != 1 {
		t.Fatalf("quorum stream served %v", rs)
	}
	want, got := versioned(nodes[0]), versioned(nodes[1])
	if len(want) != 1 || want[0].Version == 0 || want[0].Expire == 0 {
		t.Fatalf("the write itself carries no version or expiry: %+v", want)
	}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("repaired replica holds %+v, want %+v (version and expiry intact)", got, want)
	}

	// A conflicting pair converges to the newer version after one read;
	// the second read finds nothing to repair.
	if err := nodes[0].InsertVersioned(id, []VersionedReading{{Timestamp: 2, Value: 10, Version: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].InsertVersioned(id, []VersionedReading{{Timestamp: 2, Value: 20, Version: 6}}); err != nil {
		t.Fatal(err)
	}
	if rs := read(); len(rs) != 2 || rs[1].Value != 20 {
		t.Fatalf("the read that found the conflict served %v, want the version-6 value 20 at ts 2", rs)
	}
	for i, n := range nodes {
		if vrs := versioned(n); len(vrs) != 2 || vrs[1].Value != 20 || vrs[1].Version != 6 {
			t.Fatalf("node %d holds %+v after the repairing read, want value 20 at version 6", i, vrs)
		}
	}
	repairs := c.met.readRepairs.Load()
	if rs := read(); len(rs) != 2 || rs[1].Value != 20 {
		t.Fatalf("converged read served %v", rs)
	}
	if n := c.met.readRepairs.Load() - repairs; n != 0 {
		t.Fatalf("a read of converged replicas queued %d repairs", n)
	}

	// NaN equals itself here: both replicas hold the same bits.
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 3, Value: math.NaN()}}, 0); err != nil {
		t.Fatal(err)
	}
	if rs := read(); len(rs) != 3 {
		t.Fatalf("read with a NaN reading served %v", rs)
	}
	if n := c.met.readRepairs.Load() - repairs; n != 0 {
		t.Fatalf("a NaN reading both replicas hold queued %d repairs", n)
	}
}

// summaryOf folds a node's whole series of id into an OpSummary state,
// the comparison anti-entropy and rebalance make between replicas.
func summaryOf(t *testing.T, b NodeBackend, id core.SensorID) fold.State {
	t.Helper()
	st, err := b.Aggregate(id, fold.Spec{Op: fold.OpSummary, From: math.MinInt64, To: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// requireReplicasIdentical asserts every node serves the exact same
// byte sequence for id, and that their summaries agree.
func requireReplicasIdentical(t *testing.T, nodes []*Node, id core.SensorID) []core.Reading {
	t.Helper()
	ref, err := nodes[0].Query(id, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	refSum := summaryOf(t, nodes[0], id)
	for i := 1; i < len(nodes); i++ {
		rs, err := nodes[i].Query(id, -1<<62, 1<<62)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(ref) {
			t.Fatalf("node %d serves %d readings, node 0 serves %d", i, len(rs), len(ref))
		}
		for j := range ref {
			if rs[j] != ref[j] {
				t.Fatalf("node %d position %d: %+v, node 0 has %+v", i, j, rs[j], ref[j])
			}
		}
		if sum := summaryOf(t, nodes[i], id); !sameSummary(sum, refSum) {
			t.Fatalf("node %d summary (%x,%d) != node 0 (%x,%d) despite identical reads",
				i, sum.Fingerprint(), sum.Count(), refSum.Fingerprint(), refSum.Count())
		}
	}
	return ref
}

// TestAntiEntropyConvergesDivergedReplicasWithoutReads: a replica that
// missed writes (down, no hints) — including a conflicting rewrite of
// an existing timestamp — converges to the bit-identical newest state
// through RepairRound alone, with no client read traffic, and the
// repair counters account for it.
func TestAntiEntropyConvergesDivergedReplicasWithoutReads(t *testing.T) {
	c, nodes := aeCluster(t, 3, ConsistencyQuorum)
	id := sid(83, 1)
	base := make([]core.Reading, 50)
	for i := range base {
		base[i] = core.Reading{Timestamp: int64(i + 1), Value: float64(i)}
	}
	if err := c.InsertBatch(id, base, 0); err != nil {
		t.Fatal(err)
	}
	nodes[2].SetDown(true)
	// A conflicting rewrite and some fresh timestamps, all missed by
	// the down replica.
	if err := c.InsertBatch(id, []core.Reading{
		{Timestamp: 10, Value: 999},
		{Timestamp: 60, Value: 60},
		{Timestamp: 61, Value: 61},
	}, 0); err != nil {
		t.Fatal(err)
	}
	nodes[2].SetDown(false)
	if sameSummary(summaryOf(t, nodes[0], id), summaryOf(t, nodes[2], id)) {
		t.Fatal("replica did not diverge; scenario is vacuous")
	}
	c.RepairRound()
	rs := requireReplicasIdentical(t, nodes, id)
	if len(rs) != 52 {
		t.Fatalf("converged series has %d readings, want 52", len(rs))
	}
	if rs[9].Value != 999 {
		t.Fatalf("timestamp 10 converged to %v, want the rewrite 999", rs[9].Value)
	}
	if got := c.met.aeRounds.Load(); got != 1 {
		t.Fatalf("aeRounds %d, want 1", got)
	}
	if got := c.met.aeChecked.Load(); got < 1 {
		t.Fatalf("aeChecked %d, want >= 1", got)
	}
	if got := c.met.aeMismatched.Load(); got < 1 {
		t.Fatalf("aeMismatched %d, want >= 1", got)
	}
	if got := c.met.aeRepaired.Load(); got < 3 {
		t.Fatalf("aeRepaired %d, want >= 3 (one rewrite + two fresh readings)", got)
	}
	// A second round over converged replicas finds nothing to move.
	repaired := c.met.aeRepaired.Load()
	mismatched := c.met.aeMismatched.Load()
	c.RepairRound()
	if c.met.aeRepaired.Load() != repaired || c.met.aeMismatched.Load() != mismatched {
		t.Fatal("anti-entropy kept repairing already-converged replicas")
	}
}

// TestAntiEntropyRestoresAggregateConsensus: while replicas diverge,
// every quorum aggregate falls back to the exact merged-stream fold
// (aggFallback grows); one anti-entropy round restores fingerprint
// consensus and the fallback counter stops incrementing.
func TestAntiEntropyRestoresAggregateConsensus(t *testing.T) {
	c, nodes := aeCluster(t, 2, ConsistencyQuorum)
	id := sid(84, 1)
	base := make([]core.Reading, 100)
	for i := range base {
		base[i] = core.Reading{Timestamp: int64(i + 1), Value: 1}
	}
	if err := c.InsertBatch(id, base, 0); err != nil {
		t.Fatal(err)
	}
	nodes[1].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 50, Value: 1000}}, 0); err != nil {
		t.Fatal(err)
	}
	nodes[1].SetDown(false)

	spec := fold.Spec{Op: fold.OpSummary, From: 0, To: 1 << 62}
	if _, err := c.Aggregate(id, spec); err != nil {
		t.Fatal(err)
	}
	if got := c.met.aggFallback.Load(); got != 1 {
		t.Fatalf("aggregate over diverged replicas took the consensus path (aggFallback %d, want 1)", got)
	}
	c.RepairRound()
	fallbacks := c.met.aggFallback.Load()
	consensus := c.met.aggConsensus.Load()
	st, err := c.Aggregate(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.met.aggFallback.Load() != fallbacks {
		t.Fatal("aggFallback incremented after anti-entropy repair; replicas still diverge")
	}
	if c.met.aggConsensus.Load() != consensus+1 {
		t.Fatal("post-repair aggregate did not take the consensus path")
	}
	sum, ok := st.(*fold.Summary)
	if !ok {
		t.Fatalf("aggregate state is %T, want *fold.Summary", st)
	}
	if want := float64(99 + 1000); sum.Sum != want {
		t.Fatalf("post-repair aggregate Sum %v, want %v (rewrite must be visible)", sum.Sum, want)
	}
}

// TestAntiEntropyBackgroundLoopConverges: with AntiEntropyInterval
// set, diverged replicas converge with no calls at all — the scheduler
// drives RepairRound.
func TestAntiEntropyBackgroundLoopConverges(t *testing.T) {
	nodes := []*Node{NewNode(0), NewNode(0)}
	c, err := NewClusterOptions([]NodeBackend{nodes[0], nodes[1]}, ClusterOptions{
		Replication:         2,
		WriteConsistency:    ConsistencyOne,
		AntiEntropyInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := sid(85, 1)
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	nodes[1].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 2, Value: 2}}, 0); err != nil {
		t.Fatal(err)
	}
	nodes[1].SetDown(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs, err := nodes[1].Query(id, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica still serves %v after 5s of background anti-entropy", rs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAntiEntropySingleCopyIsNoop: replication 1 has nothing to
// compare; a round completes without touching any counter but rounds.
func TestAntiEntropySingleCopyIsNoop(t *testing.T) {
	n := NewNode(0)
	c, err := NewClusterOptions([]NodeBackend{n}, ClusterOptions{Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.InsertBatch(sid(86, 1), []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	c.RepairRound()
	if c.met.aeRounds.Load() != 1 || c.met.aeChecked.Load() != 0 {
		t.Fatalf("single-copy round: rounds=%d checked=%d, want 1/0",
			c.met.aeRounds.Load(), c.met.aeChecked.Load())
	}
}

// mergeOf runs the cluster's replica merge over replicas holding the
// given versioned readings of one sensor and returns the winners it
// emitted and, per replica, what it found that replica lacks. Nothing
// is written back.
func mergeOf(t *testing.T, replicas ...[]VersionedReading) (winners []VersionedReading, lacks [][]VersionedReading) {
	t.Helper()
	c, nodes := aeCluster(t, len(replicas), ConsistencyQuorum)
	id := sid(84, 1)
	top := c.top()
	idxs := make([]int, len(replicas))
	for i, vrs := range replicas {
		if err := nodes[i].InsertVersioned(id, vrs); err != nil {
			t.Fatal(err)
		}
		idxs[i] = top.byID[fmt.Sprintf("node%d", i)]
	}
	lacks = make([][]VersionedReading, len(replicas))
	errs := c.merge(top, id, idxs, math.MinInt64, math.MaxInt64, func(idx int, l []VersionedReading) error {
		i := slices.Index(idxs, idx)
		lacks[i] = append(lacks[i], l...)
		return nil
	}, func(w []VersionedReading) {
		winners = append(winners, w...)
	})
	if n, last := answered(errs); n != len(replicas) {
		t.Fatalf("%d of %d replicas answered: %v", n, len(replicas), last)
	}
	return winners, lacks
}

// TestMergeVersionedReadings covers the union/winner rules every
// replica transfer shares.
func TestMergeVersionedReadings(t *testing.T) {
	a := []VersionedReading{
		{Timestamp: 1, Value: 1, Version: 5},
		{Timestamp: 3, Value: 3, Version: 5},
		{Timestamp: 5, Value: 5, Version: 9},
	}
	b := []VersionedReading{
		{Timestamp: 2, Value: 2, Version: 6},
		{Timestamp: 3, Value: 30, Version: 7}, // newer version wins
		{Timestamp: 5, Value: 50, Version: 8}, // older version loses
	}
	got, _ := mergeOf(t, a, b)
	want := []VersionedReading{
		{Timestamp: 1, Value: 1, Version: 5},
		{Timestamp: 2, Value: 2, Version: 6},
		{Timestamp: 3, Value: 30, Version: 7},
		{Timestamp: 5, Value: 5, Version: 9},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("merged %+v, want %+v", got, want)
	}
	// Equal versions break ties on value bits, so both merge orders
	// agree — the property that makes repeated repair rounds converge.
	x := []VersionedReading{{Timestamp: 1, Value: 2, Version: 3}}
	y := []VersionedReading{{Timestamp: 1, Value: 7, Version: 3}}
	xy, _ := mergeOf(t, x, y)
	yx, _ := mergeOf(t, y, x)
	if xy[0] != yx[0] {
		t.Fatal("equal-version merge is order-dependent; repair would oscillate")
	}
	if v := xy[0].Value; v != 7 {
		t.Fatalf("equal-version tiebreak picked %v, want 7 (higher value bits)", v)
	}
	// More chunks than one, interleaved across replicas.
	var even, odd []VersionedReading
	for ts := int64(0); ts < 3*StreamChunkReadings; ts++ {
		vr := VersionedReading{Timestamp: ts, Value: float64(ts), Version: 1}
		if ts%2 == 0 {
			even = append(even, vr)
		} else {
			odd = append(odd, vr)
		}
	}
	long, lacks := mergeOf(t, even, odd)
	if len(long) != 3*StreamChunkReadings || len(lacks[0]) != len(odd) || len(lacks[1]) != len(even) {
		t.Fatalf("long merge: %d winners, lacks %d/%d", len(long), len(lacks[0]), len(lacks[1]))
	}
	for i, w := range long {
		if w.Timestamp != int64(i) {
			t.Fatalf("winner %d has timestamp %d", i, w.Timestamp)
		}
	}
}

// TestVersionedDelta: a replica is sent only the winners it lacks — a
// missing timestamp, a lower version, or the same version with other
// value bits.
func TestVersionedDelta(t *testing.T) {
	merged := []VersionedReading{
		{Timestamp: 1, Value: 1, Version: 5},
		{Timestamp: 2, Value: 2, Version: 6},
		{Timestamp: 3, Value: 30, Version: 7},
	}
	have := []VersionedReading{
		{Timestamp: 1, Value: 1, Version: 5}, // identical: skip
		{Timestamp: 3, Value: 3, Version: 5}, // stale value: resend
	}
	_, lacks := mergeOf(t, merged, have)
	if len(lacks[0]) != 0 {
		t.Fatalf("the replica holding every winner lacks %+v", lacks[0])
	}
	delta := lacks[1]
	if len(delta) != 2 || delta[0] != merged[1] || delta[1] != merged[2] {
		t.Fatalf("delta %+v, want missing ts 2 and rewritten ts 3", delta)
	}
	if _, lacks := mergeOf(t, merged, merged); len(lacks[0])+len(lacks[1]) != 0 {
		t.Fatalf("identical replicas got deltas %+v", lacks)
	}
}
