package store

import (
	"math"
	"math/rand"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/fold"
)

// foldMaterialized folds a materialized query result in one Add — the
// reference result every pushdown path must match bit-for-bit.
func foldMaterialized(t *testing.T, spec fold.Spec, rs []core.Reading) fold.State {
	t.Helper()
	st, err := fold.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	st.Add(rs)
	return st
}

func sameState(a, b fold.State) bool {
	return string(fold.Append(nil, a)) == string(fold.Append(nil, b))
}

// TestNodeAggregateMatchesMaterialized: the node-side fold over the
// streaming read path (memtable and cold runs) is bit-identical to
// folding the materialized query result.
func TestNodeAggregateMatchesMaterialized(t *testing.T) {
	n := NewNode(0)
	id := core.SensorID{Hi: 7, Lo: 7}
	rng := rand.New(rand.NewSource(11))
	var rs []core.Reading
	ts := int64(0)
	for i := 0; i < 3*StreamChunkReadings+100; i++ {
		ts += int64(rng.Intn(1000)) + 1
		v := rng.NormFloat64()
		if i%97 == 0 {
			v = math.NaN()
		}
		rs = append(rs, core.Reading{Timestamp: ts, Value: v})
	}
	if err := n.InsertBatch(id, rs, 0); err != nil {
		t.Fatal(err)
	}
	// Half hot, half flushed: the fold must traverse the merged read
	// path exactly like QueryStream.
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := n.InsertBatch(id, []core.Reading{{Timestamp: ts + 5, Value: 1.5}}, 0); err != nil {
		t.Fatal(err)
	}
	want, err := n.Query(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []fold.Spec{
		{Op: fold.OpSummary, From: 0, To: 1 << 62},
		{Op: fold.OpIntegral, From: 0, To: 1 << 62},
		{Op: fold.OpDownsample, From: 0, To: 1 << 62, Buckets: 50},
	} {
		got, err := n.Aggregate(id, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Op, err)
		}
		if !sameState(got, foldMaterialized(t, spec, want)) {
			t.Fatalf("%s: node aggregate differs from materialized fold", spec.Op)
		}
	}
}

func TestNodeAggregateRejectsBadSpec(t *testing.T) {
	n := NewNode(0)
	if _, err := n.Aggregate(core.SensorID{Hi: 1}, fold.Spec{Op: 99}); err == nil {
		t.Fatal("bad spec accepted")
	}
	c, _ := threeNodeCluster(t, 2, ClusterOptions{})
	if _, err := c.Aggregate(core.SensorID{Hi: 1}, fold.Spec{Op: fold.OpSummary, From: 5, To: 1}); err == nil {
		t.Fatal("inverted range accepted by cluster")
	}
}

// TestClusterAggregateOne: at ONE the first live replica answers; a
// down replica is skipped.
func TestClusterAggregateOne(t *testing.T) {
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{})
	id := core.SensorID{Hi: 3, Lo: 9}
	rs := []core.Reading{{Timestamp: 1, Value: 2}, {Timestamp: 2, Value: 4}, {Timestamp: 3, Value: 6}}
	for _, r := range rs {
		if err := c.InsertBatch(id, []core.Reading{r}, 0); err != nil {
			t.Fatal(err)
		}
	}
	spec := fold.Spec{Op: fold.OpSummary, From: 0, To: 10}
	reps := c.replicasFor(id)
	nodes[reps[0]].SetDown(true)
	st, err := c.Aggregate(id, spec)
	if err != nil {
		t.Fatalf("aggregate with primary down: %v", err)
	}
	if st.Count() != 3 {
		t.Fatalf("count = %d, want 3", st.Count())
	}
	// All replicas down: the error must say so.
	for _, i := range reps {
		nodes[i].SetDown(true)
	}
	if _, err := c.Aggregate(id, spec); err == nil {
		t.Fatal("aggregate with all replicas down succeeded")
	}
}

// TestClusterAggregateQuorumConverged: converged replicas agree by
// fingerprint and the answer is bit-identical to a single node's fold.
func TestClusterAggregateQuorumConverged(t *testing.T) {
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{
		WriteConsistency: ConsistencyQuorum,
		ReadConsistency:  ConsistencyQuorum,
	})
	id := core.SensorID{Hi: 5, Lo: 1}
	var rs []core.Reading
	for i := int64(1); i <= 500; i++ {
		rs = append(rs, core.Reading{Timestamp: i * 1000, Value: float64(i)})
	}
	if err := c.InsertBatch(id, rs, 0); err != nil {
		t.Fatal(err)
	}
	spec := fold.Spec{Op: fold.OpIntegral, From: 0, To: 1 << 50}
	st, err := c.Aggregate(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	reps := c.replicasFor(id)
	direct, err := nodes[reps[0]].Aggregate(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(st, direct) {
		t.Fatal("quorum aggregate differs from a converged replica's fold")
	}
}

// TestClusterAggregateQuorumDivergence: replicas holding different
// data disagree by fingerprint; the coordinator must fall back to the
// exact quorum-merged fold (which also read-repairs), not trust either
// replica.
func TestClusterAggregateQuorumDivergence(t *testing.T) {
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{
		WriteConsistency: ConsistencyQuorum,
		ReadConsistency:  ConsistencyQuorum,
	})
	id := core.SensorID{Hi: 6, Lo: 2}
	if err := c.InsertBatch(id, []core.Reading{
		{Timestamp: 1000, Value: 1},
		{Timestamp: 2000, Value: 2},
	}, 0); err != nil {
		t.Fatal(err)
	}
	// One replica gets an extra reading behind the coordinator's back.
	reps := c.replicasFor(id)
	if err := nodes[reps[1]].InsertBatch(id, []core.Reading{{Timestamp: 3000, Value: 7}}, 0); err != nil {
		t.Fatal(err)
	}

	spec := fold.Spec{Op: fold.OpSummary, From: 0, To: 10000}
	st, err := c.Aggregate(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The exact fallback folds the quorum merge: all three readings.
	if st.Count() != 3 {
		t.Fatalf("divergent quorum aggregate count = %d, want 3 (exact merged fold)", st.Count())
	}
	if s := st.(*fold.Summary); s.Max != 7 || s.Last.Timestamp != 3000 {
		t.Fatalf("divergent quorum aggregate = %+v", s)
	}

	// The fallback's quorum read repaired the stale replica, so the
	// replicas now agree and the cheap consensus path serves the same
	// answer.
	c.repairWG.Wait()
	st2, err := c.Aggregate(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Count() != 3 {
		t.Fatalf("post-repair aggregate count = %d, want 3", st2.Count())
	}
	a, err := nodes[reps[0]].Aggregate(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nodes[reps[1]].Aggregate(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("replicas still diverge after the fallback's read repair")
	}
}

// TestClusterAggregateQuorumNotMet: with only one replica of two up,
// quorum must fail rather than silently degrade.
func TestClusterAggregateQuorumNotMet(t *testing.T) {
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{ReadConsistency: ConsistencyQuorum})
	id := core.SensorID{Hi: 8, Lo: 8}
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	reps := c.replicasFor(id)
	nodes[reps[0]].SetDown(true)
	if _, err := c.Aggregate(id, fold.Spec{Op: fold.OpSummary, From: 0, To: 10}); err == nil {
		t.Fatal("quorum aggregate with a replica down succeeded")
	}
}
