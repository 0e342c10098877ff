package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"dcdb/internal/core"
)

// Failure-matrix tests for the tunable-consistency coordinator: writes
// and reads with replicas down at ONE and QUORUM, hinted handoff
// queueing/replay/durability, and newest-wins read repair.

// threeNodeCluster builds 3 memory nodes with the given options
// applied on top of {full-SID placement, replication}.
func threeNodeCluster(t *testing.T, replication int, o ClusterOptions) (*Cluster, []*Node) {
	t.Helper()
	nodes := []*Node{NewNode(0), NewNode(0), NewNode(0)}
	backends := make([]NodeBackend, len(nodes))
	for i, n := range nodes {
		backends[i] = n
	}
	o.Partitioner = RingPartitioner{}
	o.Replication = replication
	c, err := NewClusterOptions(backends, o)
	if err != nil {
		t.Fatal(err)
	}
	return c, nodes
}

func TestWriteConsistencyOneSurvivesDownReplica(t *testing.T) {
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{WriteConsistency: ConsistencyOne})
	id := sid(7, 1)
	reps := c.replicasFor(id)
	nodes[reps[1]].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatalf("ONE write with one replica down: %v", err)
	}
	// Both replicas down: even ONE must fail.
	nodes[reps[0]].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{rd(2, 2)}, 0); err == nil {
		t.Fatal("ONE write with all replicas down succeeded")
	}
}

func TestWriteConsistencyQuorumBlocksOnDownReplica(t *testing.T) {
	// Replication 2: QUORUM needs both copies, so one down replica
	// must fail the write even though the other accepted it.
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{WriteConsistency: ConsistencyQuorum})
	id := sid(7, 2)
	reps := c.replicasFor(id)
	nodes[reps[1]].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err == nil {
		t.Fatal("QUORUM write with a down replica (rf=2) succeeded")
	}
	nodes[reps[1]].SetDown(false)
	if err := c.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatalf("QUORUM write with all replicas up: %v", err)
	}
}

func TestWriteConsistencyQuorumToleratesMinorityDown(t *testing.T) {
	// Replication 3: QUORUM is 2, so one down replica is tolerated and
	// two are not.
	c, nodes := threeNodeCluster(t, 3, ClusterOptions{WriteConsistency: ConsistencyQuorum})
	id := sid(7, 3)
	nodes[0].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatalf("QUORUM write with 2/3 replicas up: %v", err)
	}
	nodes[1].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{rd(2, 2)}, 0); err == nil {
		t.Fatal("QUORUM write with 1/3 replicas up succeeded")
	}
}

func TestReadConsistencyMatrix(t *testing.T) {
	cOne, nodesOne := threeNodeCluster(t, 2, ClusterOptions{})
	cQ, nodesQ := threeNodeCluster(t, 2, ClusterOptions{ReadConsistency: ConsistencyQuorum})
	for _, tc := range []struct {
		name  string
		c     *Cluster
		nodes []*Node
		ok    bool
	}{
		{"one-with-down-replica", cOne, nodesOne, true},
		{"quorum-with-down-replica", cQ, nodesQ, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := sid(9, 9)
			if err := tc.c.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
				t.Fatal(err)
			}
			reps := tc.c.replicasFor(id)
			tc.nodes[reps[0]].SetDown(true)
			rs, err := tc.c.Query(id, 0, 1<<60)
			if tc.ok {
				if err != nil || len(rs) != 1 {
					t.Fatalf("ONE read with down primary: %d readings, %v", len(rs), err)
				}
			} else if err == nil {
				t.Fatal("QUORUM read (rf=2) with a down replica succeeded")
			}
		})
	}
}

func TestHintedHandoffQueuesAndReplays(t *testing.T) {
	hintDir := t.TempDir()
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{
		HintDir:            hintDir,
		HintReplayInterval: -1, // replay manually for determinism
	})
	defer c.Close()
	id := sid(11, 4)
	reps := c.replicasFor(id)
	down := nodes[reps[1]]
	down.SetDown(true)

	batch := []core.Reading{rd(1, 1), rd(2, 2), rd(3, 3)}
	if err := c.InsertBatch(id, batch, 0); err != nil {
		t.Fatalf("ONE write with down replica: %v", err)
	}
	if err := c.DeleteBefore(id, 2); err != nil {
		t.Fatalf("ONE delete with down replica: %v", err)
	}
	queued, replayed, pending := c.HintStats()
	if queued != 2 || replayed != 0 || pending != 1 {
		t.Fatalf("HintStats = %d/%d/%d, want 2 queued, 0 replayed, 1 pending", queued, replayed, pending)
	}

	// Replay attempts while the node is down must keep the hints.
	if err := c.ReplayHints(); err != nil {
		t.Fatal(err)
	}
	if _, replayed, _ := c.HintStats(); replayed != 0 {
		t.Fatal("hints replayed into a down node")
	}

	down.SetDown(false)
	if err := c.ReplayHints(); err != nil {
		t.Fatal(err)
	}
	queued, replayed, pending = c.HintStats()
	if replayed != 2 || pending != 0 {
		t.Fatalf("after replay: HintStats = %d/%d/%d, want 2 replayed, 0 pending", queued, replayed, pending)
	}
	// The restarted replica must now hold exactly the surviving data:
	// ts 1 deleted by the replayed DeleteBefore, ts 2 and 3 present.
	rs, err := down.Query(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Timestamp != 2 || rs[1].Timestamp != 3 {
		t.Fatalf("restarted replica holds %v, want ts 2 and 3", rs)
	}
}

func TestHintsSurviveCoordinatorRestart(t *testing.T) {
	hintDir := t.TempDir()
	nodes := []*Node{NewNode(0), NewNode(0), NewNode(0)}
	backends := make([]NodeBackend, len(nodes))
	for i, n := range nodes {
		backends[i] = n
	}
	opts := ClusterOptions{
		Partitioner: RingPartitioner{}, Replication: 2,
		HintDir: hintDir, HintReplayInterval: -1,
	}
	c1, err := NewClusterOptions(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	id := sid(13, 5)
	reps := c1.replicasFor(id)
	nodes[reps[1]].SetDown(true)
	if err := c1.InsertBatch(id, []core.Reading{rd(42, 4.2)}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil { // memory nodes survive Close
		t.Fatal(err)
	}

	nodes[reps[1]].SetDown(false)
	c2, err := NewClusterOptions(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.ReplayHints(); err != nil {
		t.Fatal(err)
	}
	rs, err := nodes[reps[1]].Query(id, 0, 1<<60)
	if err != nil || len(rs) != 1 || rs[0].Timestamp != 42 {
		t.Fatalf("replica after restart+replay holds %v, %v; want the hinted write", rs, err)
	}
	if des, _ := os.ReadDir(filepath.Join(hintDir, "node0")); len(des) != 0 {
		// Spot check: delivered hint files are deleted.
		for _, de := range des {
			t.Logf("leftover: %s", de.Name())
		}
	}
}

func TestHintedWriteTTLSurvivesAsExpiry(t *testing.T) {
	hintDir := t.TempDir()
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{
		HintDir: hintDir, HintReplayInterval: -1,
	})
	defer c.Close()
	id := sid(17, 6)
	reps := c.replicasFor(id)
	nodes[reps[1]].SetDown(true)
	// A TTL'd write hinted and replayed keeps a finite expiry.
	if err := c.InsertBatch(id, []core.Reading{rd(1, 1)}, time.Hour); err != nil {
		t.Fatal(err)
	}
	nodes[reps[1]].SetDown(false)
	if err := c.ReplayHints(); err != nil {
		t.Fatal(err)
	}
	rs, err := nodes[reps[1]].Query(id, 0, 1<<60)
	if err != nil || len(rs) != 1 {
		t.Fatalf("replayed TTL write: %v, %v", rs, err)
	}
}

func TestReadRepairConvergesReplicas(t *testing.T) {
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{ReadConsistency: ConsistencyQuorum})
	id := sid(19, 7)
	reps := c.replicasFor(id)
	healthy, stale := nodes[reps[0]], nodes[reps[1]]
	// Diverge the replicas behind the coordinator's back: only one
	// holds the data (a write the other missed without a hint).
	for ts := int64(1); ts <= 5; ts++ {
		if err := healthy.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := c.Query(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("QUORUM read merged %d readings, want 5", len(rs))
	}
	// Repair is asynchronous; poll the stale replica for convergence.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := stale.Query(id, 0, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale replica still holds %d readings after repair window", len(got))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestQueryPrefixQuorumMergesDivergedReplicas(t *testing.T) {
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{ReadConsistency: ConsistencyQuorum})
	id := sid(23, 8)
	reps := c.replicasFor(id)
	// Each replica holds a disjoint half of the series.
	for ts := int64(1); ts <= 4; ts++ {
		target := nodes[reps[ts%2]]
		if err := target.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0); err != nil {
			t.Fatal(err)
		}
	}
	out, err := drainPrefix(c.QueryPrefixStream(core.SensorID{}, 0, 0, 1<<60))
	if err != nil {
		t.Fatal(err)
	}
	if len(out[id]) != 4 {
		t.Fatalf("prefix QUORUM read returned %d of 4 readings", len(out[id]))
	}
	// A down node must fail a QUORUM prefix read at rf=2...
	nodes[reps[0]].SetDown(true)
	if _, err := drainPrefix(c.QueryPrefixStream(core.SensorID{}, 0, 0, 1<<60)); err == nil {
		t.Fatal("QUORUM prefix read (rf=2) with a down node succeeded")
	}
	// ...but not a ONE prefix read.
	cOne, nodesOne := threeNodeCluster(t, 2, ClusterOptions{})
	if err := cOne.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	nodesOne[0].SetDown(true)
	if _, err := drainPrefix(cOne.QueryPrefixStream(core.SensorID{}, 0, 0, 1<<60)); err != nil {
		t.Fatalf("ONE prefix read with a down node: %v", err)
	}
}

// TestQueryPrefixOneNeedsEveryReplicaSet: a prefix read at ONE still
// needs one live member in every replica set — with a whole set down
// its sensors would be missing from an answer that reports no error.
func TestQueryPrefixOneNeedsEveryReplicaSet(t *testing.T) {
	for _, tc := range []struct {
		replication int
		down        []int
	}{{1, []int{0}}, {2, []int{0, 1}}} {
		c, nodes := threeNodeCluster(t, tc.replication, ClusterOptions{})
		ids := seedSensors(t, c, 30, 2)
		if got, err := drainPrefix(c.QueryPrefixStream(core.SensorID{}, 0, 0, 1<<60)); err != nil || len(got) != len(ids) {
			t.Fatalf("rf=%d, all up: %d of %d sensors, %v", tc.replication, len(got), len(ids), err)
		}
		for _, i := range tc.down {
			nodes[i].SetDown(true)
		}
		if got, err := drainPrefix(c.QueryPrefixStream(core.SensorID{}, 0, 0, 1<<60)); err == nil {
			t.Fatalf("rf=%d, nodes %v down: a ONE prefix read returned %d of %d sensors and no error",
				tc.replication, tc.down, len(got), len(ids))
		}
		c.Close()
	}
	// A down node whose every replica set keeps a live member still
	// leaves the whole answer.
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{})
	defer c.Close()
	ids := seedSensors(t, c, 30, 2)
	nodes[0].SetDown(true)
	if got, err := drainPrefix(c.QueryPrefixStream(core.SensorID{}, 0, 0, 1<<60)); err != nil || len(got) != len(ids) {
		t.Fatalf("rf=2, one node down: %d of %d sensors, %v", len(got), len(ids), err)
	}
}

func TestClusterMaintenanceFansOutToAllBackends(t *testing.T) {
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{})
	idA, idB := sid(31, 1), sid(37, 2)
	for _, id := range []core.SensorID{idA, idB} {
		if err := c.InsertBatch(id, []core.Reading{rd(1, 1), rd(2, 2)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Compact()
	ids := c.SensorIDs()
	if len(ids) != 2 || ids[0] != min2(idA, idB) {
		t.Fatalf("SensorIDs = %v", ids)
	}
	if got := len(c.Backends()); got != 3 {
		t.Fatalf("Backends() returned %d of 3", got)
	}
	if got := totalInserts(c); got != 8 { // 2 sensors × 2 readings × 2 replicas
		t.Fatalf("members' inserts = %d, want 8", got)
	}
	// Every replica's memtable went through Flush into runs.
	for _, n := range nodes {
		if err := n.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func min2(a, b core.SensorID) core.SensorID {
	if a.Compare(b) < 0 {
		return a
	}
	return b
}

func TestGroupCommitConcurrentSyncEveryWritersRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	n := openedNode(t, dir, 0, noCompact) // SyncInterval 0: every ack durable
	const workers, writes = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := sid(uint64(w+1), uint64(w))
			for i := 0; i < writes; i++ {
				if err := n.InsertBatch(id, []core.Reading{rd(int64(i), float64(w))}, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	n.crash()

	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	for w := 0; w < workers; w++ {
		id := sid(uint64(w+1), uint64(w))
		rs, err := n2.Query(id, 0, 1<<60)
		if err != nil || len(rs) != writes {
			t.Fatalf("worker %d: recovered %d of %d acked writes (%v)", w, len(rs), writes, err)
		}
	}
}

func TestParseConsistency(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Consistency
		ok   bool
	}{
		{"one", ConsistencyOne, true},
		{"ONE", ConsistencyOne, true},
		{"quorum", ConsistencyQuorum, true},
		{"QUORUM", ConsistencyQuorum, true},
		{"all", 0, false},
		{"", 0, false},
	} {
		got, ok := ParseConsistency(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseConsistency(%q) = %v, %v", tc.in, got, ok)
		}
	}
	if ConsistencyOne.String() != "one" || ConsistencyQuorum.String() != "quorum" {
		t.Error("Consistency.String round trip broken")
	}
	// Quorum sizes: floor(n/2)+1.
	for n, want := range map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3} {
		if got := ConsistencyQuorum.required(n); got != want {
			t.Errorf("quorum(%d) = %d, want %d", n, got, want)
		}
		if got := ConsistencyOne.required(n); got != 1 {
			t.Errorf("one(%d) = %d", n, got)
		}
	}
}

func TestExplicitSyncMakesWritesDurable(t *testing.T) {
	dir := t.TempDir()
	// SyncInterval < 0: nothing syncs unless Sync is called.
	n := openedNode(t, dir, 0, DiskOptions{SyncInterval: -1})
	id := sid(41, 3)
	for ts := int64(1); ts <= 10; ts++ {
		if err := n.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Sync(); err != nil {
		t.Fatal(err)
	}
	n.crash()
	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	rs, err := n2.Query(id, 0, 1<<60)
	if err != nil || len(rs) != 10 {
		t.Fatalf("after explicit Sync + crash: %d readings, %v", len(rs), err)
	}
}

func TestHintBackgroundLoopDeliversWithoutManualReplay(t *testing.T) {
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{
		HintDir:            t.TempDir(),
		HintReplayInterval: 5 * time.Millisecond,
	})
	defer c.Close()
	id := sid(43, 9)
	reps := c.replicasFor(id)
	nodes[reps[1]].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	nodes[reps[1]].SetDown(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, replayed, pending := c.HintStats(); replayed == 1 && pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background hint loop never delivered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	rs, err := nodes[reps[1]].Query(id, 0, 1<<60)
	if err != nil || len(rs) != 1 {
		t.Fatalf("replica after background replay: %v, %v", rs, err)
	}
}

// TestMergeSensorIDs: the cluster's SID listing merges its members'
// lists into the sorted set a map would build, whatever the overlap,
// and sorts a list a backend did not.
func TestMergeSensorIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		seen := make(map[core.SensorID]struct{})
		var merged []core.SensorID
		for m := 0; m < 1+rng.Intn(4); m++ {
			var list []core.SensorID
			for i := rng.Intn(40); i > 0; i-- {
				id := core.SensorID{Hi: uint64(rng.Intn(4)), Lo: uint64(rng.Intn(30))}
				if _, dup := seen[id]; dup && rng.Intn(2) == 0 {
					continue
				}
				list = append(list, id)
				seen[id] = struct{}{}
			}
			if round%2 == 0 {
				slices.SortFunc(list, core.SensorID.Compare)
				list = slices.Compact(list)
			}
			merged = mergeSensorIDs(merged, list)
		}
		want := make([]core.SensorID, 0, len(seen))
		for id := range seen {
			want = append(want, id)
		}
		slices.SortFunc(want, core.SensorID.Compare)
		if !slices.Equal(merged, want) {
			t.Fatalf("round %d: merged %v, want %v", round, merged, want)
		}
	}
}
