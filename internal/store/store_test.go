package store

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"dcdb/internal/core"
)

func sid(hi, lo uint64) core.SensorID { return core.SensorID{Hi: hi, Lo: lo} }

func rd(ts int64, v float64) core.Reading { return core.Reading{Timestamp: ts, Value: v} }

func TestNodeInsertQuery(t *testing.T) {
	n := NewNode(0)
	id := sid(1, 2)
	for i := int64(0); i < 100; i++ {
		if err := n.InsertBatch(id, []core.Reading{rd(i*10, float64(i))}, 0); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := n.Query(id, 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 41 {
		t.Fatalf("got %d readings", len(rs))
	}
	if rs[0].Timestamp != 100 || rs[len(rs)-1].Timestamp != 500 {
		t.Fatalf("range bounds: %v … %v", rs[0], rs[len(rs)-1])
	}
	// Unknown sensor yields empty result, no error.
	empty, err := n.Query(sid(9, 9), 0, 1000)
	if err != nil || len(empty) != 0 {
		t.Fatalf("unknown sensor: %v, %v", empty, err)
	}
}

func TestNodeOutOfOrderInserts(t *testing.T) {
	n := NewNode(0)
	id := sid(3, 0)
	order := []int64{50, 10, 30, 20, 40}
	for _, ts := range order {
		n.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0)
	}
	rs, _ := n.Query(id, 0, 100)
	if len(rs) != 5 {
		t.Fatalf("got %d", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Timestamp <= rs[i-1].Timestamp {
			t.Fatalf("unsorted output: %v", rs)
		}
	}
}

func TestNodeFlushAndQueryAcrossTables(t *testing.T) {
	n := NewNode(10) // tiny flush threshold
	id := sid(1, 1)
	for i := int64(0); i < 35; i++ {
		n.InsertBatch(id, []core.Reading{rd(i, float64(i))}, 0)
	}
	rs, _ := n.Query(id, 0, 100)
	if len(rs) != 35 {
		t.Fatalf("got %d readings across tables", len(rs))
	}
	_, _, entries := n.Stats()
	if entries != 35 {
		t.Fatalf("entries = %d", entries)
	}
}

func TestNodeDuplicateTimestampsLastWins(t *testing.T) {
	n := NewNode(0)
	id := sid(1, 1)
	n.InsertBatch(id, []core.Reading{rd(100, 1)}, 0)
	n.InsertBatch(id, []core.Reading{rd(100, 2)}, 0)
	rs, _ := n.Query(id, 0, 200)
	if len(rs) != 1 || rs[0].Value != 2 {
		t.Fatalf("dedup failed: %v", rs)
	}
}

func TestNodeTTL(t *testing.T) {
	n := NewNode(0)
	id := sid(1, 1)
	n.InsertBatch(id, []core.Reading{rd(1, 1)}, time.Nanosecond) // expires immediately
	n.InsertBatch(id, []core.Reading{rd(2, 2)}, time.Hour)
	time.Sleep(time.Millisecond)
	rs, _ := n.Query(id, 0, 10)
	if len(rs) != 1 || rs[0].Value != 2 {
		t.Fatalf("TTL not honoured: %v", rs)
	}
	// Compact drops expired entries physically.
	n.Flush()
	n.Compact()
	_, _, entries := n.Stats()
	if entries != 1 {
		t.Fatalf("entries after compact = %d", entries)
	}
}

func TestNodeDeleteBefore(t *testing.T) {
	n := NewNode(5)
	id := sid(1, 1)
	for i := int64(0); i < 20; i++ {
		n.InsertBatch(id, []core.Reading{rd(i, float64(i))}, 0)
	}
	if err := n.DeleteBefore(id, 10); err != nil {
		t.Fatal(err)
	}
	rs, _ := n.Query(id, 0, 100)
	if len(rs) != 10 || rs[0].Timestamp != 10 {
		t.Fatalf("DeleteBefore: %v", rs)
	}
}

func TestNodeQueryPrefixStream(t *testing.T) {
	n := NewNode(0)
	m := core.NewTopicMapper()
	a, _ := m.Map("/sys/r1/n1/power")
	b, _ := m.Map("/sys/r1/n2/power")
	c, _ := m.Map("/sys/r2/n1/power")
	for _, id := range []core.SensorID{a, b, c} {
		n.InsertBatch(id, []core.Reading{rd(1, 1)}, 0)
	}
	pre := a.Prefix(2)
	got, err := drainPrefix(n.QueryPrefixStream(pre, 2, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("prefix query got %d sensors", len(got))
	}
	if _, ok := got[c]; ok {
		t.Error("prefix query leaked foreign subtree")
	}
}

func TestNodeDown(t *testing.T) {
	n := NewNode(0)
	n.SetDown(true)
	id := sid(1, 1)
	if err := n.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != ErrNodeDown {
		t.Errorf("InsertBatch on down node: %v", err)
	}
	if _, err := n.Query(id, 0, 1); err != ErrNodeDown {
		t.Errorf("Query on down node: %v", err)
	}
	if _, err := drainPrefix(n.QueryPrefixStream(core.SensorID{}, 1, 0, 1)); err != ErrNodeDown {
		t.Errorf("QueryPrefixStream on down node: %v", err)
	}
	if err := n.DeleteBefore(id, 1); err != ErrNodeDown {
		t.Errorf("DeleteBefore on down node: %v", err)
	}
	n.SetDown(false)
	if err := n.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Errorf("InsertBatch after revive: %v", err)
	}
}

func TestNodeSensorIDs(t *testing.T) {
	n := NewNode(2)
	ids := []core.SensorID{sid(2, 0), sid(1, 0), sid(3, 0)}
	for _, id := range ids {
		n.InsertBatch(id, []core.Reading{rd(1, 1)}, 0)
	}
	got := n.SensorIDs()
	if len(got) != 3 || got[0] != sid(1, 0) || got[2] != sid(3, 0) {
		t.Fatalf("SensorIDs = %v", got)
	}
}

func TestNodeConcurrency(t *testing.T) {
	n := NewNode(100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := sid(uint64(w), 0)
			for i := int64(0); i < 500; i++ {
				n.InsertBatch(id, []core.Reading{rd(i, float64(i))}, 0)
				if i%50 == 0 {
					n.Query(id, 0, i)
				}
			}
		}(w)
	}
	wg.Wait()
	ins, _, entries := n.Stats()
	if ins != 4000 || entries != 4000 {
		t.Fatalf("inserts=%d entries=%d", ins, entries)
	}
}

func TestNodeMergeAcrossRunsLastWriteWins(t *testing.T) {
	// Duplicate timestamps in different runs: the newer run must win.
	n := NewNode(0)
	id := sid(1, 1)
	n.InsertBatch(id, []core.Reading{rd(100, 1)}, 0)
	n.Flush() // v=1 now in an SSTable
	n.InsertBatch(id, []core.Reading{rd(100, 2)}, 0)
	rs, _ := n.Query(id, 0, 200)
	if len(rs) != 1 || rs[0].Value != 2 {
		t.Fatalf("memtable should shadow SSTable: %v", rs)
	}
	n.Flush() // v=2 in a second, newer SSTable
	rs, _ = n.Query(id, 0, 200)
	if len(rs) != 1 || rs[0].Value != 2 {
		t.Fatalf("newer SSTable should win: %v", rs)
	}
}

func TestNodeMergeInterleavedRuns(t *testing.T) {
	// Runs with interleaved timestamp ranges must merge into one
	// sorted sequence.
	n := NewNode(0)
	id := sid(7, 7)
	for _, ts := range []int64{0, 10, 20, 30} {
		n.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0)
	}
	n.Flush()
	for _, ts := range []int64{5, 15, 25, 35} {
		n.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0)
	}
	n.Flush()
	for _, ts := range []int64{3, 33} {
		n.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0)
	}
	rs, _ := n.Query(id, 0, 100)
	want := []int64{0, 3, 5, 10, 15, 20, 25, 30, 33, 35}
	if len(rs) != len(want) {
		t.Fatalf("got %d readings: %v", len(rs), rs)
	}
	for i, ts := range want {
		if rs[i].Timestamp != ts || rs[i].Value != float64(ts) {
			t.Fatalf("position %d: %v, want ts %d", i, rs[i], ts)
		}
	}
}

func TestNodeConcurrentMixedOps(t *testing.T) {
	// Hammer every operation from multiple goroutines so the race
	// detector exercises the striped shards, the lazy prefix index and
	// the atomic counters together.
	n := NewNode(64)
	m := core.NewTopicMapper()
	ids := make([]core.SensorID, 16)
	for i := range ids {
		id, err := m.Map(fmt.Sprintf("/race/r%d/n%d/power", i%4, i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	prefix := ids[0].Prefix(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 300; i++ {
				// Alternate between two sensors so all 16 get data.
				id := ids[(w+8*int(i%2))%len(ids)]
				switch i % 7 {
				case 0, 1, 2:
					n.InsertBatch(id, []core.Reading{rd(i, float64(i))}, 0)
				case 3:
					n.Query(id, 0, i)
				case 4:
					drainPrefix(n.QueryPrefixStream(prefix, 1, 0, i))
				case 5:
					if w == 0 {
						n.Flush()
					} else {
						n.SensorIDs()
					}
				case 6:
					if w == 1 {
						n.Compact()
					} else {
						n.Stats()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := drainPrefix(n.QueryPrefixStream(prefix, 1, 0, 1<<60))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("prefix query found %d of %d sensors", len(got), len(ids))
	}
}

func TestClusterConcurrentReplicatedOps(t *testing.T) {
	// Concurrent writers meet in every member's write queue and reads
	// fan out goroutine-per-replica, so the race detector covers both.
	nodes := []*Node{NewNode(128), NewNode(128), NewNode(128)}
	c, err := NewCluster(nodes, RingPartitioner{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	const workers, batches, batchLen = 8, 16, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := sid(uint64(w+1), uint64(w))
			for b := 0; b < batches; b++ {
				batch := make([]core.Reading, batchLen)
				for i := range batch {
					ts := int64(b*batchLen + i)
					batch[i] = rd(ts, float64(ts))
				}
				if err := c.InsertBatch(id, batch, 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Query(id, 0, 1<<60); err != nil {
					t.Error(err)
					return
				}
				if _, err := drainPrefix(c.QueryPrefixStream(core.SensorID{}, 0, 0, 1<<60)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	const perWorker = batches * batchLen
	if got := totalInserts(c); got != workers*perWorker*2 {
		t.Fatalf("members' inserts = %d, want %d", got, workers*perWorker*2)
	}
	for w := 0; w < workers; w++ {
		id := sid(uint64(w+1), uint64(w))
		rs, err := c.Query(id, 0, 1<<60)
		if err != nil || len(rs) != perWorker {
			t.Fatalf("worker %d: %d readings, %v", w, len(rs), err)
		}
		if err := c.DeleteBefore(id, perWorker/2); err != nil {
			t.Fatal(err)
		}
		rs, err = c.Query(id, 0, 1<<60)
		if err != nil || len(rs) != perWorker/2 {
			t.Fatalf("worker %d after delete: %d readings, %v", w, len(rs), err)
		}
	}
}

func TestCompactRetiresDeadSensors(t *testing.T) {
	// A sensor whose data fully expires must vanish from SensorIDs
	// and the prefix index after compaction, even though flush keeps
	// series objects around for buffer reuse.
	n := NewNode(0)
	dead, live := sid(1, 1), sid(2, 2)
	n.InsertBatch(dead, []core.Reading{rd(1, 1)}, time.Nanosecond)
	n.InsertBatch(live, []core.Reading{rd(1, 1)}, time.Hour)
	time.Sleep(time.Millisecond)
	n.Flush()
	n.Compact()
	ids := n.SensorIDs()
	if len(ids) != 1 || ids[0] != live {
		t.Fatalf("SensorIDs after compact = %v, want only %v", ids, live)
	}
	got, err := drainPrefix(n.QueryPrefixStream(core.SensorID{}, 0, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got[dead]; ok {
		t.Error("expired sensor still visible to prefix queries")
	}
	// The retired sensor accepts new data again.
	if err := n.InsertBatch(dead, []core.Reading{rd(5, 5)}, 0); err != nil {
		t.Fatal(err)
	}
	if rs, _ := n.Query(dead, 0, 10); len(rs) != 1 {
		t.Fatalf("revived sensor query = %v", rs)
	}
}

func TestClusterBasics(t *testing.T) {
	nodes := []*Node{NewNode(0), NewNode(0), NewNode(0)}
	c, err := NewCluster(nodes, RingPartitioner{Depth: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewTopicMapper()
	var ids []core.SensorID
	for _, tp := range []string{"/s/r1/n1/p", "/s/r1/n2/p", "/s/r2/n1/p", "/s/r2/n2/p"} {
		id, _ := m.Map(tp)
		ids = append(ids, id)
	}
	for i, id := range ids {
		for ts := int64(0); ts < 10; ts++ {
			if err := c.InsertBatch(id, []core.Reading{rd(ts, float64(i))}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, id := range ids {
		rs, err := c.Query(id, 0, 100)
		if err != nil || len(rs) != 10 || rs[0].Value != float64(i) {
			t.Fatalf("sensor %d: %v, %v", i, rs, err)
		}
	}
	// Replication: total physical inserts = logical * 2.
	if got := totalInserts(c); got != 80 {
		t.Fatalf("members' inserts = %d, want 80", got)
	}
}

func TestClusterFailover(t *testing.T) {
	nodes := []*Node{NewNode(0), NewNode(0), NewNode(0)}
	c, _ := NewCluster(nodes, RingPartitioner{}, 2)
	id := sid(42, 7)
	for ts := int64(0); ts < 5; ts++ {
		c.InsertBatch(id, []core.Reading{rd(ts, 1)}, 0)
	}
	primary := c.replicasFor(id)[0]
	nodes[primary].SetDown(true)
	rs, err := c.Query(id, 0, 100)
	if err != nil || len(rs) != 5 {
		t.Fatalf("failover query: %v, %v", rs, err)
	}
	// Writes survive with one replica down.
	if err := c.InsertBatch(id, []core.Reading{rd(100, 2)}, 0); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	// All replicas down -> failure.
	for _, n := range nodes {
		n.SetDown(true)
	}
	if _, err := c.Query(id, 0, 100); err == nil {
		t.Error("query with all nodes down succeeded")
	}
	if err := c.InsertBatch(id, []core.Reading{rd(200, 3)}, 0); err == nil {
		t.Error("insert with all nodes down succeeded")
	}
}

func TestClusterQueryPrefixHierarchicalLocality(t *testing.T) {
	nodes := []*Node{NewNode(0), NewNode(0), NewNode(0), NewNode(0)}
	c, _ := NewCluster(nodes, RingPartitioner{Depth: 3}, 1)
	m := core.NewTopicMapper()
	subtree := []string{"/s/r1/n1/power", "/s/r1/n1/temp", "/s/r1/n1/energy"}
	for _, tp := range subtree {
		id, _ := m.Map(tp)
		c.InsertBatch(id, []core.Reading{rd(1, 1)}, 0)
	}
	// All three sensors share the prefix, so they live on one node.
	id0, _ := m.Lookup(subtree[0])
	holder := c.replicasFor(id0)[0]
	ins, _, _ := nodes[holder].Stats()
	if ins != 3 {
		t.Fatalf("expected all 3 rows on node %d, it has %d", holder, ins)
	}
	got, err := drainPrefix(c.QueryPrefixStream(id0.Prefix(3), 3, 0, 10))
	if err != nil || len(got) != 3 {
		t.Fatalf("QueryPrefixStream = %d sensors, %v", len(got), err)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, RingPartitioner{}, 1); err == nil {
		t.Error("empty cluster accepted")
	}
	c, err := NewCluster([]*Node{NewNode(0)}, RingPartitioner{}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Owners(sid(1, 1)); len(got) != 1 {
		t.Errorf("replication not capped at the member count: owners %v", got)
	}
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}

func TestClusterDeleteBefore(t *testing.T) {
	c, _ := NewCluster([]*Node{NewNode(0), NewNode(0)}, RingPartitioner{}, 2)
	id := sid(1, 1)
	for ts := int64(0); ts < 10; ts++ {
		c.InsertBatch(id, []core.Reading{rd(ts, 1)}, 0)
	}
	if err := c.DeleteBefore(id, 5); err != nil {
		t.Fatal(err)
	}
	rs, _ := c.Query(id, 0, 100)
	if len(rs) != 5 {
		t.Fatalf("after delete: %d", len(rs))
	}
}

// Property: Query returns sorted unique timestamps for any insert order.
func TestQuerySortedQuick(t *testing.T) {
	f := func(stamps []int64) bool {
		n := NewNode(8)
		id := sid(1, 1)
		for _, ts := range stamps {
			ts &= 0xffff
			n.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0)
		}
		rs, err := n.Query(id, 0, 1<<60)
		if err != nil {
			return false
		}
		if !sort.SliceIsSorted(rs, func(i, j int) bool { return rs[i].Timestamp < rs[j].Timestamp }) {
			return false
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].Timestamp == rs[i-1].Timestamp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShardSizeCacheAligned(t *testing.T) {
	// Shards live in a contiguous array; a size that is not a multiple
	// of the cache line puts one shard's hot mutex/counters on the same
	// line as its neighbour's, resurrecting the contention PR 1 removed.
	if sz := unsafe.Sizeof(shard{}); sz%64 != 0 {
		t.Fatalf("sizeof(shard) = %d, not a 64-byte multiple — adjust the pad", sz)
	}
}

// drainPrefix drains an opened prefix stream into a map keyed by SID:
// the readings of every sensor that has any.
func drainPrefix(st KeyedReadingStream, err error) (map[core.SensorID][]core.Reading, error) {
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out := make(map[core.SensorID][]core.Reading)
	for {
		id, chunk, err := st.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out[id] = append(out[id], chunk...)
	}
}

// totalInserts sums the insert counters of c's members (replication
// makes it larger than the number of logical writes).
func totalInserts(c *Cluster) int64 {
	var total int64
	for _, b := range c.Backends() {
		ins, _, _ := b.Stats()
		total += ins
	}
	return total
}
