package store

import (
	"errors"
	"io"
	"sync"
	"syscall"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/faults"
	"dcdb/internal/fsutil"
)

// Fault-matrix tests: deterministic, scripted failures at single seams
// (one replica's stream dies mid-merge, one disk fills, one hint replay
// is interrupted), asserting the exact contract the chaos suite then
// probes under randomized schedules.

// flakyStreamBackend wraps a Node so its first QueryStream serves
// failAfter chunks and then dies; subsequent opens either succeed
// (reopenOK) or fail outright (a replica that stayed down).
type flakyStreamBackend struct {
	*Node
	reopenOK  bool
	failAfter int

	mu    sync.Mutex
	opens int
	froms []int64 // the from bound of every open, for resume assertions
}

func (b *flakyStreamBackend) QueryStream(id core.SensorID, from, to int64) (ReadingStream, error) {
	b.mu.Lock()
	b.opens++
	n := b.opens
	b.froms = append(b.froms, from)
	b.mu.Unlock()
	if n > 1 && !b.reopenOK {
		return nil, errors.New("injected: replica unreachable")
	}
	st, err := b.Node.QueryStream(id, from, to)
	if err != nil {
		return nil, err
	}
	if n == 1 {
		return &failAfterStream{st: st, left: b.failAfter}, nil
	}
	return st, nil
}

func (b *flakyStreamBackend) stats() (opens int, froms []int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens, append([]int64(nil), b.froms...)
}

type failAfterStream struct {
	st   ReadingStream
	left int
}

func (f *failAfterStream) Next() ([]core.Reading, error) {
	if f.left == 0 {
		f.st.Close()
		return nil, errors.New("injected: replica stream lost")
	}
	f.left--
	return f.st.Next()
}

func (f *failAfterStream) Close() error { return f.st.Close() }

// streamCluster builds a 3-node cluster with node `wrap` behind a
// flakyStreamBackend, fully populated with total readings for id.
func streamCluster(t *testing.T, id core.SensorID, total int, wrap int, reopenOK bool) (*Cluster, *flakyStreamBackend, []core.Reading) {
	t.Helper()
	nodes := []*Node{NewNode(0), NewNode(0), NewNode(0)}
	backends := make([]NodeBackend, len(nodes))
	var flaky *flakyStreamBackend
	for i, n := range nodes {
		if i == wrap {
			flaky = &flakyStreamBackend{Node: n, reopenOK: reopenOK, failAfter: 2}
			backends[i] = flaky
		} else {
			backends[i] = n
		}
	}
	c, err := NewClusterOptions(backends, ClusterOptions{
		Replication:     3,
		ReadConsistency: ConsistencyQuorum,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	batch := make([]core.Reading, 0, 1024)
	for ts := 0; ts < total; ts++ {
		batch = append(batch, core.Reading{Timestamp: int64(ts + 1), Value: float64(ts)})
		if len(batch) == cap(batch) || ts == total-1 {
			// Writes fan out to every replica and wait for all three, so
			// the replicas are byte-identical before any fault fires.
			if err := c.InsertBatch(id, batch, 0); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	// Read the expectation off one replica: a cluster read would spend
	// the flaky backend's scripted first open.
	want, err := nodes[(wrap+1)%len(nodes)].Query(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != total {
		t.Fatalf("seeded %d of %d readings", len(want), total)
	}
	return c, flaky, want
}

func drainStream(t *testing.T, st ReadingStream) []core.Reading {
	t.Helper()
	var got []core.Reading
	for {
		rs, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream failed mid-drain: %v", err)
		}
		got = append(got, rs...)
	}
	st.Close()
	return got
}

func requireEqualReadings(t *testing.T, got, want []core.Reading) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stream returned %d readings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestQuorumStreamResumesAfterMidStreamLoss: a QUORUM stream whose
// replica stream dies mid-merge must re-open it at the merge horizon
// and produce exactly the unfaulted sequence — no loss, no repeats.
func TestQuorumStreamResumesAfterMidStreamLoss(t *testing.T) {
	id := sid(11, 11)
	total := 3*StreamChunkReadings + 700
	c, flaky, want := streamCluster(t, id, total, 1, true)
	st, err := c.QueryStream(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualReadings(t, drainStream(t, st), want)
	opens, froms := flaky.stats()
	if opens != 2 {
		t.Fatalf("replica stream opened %d times, want 2 (initial + one resume)", opens)
	}
	if froms[1] <= froms[0] {
		t.Fatalf("resume re-opened from %d (initial %d): restarted instead of resuming", froms[1], froms[0])
	}
}

// TestQuorumStreamSurvivesDeadReplica: when the lost replica never
// comes back, the merge must finish from the surviving quorum with the
// identical sequence, and the re-open budget must stay bounded.
func TestQuorumStreamSurvivesDeadReplica(t *testing.T) {
	id := sid(12, 12)
	total := 3*StreamChunkReadings + 700
	c, flaky, want := streamCluster(t, id, total, 1, false)
	st, err := c.QueryStream(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualReadings(t, drainStream(t, st), want)
	opens, _ := flaky.stats()
	if opens > 3 {
		t.Fatalf("dead replica re-opened %d times; budget is one inline + one barrier attempt", opens)
	}
}

// TestOneStreamFailsOverMidStream: a ONE-level stream riding a replica
// that dies mid-stream must fail over to the next replica at the last
// emitted timestamp and finish with the identical sequence.
func TestOneStreamFailsOverMidStream(t *testing.T) {
	id := sid(13, 13)
	// ONE rides the first replica whose stream opens — the primary when
	// everyone is up — so that is the one to sabotage.
	// Placement depends on member names only, so an empty cluster of the
	// same shape says which node that is.
	probe, err := NewCluster([]*Node{NewNode(0), NewNode(0), NewNode(0)}, RingPartitioner{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	primary := probe.replicasFor(id)[0]
	probe.Close()
	total := 3*StreamChunkReadings + 700
	nodesCluster, flaky, want := func() (*Cluster, *flakyStreamBackend, []core.Reading) {
		c, f, w := streamCluster(t, id, total, primary, false)
		c.readCL = ConsistencyOne
		return c, f, w
	}()
	st, err := nodesCluster.QueryStream(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualReadings(t, drainStream(t, st), want)
	opens, _ := flaky.stats()
	if opens != 1 {
		t.Fatalf("failed replica opened %d times; failover must move on, not retry it", opens)
	}
}

// TestWALWriteENOSPCFailsShardClosed: when the disk is full (writes and
// new segment files both fail), the shard must reject writes — fail
// closed — rather than acknowledge data it cannot make durable, stay
// closed until reopen even after space returns, and recover every
// previously acked write.
func TestWALWriteENOSPCFailsShardClosed(t *testing.T) {
	inj := faults.New(1)
	orig := fsutil.Disk
	fsutil.Disk = inj.FS(orig)
	defer func() { fsutil.Disk = orig }()

	dir := t.TempDir()
	n := openedNode(t, dir, 0, DiskOptions{SyncInterval: 0})
	id := sid(6, 6)
	other := sid(6, 7)
	for shardIndex(other) == shardIndex(id) {
		other.Lo++
	}
	if err := n.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
		t.Fatal(err)
	}

	full := inj.AddRule(&faults.Rule{
		Ops: faults.FSWrite | faults.FSOpen, Match: dir, Err: syscall.ENOSPC,
	})
	err := n.InsertBatch(id, []core.Reading{{Timestamp: 2, Value: 2}}, 0)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("insert on a full disk returned %v, want ENOSPC", err)
	}
	// The broken segment's rotation also fails (no space for a new
	// file): the shard latches closed.
	if err := n.InsertBatch(id, []core.Reading{{Timestamp: 3, Value: 3}}, 0); err == nil {
		t.Fatal("insert acked while the WAL could not be replaced")
	}
	full.Disable()
	if err := n.InsertBatch(id, []core.Reading{{Timestamp: 4, Value: 4}}, 0); err == nil {
		t.Fatal("shard accepted writes again without a reopen; fail-closed must latch")
	}
	// The node has one WAL: every shard is refused until the reopen.
	if err := n.InsertBatch(other, []core.Reading{{Timestamp: 1, Value: 9}}, 0); err == nil {
		t.Fatal("another shard accepted a write without a reopen; fail-closed must latch the node")
	}

	// Reopen: everything acked before the fault is there, everything
	// rejected is not, and the shard serves writes again.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2 := openedNode(t, dir, 0, DiskOptions{SyncInterval: 0})
	defer n2.Close()
	rs, err := n2.Query(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Timestamp != 1 {
		t.Fatalf("recovered %v; want exactly the one acked reading", rs)
	}
	if err := n2.InsertBatch(id, []core.Reading{{Timestamp: 5, Value: 5}}, 0); err != nil {
		t.Fatalf("shard still closed after reopen: %v", err)
	}
}

// TestHintLostCounted: a hint whose file write fails is lost, but not
// silently — the write still acks at ONE on the replica that took it,
// and dcdb_cluster_hints_lost_total counts the lost hint.
func TestHintLostCounted(t *testing.T) {
	inj := faults.New(1)
	orig := fsutil.Disk
	fsutil.Disk = inj.FS(orig)
	defer func() { fsutil.Disk = orig }()

	hintDir := t.TempDir()
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{HintDir: hintDir, HintReplayInterval: -1})
	defer c.Close()
	inj.AddRule(&faults.Rule{Ops: faults.FSWrite, Match: hintDir, Err: syscall.ENOSPC})
	id := sid(11, 5)
	reps := c.replicasFor(id)
	nodes[reps[1]].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
		t.Fatalf("ONE write whose hint could not be queued: %v", err)
	}
	if got := sampleValue(t, c.Metrics().Gather(), "dcdb_cluster_hints_lost_total"); got != 1 {
		t.Fatalf("dcdb_cluster_hints_lost_total = %v, want 1", got)
	}
	if queued, _, _ := c.HintStats(); queued != 0 {
		t.Fatalf("%d hints queued, want the one lost", queued)
	}
	if rs, err := nodes[reps[0]].Query(id, 0, 10); err != nil || len(rs) != 1 {
		t.Fatalf("the live replica holds %v, %v; want the acked reading", rs, err)
	}
}

// insertFailBackend fails one scripted InsertVersioned call, for
// interrupting a hint replay mid-file. Coordinated writes and hint
// replay both deliver through InsertVersioned.
type insertFailBackend struct {
	*Node
	mu     sync.Mutex
	calls  int
	failAt int
}

func (b *insertFailBackend) InsertVersioned(id core.SensorID, vrs []VersionedReading) error {
	b.mu.Lock()
	b.calls++
	fail := b.calls == b.failAt
	b.mu.Unlock()
	if fail {
		return errors.New("injected: delivery dropped")
	}
	return b.Node.InsertVersioned(id, vrs)
}

// TestHintReplayInterruptedMidFileRedelivers: a replay that dies
// mid-file must keep the file and re-apply it whole on the next
// attempt — at-least-once delivery, with the duplicate collapsing at
// the replica's query-time dedup.
func TestHintReplayInterruptedMidFileRedelivers(t *testing.T) {
	nodes := []*Node{NewNode(0), NewNode(0)}
	wrapped := &insertFailBackend{Node: nodes[1], failAt: 4}
	c, err := NewClusterOptions([]NodeBackend{nodes[0], wrapped}, ClusterOptions{
		Replication:        2,
		WriteConsistency:   ConsistencyOne,
		HintDir:            t.TempDir(),
		HintReplayInterval: -1, // replay driven explicitly
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := sid(14, 14)
	nodes[1].SetDown(true)
	// Two cluster writes while the replica is down: calls 1 and 2 on
	// the wrapper (rejected by the down node), two hint records queued.
	for ts := int64(1); ts <= 2; ts++ {
		if err := c.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: float64(ts)}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	nodes[1].SetDown(false)
	// First replay: record 1 delivers (call 3), record 2 is dropped
	// (call 4 = failAt) — the file must survive.
	if err := c.ReplayHints(); err == nil {
		t.Fatal("interrupted replay reported success")
	}
	if err := c.ReplayHints(); err != nil {
		t.Fatalf("second replay: %v", err)
	}
	queued, replayed, pending := c.HintStats()
	if pending != 0 {
		t.Fatalf("hints still pending after successful replay: %d", pending)
	}
	if queued != 2 || replayed <= queued {
		t.Fatalf("queued %d replayed %d; a mid-file interruption must redeliver the whole file (at-least-once)", queued, replayed)
	}
	// The duplicate delivery collapses: the replica serves each
	// timestamp exactly once.
	rs, err := nodes[1].Query(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Timestamp != 1 || rs[1].Timestamp != 2 {
		t.Fatalf("replica converged to %v", rs)
	}
}
