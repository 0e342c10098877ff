package chaos

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/faults"
	"dcdb/internal/fsutil"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

func sid(hi, lo uint64) core.SensorID { return core.SensorID{Hi: hi, Lo: lo} }

// logSeed prints the scenario's reproduction line (visible on failure).
func logSeed(t *testing.T, inj *faults.Injector) {
	t.Logf("chaos seed %d — reproduce with: go test ./internal/chaos -run '^%s$' -seed=%d",
		inj.Seed(), t.Name(), inj.Seed())
}

// fastClient are client options tuned so a partitioned node costs the
// scenario milliseconds, not dial timeouts.
func fastClient(inj *faults.Injector) rpc.ClientOptions {
	return rpc.ClientOptions{
		DialTimeout:      500 * time.Millisecond,
		CallTimeout:      2 * time.Second,
		ReconnectBackoff: 5 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		Dial:             inj.Dial,
	}
}

// rpcNodes serves n in-process store nodes over real RPC and returns
// their addresses. A factory builds one fresh client set per cluster
// (clusters close their backends, so they cannot share clients).
func rpcNodes(t *testing.T, n int) (addrs []string, client func(o rpc.ClientOptions) []store.NodeBackend) {
	t.Helper()
	addrs = make([]string, n)
	for i := 0; i < n; i++ {
		node := store.NewNode(0)
		srv := rpc.NewServer(node, true)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); node.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs, func(o rpc.ClientOptions) []store.NodeBackend {
		backends := make([]store.NodeBackend, n)
		for i, a := range addrs {
			backends[i] = rpc.NewClient(a, o)
		}
		return backends
	}
}

func drain(t *testing.T, st store.ReadingStream) []core.Reading {
	t.Helper()
	var got []core.Reading
	for {
		rs, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream died mid-drain: %v", err)
		}
		got = append(got, rs...)
	}
	st.Close()
	return got
}

func requireEqual(t *testing.T, what string, got, want []core.Reading) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d readings, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d: got %+v want %+v", what, i, got[i], want[i])
		}
	}
}

// TestChaosPartitionDuringHandoff flaps an asymmetric partition (the
// coordinator cannot reach the victim; in-flight bytes from it still
// arrive) across one replica while writes flow at ONE and the hint
// replayer runs — replays race the link dropping again mid-delivery.
// Contract: every write acked at ONE survives to a QUORUM read once
// the partition heals, and delivery is at-least-once.
func TestChaosPartitionDuringHandoff(t *testing.T) {
	inj := faults.New(seed())
	logSeed(t, inj)
	addrs, clients := rpcNodes(t, 3)
	cluster, err := store.NewClusterOptions(clients(fastClient(inj)), store.ClusterOptions{
		Replication:        2,
		WriteConsistency:   store.ConsistencyOne,
		ReadConsistency:    store.ConsistencyQuorum,
		HintDir:            filepath.Join(t.TempDir(), "hints"),
		HintReplayInterval: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	victim := inj.DeriveRand("victim").Intn(len(addrs))
	cut := inj.AddRule(&faults.Rule{
		Ops:   faults.Dial | faults.ConnWrite,
		Match: addrs[victim],
		Err:   faults.ErrInjected,
	})
	cut.Disable()

	flap := inj.DeriveRand("flap")
	ids := make([]core.SensorID, 8)
	for i := range ids {
		ids[i] = sid(30+uint64(i), uint64(i)<<8)
	}
	const rounds, perRound = 14, 5
	ts := int64(0)
	for round := 0; round < rounds; round++ {
		if round%2 == 1 {
			cut.Enable()
		} else {
			cut.Disable()
		}
		// Hold the link state long enough for replay attempts to land
		// inside both windows.
		time.Sleep(time.Duration(5+flap.Intn(20)) * time.Millisecond)
		for _, id := range ids {
			rs := make([]core.Reading, perRound)
			for j := range rs {
				rs[j] = core.Reading{Timestamp: ts + int64(j) + 1, Value: float64(ts + int64(j) + 1)}
			}
			if err := cluster.InsertBatch(id, rs, 0); err != nil {
				t.Fatalf("write at ONE failed during a single-replica partition: %v", err)
			}
		}
		ts += perRound
	}
	cut.Disable()

	// Heal: hints must drain.
	deadline := time.Now().Add(20 * time.Second)
	for {
		queued, replayed, pending := cluster.HintStats()
		if pending == 0 {
			if queued == 0 {
				t.Fatalf("partition never bit: no hints queued (seed %d)", inj.Seed())
			}
			if replayed < queued {
				t.Fatalf("hints drained but only %d of %d mutations delivered", replayed, queued)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hints never drained: queued %d replayed %d pending %d", queued, replayed, pending)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Zero acked-write loss: everything acked at ONE reads back at QUORUM.
	for _, id := range ids {
		rs, err := cluster.Query(id, 0, 1<<62)
		if err != nil {
			t.Fatalf("QUORUM read after heal: %v", err)
		}
		if len(rs) != rounds*perRound {
			t.Fatalf("sensor %v: QUORUM read returned %d of %d acked readings", id, len(rs), rounds*perRound)
		}
		for i, r := range rs {
			if r.Timestamp != int64(i+1) || r.Value != float64(i+1) {
				t.Fatalf("sensor %v position %d: %+v", id, i, r)
			}
		}
	}
}

// TestChaosDiskFaultsUnderIngest runs replicated ingest while one
// replica's disk slows down and another's fills up (ENOSPC on both
// writes and new files). Contract: writes at ONE keep acking, the full
// node fails closed instead of acking data it cannot persist, and
// after the node restarts on its directory, hint replay converges it —
// zero acked writes lost.
func TestChaosDiskFaultsUnderIngest(t *testing.T) {
	inj := faults.New(seed())
	logSeed(t, inj)
	orig := fsutil.Disk
	fsutil.Disk = inj.FS(orig)
	defer func() { fsutil.Disk = orig }()

	work := t.TempDir()
	dirs := make([]string, 3)
	open := func(i int) *store.Node {
		n := store.NewNode(0)
		if err := n.OpenOptions(dirs[i], store.DiskOptions{SyncInterval: 0}); err != nil {
			t.Fatalf("opening node %d: %v", i, err)
		}
		return n
	}
	nodes := make([]*store.Node, 3)
	backends := make([]store.NodeBackend, 3)
	for i := range nodes {
		dirs[i] = filepath.Join(work, fmt.Sprintf("data%d", i))
		nodes[i] = open(i)
		backends[i] = nodes[i]
	}
	hintDir := filepath.Join(work, "hints")
	cluster, err := store.NewClusterOptions(backends, store.ClusterOptions{
		Replication:        3,
		WriteConsistency:   store.ConsistencyOne,
		ReadConsistency:    store.ConsistencyQuorum,
		HintDir:            hintDir,
		HintReplayInterval: -1, // replay after recovery, explicitly
	})
	if err != nil {
		t.Fatal(err)
	}

	slowRule := inj.AddRule(&faults.Rule{
		Ops: faults.FSWrite, Match: dirs[2], Prob: 0.4, Delay: 200 * time.Microsecond,
	})
	fullAfter := int64(20 + inj.DeriveRand("fullAfter").Intn(60))
	fullRule := inj.AddRule(&faults.Rule{
		Ops: faults.FSWrite | faults.FSSync | faults.FSOpen, Match: dirs[1],
		After: fullAfter, Err: faults.ErrInjected,
	})

	ids := make([]core.SensorID, 6)
	for i := range ids {
		ids[i] = sid(40+uint64(i), uint64(i)<<4)
	}
	const rounds, perRound = 30, 4
	ts := int64(0)
	for round := 0; round < rounds; round++ {
		for _, id := range ids {
			rs := make([]core.Reading, perRound)
			for j := range rs {
				rs[j] = core.Reading{Timestamp: ts + int64(j) + 1, Value: float64(ts + int64(j) + 1)}
			}
			if err := cluster.InsertBatch(id, rs, 0); err != nil {
				t.Fatalf("write at ONE failed with one slow and one full disk: %v", err)
			}
		}
		ts += perRound
	}
	if fullRule.Fired() == 0 {
		t.Fatalf("the disk never filled (seed %d): scenario did not bite", inj.Seed())
	}
	slowRule.Disable()
	fullRule.Disable()

	// The full node failed closed: space returning does not quietly
	// reopen shards whose WAL was lost mid-write.
	if err := nodes[1].InsertBatch(ids[0], []core.Reading{{Timestamp: 1 << 40, Value: 1}}, 0); err == nil {
		t.Fatal("full node accepted a write after ENOSPC without a restart")
	}
	// QUORUM reads already serve everything from the healthy majority.
	for _, id := range ids {
		rs, err := cluster.Query(id, 0, 1<<62)
		if err != nil {
			t.Fatalf("QUORUM read with the full node down: %v", err)
		}
		if len(rs) != rounds*perRound {
			t.Fatalf("sensor %v: QUORUM read returned %d of %d acked readings", id, len(rs), rounds*perRound)
		}
	}
	queued, _, _ := cluster.HintStats()
	if queued == 0 {
		t.Fatal("no hints queued for the full node")
	}
	if err := cluster.Close(); err != nil {
		t.Fatalf("closing cluster: %v", err)
	}

	// Restart every node on its directory (the disk has space again)
	// and replay the hints: the full node must converge completely.
	for i := range nodes {
		nodes[i] = open(i)
		backends[i] = nodes[i]
	}
	cluster2, err := store.NewClusterOptions(backends, store.ClusterOptions{
		Replication:        3,
		WriteConsistency:   store.ConsistencyOne,
		ReadConsistency:    store.ConsistencyQuorum,
		HintDir:            hintDir,
		HintReplayInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster2.Close()
	if err := cluster2.ReplayHints(); err != nil {
		t.Fatalf("hint replay after restart: %v", err)
	}
	for _, id := range ids {
		rs, err := nodes[1].Query(id, 0, 1<<62)
		if err != nil {
			t.Fatalf("restarted node query: %v", err)
		}
		if len(rs) != rounds*perRound {
			t.Fatalf("sensor %v: restarted node has %d of %d readings after handoff", id, len(rs), rounds*perRound)
		}
	}
}

// TestChaosClockSkew runs a coordinator and a storage node whose wall
// clocks disagree by hours — in opposite directions, with a mid-stream
// jump. Contract: because every deadline crosses the wire as a
// relative budget, skew must not fail or starve any operation.
func TestChaosClockSkew(t *testing.T) {
	inj := faults.New(seed())
	logSeed(t, inj)
	r := inj.DeriveRand("skew")
	serverSkew := time.Duration(30+r.Intn(150)) * time.Minute
	clientSkew := -time.Duration(30+r.Intn(150)) * time.Minute

	serverClock := faults.New(seed())
	serverClock.SetSkew(serverSkew)
	clientClock := faults.New(seed())
	clientClock.SetSkew(clientSkew)
	t.Logf("server clock %+v, client clock %+v", serverSkew, clientSkew)

	node := store.NewNode(0)
	srv := rpc.NewServer(node, true)
	srv.SetNow(serverClock.Now)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer node.Close()
	cl := rpc.NewClient(srv.Addr(), rpc.ClientOptions{
		CallTimeout: 2 * time.Second,
		Now:         clientClock.Now,
	})
	defer cl.Close()

	id := sid(50, 50)
	total := 2*store.StreamChunkReadings + 333
	batch := make([]core.Reading, 0, 1024)
	for ts := 0; ts < total; ts++ {
		batch = append(batch, core.Reading{Timestamp: int64(ts + 1), Value: float64(ts)})
		if len(batch) == cap(batch) || ts == total-1 {
			if err := cl.InsertBatch(id, batch, 0); err != nil {
				t.Fatalf("insert under %s of clock skew: %v", serverSkew-clientSkew, err)
			}
			batch = batch[:0]
		}
	}
	want, err := cl.Query(id, 0, 1<<62)
	if err != nil {
		t.Fatalf("query under clock skew: %v", err)
	}
	if len(want) != total {
		t.Fatalf("query under skew returned %d of %d readings", len(want), total)
	}

	// Stream across a live clock jump: the server's clock leaps another
	// hour mid-stream.
	st, err := cl.QueryStream(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	first, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	serverClock.SetSkew(serverSkew + time.Hour)
	got := append([]core.Reading(nil), first...)
	got = append(got, drain(t, st)...)
	requireEqual(t, "stream across a clock jump", got, want)
}

// TestChaosStreamFailoverUnderConnFaults seeds three RPC replicas and
// kills connections mid-stream three ways: a transient severed read, a
// hard partition of one replica during a QUORUM merge, and a hard
// partition of the serving replica during a ONE stream. Contract: the
// reading sequence is identical to the unfaulted run every time.
func TestChaosStreamFailoverUnderConnFaults(t *testing.T) {
	inj := faults.New(seed())
	logSeed(t, inj)
	addrs, clients := rpcNodes(t, 3)
	part := store.RingPartitioner{Depth: 4}
	clusterQ, err := store.NewClusterOptions(clients(fastClient(inj)), store.ClusterOptions{
		Partitioner: part, Replication: 3,
		WriteConsistency: store.ConsistencyQuorum,
		ReadConsistency:  store.ConsistencyQuorum,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clusterQ.Close()
	clusterOne, err := store.NewClusterOptions(clients(fastClient(inj)), store.ClusterOptions{
		Partitioner: part, Replication: 3,
		ReadConsistency: store.ConsistencyOne,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clusterOne.Close()

	id := sid(60, 60)
	total := 5*store.StreamChunkReadings + 777
	batch := make([]core.Reading, 0, 2048)
	for ts := 0; ts < total; ts++ {
		batch = append(batch, core.Reading{Timestamp: int64(ts + 1), Value: float64(ts)})
		if len(batch) == cap(batch) || ts == total-1 {
			// Replica fan-out waits for every node, so all three serve
			// identical data before any fault fires.
			if err := clusterQ.InsertBatch(id, batch, 0); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	st, err := clusterQ.QueryStream(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, st) // unfaulted reference
	if len(want) != total {
		t.Fatalf("reference drain returned %d of %d readings", len(want), total)
	}

	r := inj.DeriveRand("failover")

	// Transient: one severed read on one replica mid-merge; whether the
	// resume succeeds or the cursor dies, the sequence must not change.
	victim := r.Intn(len(addrs))
	sever := inj.AddRule(&faults.Rule{
		Ops: faults.ConnRead, Match: addrs[victim],
		After: int64(50 + r.Intn(200)), Count: 1, Err: faults.ErrInjected,
	})
	st, err = clusterQ.QueryStream(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, "QUORUM stream with a severed replica read", drain(t, st), want)
	sever.Disable()

	// Hard partition mid-stream: one replica becomes fully unreachable
	// after the first chunk; the surviving quorum finishes the merge.
	victim = r.Intn(len(addrs))
	cut := inj.AddRule(&faults.Rule{
		Ops:   faults.Dial | faults.ConnRead | faults.ConnWrite,
		Match: addrs[victim], Err: faults.ErrInjected,
	})
	cut.Disable()
	st, err = clusterQ.QueryStream(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	first, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	cut.Enable()
	got := append([]core.Reading(nil), first...)
	got = append(got, drain(t, st)...)
	requireEqual(t, "QUORUM stream with a partitioned replica", got, want)
	cut.Disable()

	// ONE-level failover: partition the replica actually serving the
	// stream (the primary — every replica is up at open).
	cutPrimary := inj.AddRule(&faults.Rule{
		Ops:   faults.Dial | faults.ConnRead | faults.ConnWrite,
		Match: clusterOne.Owners(id)[0], Err: faults.ErrInjected,
	})
	cutPrimary.Disable()
	st, err = clusterOne.QueryStream(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	first, err = st.Next()
	if err != nil {
		t.Fatal(err)
	}
	cutPrimary.Enable()
	got = append([]core.Reading(nil), first...)
	got = append(got, drain(t, st)...)
	requireEqual(t, "ONE stream failing over mid-stream", got, want)
	cutPrimary.Disable()
}
