package chaos

import (
	"path/filepath"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/faults"
	"dcdb/internal/fsutil"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
)

// waitHintsDrained polls until no hint mutations are pending, failing
// with the queue counters if they never drain.
func waitHintsDrained(t *testing.T, c *store.Cluster, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		queued, replayed, pending := c.HintStats()
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("hints never drained: queued %d replayed %d pending %d", queued, replayed, pending)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitTransitionDone polls until the cluster is out of its dual-ring
// transition (rebalance streamed and the cutover committed).
func waitTransitionDone(t *testing.T, c *store.Cluster, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if !storetest.Rebalancing(c) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("rebalance never converged: still in transition")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosJoinDuringPartitionFlap grows a live-membership ring — a
// fourth node joins via SetMembers — while an asymmetric partition
// flaps on one of the original replicas and writes flow at ONE the
// whole time. The streaming rebalance has to read moved ranges at
// quorum from owners that keep disappearing, and hint delivery for the
// flapping replica is deferred until the cutover. Contract: every
// write acked at ONE reads back at QUORUM once the partition heals and
// the transition converges — joining mid-fault loses nothing.
func TestChaosJoinDuringPartitionFlap(t *testing.T) {
	inj := faults.New(seed())
	logSeed(t, inj)
	addrs, _ := rpcNodes(t, 4)
	factory := func(id, addr string) store.NodeBackend {
		return rpc.NewClient(addr, fastClient(inj))
	}
	initial := make([]store.MemberInfo, 3)
	for i := range initial {
		initial[i] = store.MemberInfo{ID: addrs[i], Addr: addrs[i]}
	}
	cluster, err := store.NewClusterMembers(initial, store.ClusterOptions{
		Partitioner:        store.RingPartitioner{},
		Replication:        2,
		WriteConsistency:   store.ConsistencyOne,
		ReadConsistency:    store.ConsistencyQuorum,
		HintDir:            filepath.Join(t.TempDir(), "hints"),
		HintReplayInterval: 15 * time.Millisecond,
		BackendFactory:     factory,
		RebalanceThrottle:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	victim := inj.DeriveRand("victim").Intn(3)
	cut := inj.AddRule(&faults.Rule{
		Ops:   faults.Dial | faults.ConnWrite,
		Match: addrs[victim],
		Err:   faults.ErrInjected,
	})
	cut.Disable()

	flap := inj.DeriveRand("flap")
	ids := make([]core.SensorID, 8)
	for i := range ids {
		ids[i] = sid(80+uint64(i), uint64(i)<<8)
	}
	const rounds, perRound = 14, 5
	ts := int64(0)
	for round := 0; round < rounds; round++ {
		if round%2 == 1 {
			cut.Enable()
		} else {
			cut.Disable()
		}
		if round == rounds/2 {
			// The new node joins mid-flap: the rebalance starts while
			// one source replica is unreachable half the time.
			all := make([]store.MemberInfo, 4)
			for i := range all {
				all[i] = store.MemberInfo{ID: addrs[i], Addr: addrs[i]}
			}
			if err := cluster.SetMembers(all); err != nil {
				t.Fatalf("joining the fourth node mid-flap: %v", err)
			}
		}
		time.Sleep(time.Duration(5+flap.Intn(20)) * time.Millisecond)
		for _, id := range ids {
			rs := make([]core.Reading, perRound)
			for j := range rs {
				rs[j] = core.Reading{Timestamp: ts + int64(j) + 1, Value: float64(ts + int64(j) + 1)}
			}
			if err := cluster.InsertBatch(id, rs, 0); err != nil {
				t.Fatalf("write at ONE failed during the flapping join: %v", err)
			}
		}
		ts += perRound
	}
	cut.Disable()
	if cut.Fired() == 0 {
		t.Fatalf("partition never bit (seed %d): scenario did not exercise the fault", inj.Seed())
	}

	// Heal: the rebalance must finish its quorum reads and digest
	// checks, cut over, and hint delivery must drain.
	waitTransitionDone(t, cluster, 30*time.Second)
	waitHintsDrained(t, cluster, 20*time.Second)
	if n := len(cluster.Backends()); n != 4 {
		t.Fatalf("ring has %d members after convergence, want 4", n)
	}

	for _, id := range ids {
		rs, err := cluster.Query(id, 0, 1<<62)
		if err != nil {
			t.Fatalf("QUORUM read after convergence: %v", err)
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

// TestChaosComposedFaults composes three fault families in one seeded
// run: an asymmetric partition flapping on a clock-skewed RPC replica,
// a second replica's disk filling up mid-ingest, and a live clock jump
// — while writes flow at ONE against the one healthy node. Contract:
// ingest never fails, the full node fails closed, and after the faults
// lift (node restarted on its directory, hints replayed) every acked
// write reads back at QUORUM and the refilled node converges fully.
func TestChaosComposedFaults(t *testing.T) {
	inj := faults.New(seed())
	logSeed(t, inj)
	orig := fsutil.Disk
	fsutil.Disk = inj.FS(orig)
	defer func() { fsutil.Disk = orig }()

	// Node 0 is remote over RPC with a skewed server clock and a
	// flapping partition; node 1 is local on a disk that will fill;
	// node 2 is local and healthy.
	skew := inj.DeriveRand("skew")
	serverSkew := time.Duration(30+skew.Intn(150)) * time.Minute
	clientSkew := -time.Duration(30+skew.Intn(150)) * time.Minute
	serverClock := faults.New(seed())
	serverClock.SetSkew(serverSkew)
	clientClock := faults.New(seed())
	clientClock.SetSkew(clientSkew)
	t.Logf("server clock %+v, client clock %+v", serverSkew, clientSkew)

	work := t.TempDir()
	dir1 := filepath.Join(work, "data1")
	dir2 := filepath.Join(work, "data2")
	openLocal := func(dir string) *store.Node {
		n := store.NewNode(0)
		if err := n.OpenOptions(dir, store.DiskOptions{SyncInterval: 0}); err != nil {
			t.Fatalf("opening %s: %v", dir, err)
		}
		return n
	}
	remote := store.NewNode(0)
	srv := rpc.NewServer(remote, true)
	srv.SetNow(serverClock.Now)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); remote.Close() })

	client := func() store.NodeBackend {
		o := fastClient(inj)
		o.Now = clientClock.Now
		return rpc.NewClient(srv.Addr(), o)
	}
	node1 := openLocal(dir1)
	node2 := openLocal(dir2)
	hintDir := filepath.Join(work, "hints")
	cluster, err := store.NewClusterOptions(
		[]store.NodeBackend{client(), node1, node2}, store.ClusterOptions{
			Replication:        3,
			WriteConsistency:   store.ConsistencyOne,
			ReadConsistency:    store.ConsistencyQuorum,
			HintDir:            hintDir,
			HintReplayInterval: -1, // replay explicitly once the faults lift
		})
	if err != nil {
		t.Fatal(err)
	}

	cut := inj.AddRule(&faults.Rule{
		Ops:   faults.Dial | faults.ConnWrite,
		Match: srv.Addr(),
		Err:   faults.ErrInjected,
	})
	cut.Disable()
	fullAfter := int64(20 + inj.DeriveRand("fullAfter").Intn(60))
	fullRule := inj.AddRule(&faults.Rule{
		Ops: faults.FSWrite | faults.FSSync | faults.FSOpen, Match: dir1,
		After: fullAfter, Err: faults.ErrInjected,
	})

	ids := make([]core.SensorID, 6)
	for i := range ids {
		ids[i] = sid(90+uint64(i), uint64(i)<<4)
	}
	const rounds, perRound = 24, 4
	ts := int64(0)
	for round := 0; round < rounds; round++ {
		if round%3 == 1 {
			cut.Enable()
		} else {
			cut.Disable()
		}
		if round == rounds/2 {
			serverClock.SetSkew(serverSkew + time.Hour) // live clock jump
		}
		for _, id := range ids {
			rs := make([]core.Reading, perRound)
			for j := range rs {
				rs[j] = core.Reading{Timestamp: ts + int64(j) + 1, Value: float64(ts + int64(j) + 1)}
			}
			if err := cluster.InsertBatch(id, rs, 0); err != nil {
				t.Fatalf("write at ONE failed under partition+full-disk+skew: %v", err)
			}
		}
		ts += perRound
	}
	cut.Disable()
	if cut.Fired() == 0 {
		t.Fatalf("partition never bit (seed %d)", inj.Seed())
	}
	if fullRule.Fired() == 0 {
		t.Fatalf("the disk never filled (seed %d)", inj.Seed())
	}
	fullRule.Disable()

	// The full node failed closed.
	if err := node1.InsertBatch(ids[0], []core.Reading{{Timestamp: 1 << 40, Value: 1}}, 0); err == nil {
		t.Fatal("full node accepted a write after ENOSPC without a restart")
	}
	queued, _, _ := cluster.HintStats()
	if queued == 0 {
		t.Fatal("no hints queued for the faulted replicas")
	}
	if err := cluster.Close(); err != nil {
		t.Fatalf("closing cluster: %v", err)
	}

	// The faults lift: restart the filled node on its directory, rebuild
	// the coordinator on the same hint queue, and replay.
	node1 = openLocal(dir1)
	node2 = openLocal(dir2)
	cluster2, err := store.NewClusterOptions(
		[]store.NodeBackend{client(), node1, node2}, store.ClusterOptions{
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
		t.Fatalf("hint replay after the faults lifted: %v", err)
	}
	for _, id := range ids {
		rs, err := cluster2.Query(id, 0, 1<<62)
		if err != nil {
			t.Fatalf("QUORUM read after heal: %v", err)
		}
		if len(rs) != rounds*perRound {
			t.Fatalf("sensor %v: QUORUM read returned %d of %d acked readings", id, len(rs), rounds*perRound)
		}
		local, err := node1.Query(id, 0, 1<<62)
		if err != nil {
			t.Fatalf("restarted node query: %v", err)
		}
		if len(local) != rounds*perRound {
			t.Fatalf("sensor %v: restarted node holds %d of %d readings after handoff", id, len(local), rounds*perRound)
		}
	}
}
