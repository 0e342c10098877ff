package chaos

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/faults"
	"dcdb/internal/membership"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
)

// TestChaosMembershipProcesses is the whole-stack membership scenario:
// three real dcdbnode processes bootstrap a gossip ring, a coordinator
// discovers it from one seed (no -nodes list) and follows it live,
// ingest runs at QUORUM — then a fourth node joins mid-ingest and one
// of the original nodes is SIGKILLed while the join's rebalance is
// still streaming. Gossip must detect the death, the watcher must
// re-target the transition, and after convergence every acked write
// must read back at QUORUM on the reshaped ring.
func TestChaosMembershipProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dcdbnode processes")
	}
	inj := faults.New(seed())
	logSeed(t, inj)

	work := t.TempDir()
	bin := filepath.Join(work, "dcdbnode")
	if out, err := exec.Command("go", "build", "-o", bin, "dcdb/cmd/dcdbnode").CombinedOutput(); err != nil {
		t.Fatalf("building dcdbnode: %v\n%s", err, out)
	}
	gossipArgs := func(seedAddr string) []string {
		return []string{"-join", seedAddr, "-gossip-interval", "50ms"}
	}
	procs := make([]*nodeProc, 3)
	dirs := make([]string, 4)
	dirs[0] = filepath.Join(work, "node0")
	procs[0] = startNode(t, bin, dirs[0], gossipArgs("self")...)
	for i := 1; i < 3; i++ {
		dirs[i] = filepath.Join(work, fmt.Sprintf("node%d", i))
		procs[i] = startNode(t, bin, dirs[i], gossipArgs(procs[0].addr)...)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p != nil {
				p.stop()
			}
		}
	})
	seeds := []string{procs[0].addr, procs[1].addr, procs[2].addr}

	// Wait for the three nodes to converge before the coordinator
	// discovers the ring.
	waitRing := func(want int, within time.Duration) {
		t.Helper()
		deadline := time.Now().Add(within)
		for {
			ms, err := membership.DiscoverRing(seeds...)
			if err == nil && len(ms) == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("gossip ring never reached %d members (last: %v, err %v)", want, ms, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitRing(3, 20*time.Second)

	ro := rpc.ClientOptions{
		DialTimeout:      500 * time.Millisecond,
		CallTimeout:      2 * time.Second,
		ReconnectBackoff: 10 * time.Millisecond,
		MaxBackoff:       100 * time.Millisecond,
	}
	cluster, err := collectagent.OpenDiscoveredBackend(seeds, store.ClusterOptions{
		Replication:        3,
		WriteConsistency:   store.ConsistencyQuorum,
		ReadConsistency:    store.ConsistencyQuorum,
		HintDir:            filepath.Join(work, "hints"),
		HintReplayInterval: 25 * time.Millisecond,
		RebalanceThrottle:  -1,
	}, ro)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	watcher, err := collectagent.WatchMembership(cluster, seeds, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Stop()

	// Continuous ingest at QUORUM, recording exactly what was acked.
	// Writes may fail in the window between the SIGKILL and the ring
	// dropping the dead node — those are not acked and not recorded.
	ids := make([]core.SensorID, 6)
	for i := range ids {
		ids[i] = sid(120+uint64(i), uint64(i)<<8)
	}
	type ackedKey struct {
		sensor int
		ts     int64
	}
	var mu sync.Mutex
	acked := make(map[ackedKey]float64)
	stopIngest := make(chan struct{})
	var ingestWG sync.WaitGroup
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		ts := int64(0)
		for {
			select {
			case <-stopIngest:
				return
			default:
			}
			for s, id := range ids {
				const per = 3
				rs := make([]core.Reading, per)
				for j := range rs {
					rs[j] = core.Reading{Timestamp: ts + int64(j) + 1, Value: float64(ts + int64(j) + 1)}
				}
				if err := cluster.InsertBatch(id, rs, 0); err != nil {
					continue // not acked: the dead node may still be in the ring
				}
				mu.Lock()
				for _, r := range rs {
					acked[ackedKey{s, r.Timestamp}] = r.Value
				}
				mu.Unlock()
			}
			ts += 3
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Let some ingest land on the original ring.
	time.Sleep(300 * time.Millisecond)

	// A fourth node joins mid-ingest...
	dirs[3] = filepath.Join(work, "node3")
	joiner := startNode(t, bin, dirs[3], gossipArgs(procs[0].addr)...)
	t.Cleanup(joiner.stop)

	// ...and one original node is SIGKILLed while the join's rebalance
	// is (or is about to start) streaming.
	victim := inj.DeriveRand("victim").Intn(3)
	time.Sleep(time.Duration(50+inj.DeriveRand("killDelay").Intn(300)) * time.Millisecond)
	procs[victim].kill()
	killed := procs[victim].addr
	procs[victim] = nil
	t.Logf("killed %s; joiner %s", killed, joiner.addr)

	// Live seeds only — the watcher and the final checks must not
	// depend on the dead node answering probes.
	liveSeeds := make([]string, 0, 3)
	for i, p := range procs {
		if i < len(procs) && p != nil {
			liveSeeds = append(liveSeeds, p.addr)
		}
	}

	// Converge: gossip declares the victim dead (1.6s at 50ms rounds),
	// the watcher re-targets, the rebalance streams and cuts over.
	wantIDs := append([]string{joiner.addr}, liveSeeds...)
	sort.Strings(wantIDs)
	deadline := time.Now().Add(60 * time.Second)
	for {
		ms, transition := cluster.ClusterStats(), storetest.Rebalancing(cluster)
		got := make([]string, len(ms))
		for i, m := range ms {
			got[i] = m.ID
		}
		sort.Strings(got)
		if !transition && len(got) == len(wantIDs) {
			match := true
			for i := range got {
				if got[i] != wantIDs[i] {
					match = false
					break
				}
			}
			if match {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never converged: members %v (transition %v), want %v", got, transition, wantIDs)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Keep ingesting briefly on the converged ring, then stop and audit.
	time.Sleep(200 * time.Millisecond)
	close(stopIngest)
	ingestWG.Wait()

	mu.Lock()
	total := len(acked)
	mu.Unlock()
	if total == 0 {
		t.Fatal("no writes were acked — the scenario never ingested")
	}

	// Zero acked-write loss: every QUORUM-acked reading is readable at
	// QUORUM from the reshaped ring (dead node gone, joiner serving).
	for s, id := range ids {
		rs, err := cluster.Query(id, 0, 1<<62)
		if err != nil {
			t.Fatalf("QUORUM read after convergence: %v", err)
		}
		have := make(map[int64]float64, len(rs))
		for _, r := range rs {
			have[r.Timestamp] = r.Value
		}
		mu.Lock()
		for k, v := range acked {
			if k.sensor != s {
				continue
			}
			got, ok := have[k.ts]
			if !ok || got != v {
				mu.Unlock()
				t.Fatalf("sensor %d: acked reading ts=%d value=%g missing or wrong after convergence (got %g, present %v)",
					s, k.ts, v, got, ok)
			}
		}
		mu.Unlock()
	}
	t.Logf("audited %d acked readings across %d sensors", total, len(ids))
}
