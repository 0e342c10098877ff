package chaos

import (
	"path/filepath"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/faults"
	"dcdb/internal/fold"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

// TestChaosStaleResurrectionRepair drives the exact sequence the write
// versions exist for: one replica misses a run of acked rewrites
// (partitioned, writes dropped onto the hint queue), and while those
// hints are still pending a newer conflicting rewrite lands everywhere.
// An anti-entropy round — not hint replay — must converge the diverged
// replica, and the stale hints replaying afterwards must not resurrect
// the old values. Contract: byte-identical reads on every replica at
// every step after repair, with zero acked-write loss.
func TestChaosStaleResurrectionRepair(t *testing.T) {
	inj := faults.New(seed())
	logSeed(t, inj)
	addrs, clients := rpcNodes(t, 3)
	cluster, err := store.NewClusterOptions(clients(fastClient(inj)), store.ClusterOptions{
		Replication:        3,
		WriteConsistency:   store.ConsistencyOne,
		ReadConsistency:    store.ConsistencyQuorum,
		HintDir:            filepath.Join(t.TempDir(), "hints"),
		HintReplayInterval: -1, // the hint window stays open until we say so
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Direct per-replica clients, outside the injector, for verification.
	verify := make([]*rpc.Client, len(addrs))
	for i, a := range addrs {
		verify[i] = rpc.NewClient(a, rpc.ClientOptions{CallTimeout: 2 * time.Second})
		defer verify[i].Close()
	}

	r := inj.DeriveRand("plan")
	ids := make([]core.SensorID, 4)
	for i := range ids {
		ids[i] = sid(70+uint64(i), uint64(i)<<8)
	}
	// expected tracks the last acked value per timestamp — the state a
	// lossless cluster must serve.
	expected := make(map[core.SensorID]map[int64]float64, len(ids))
	write := func(id core.SensorID, ts int64, v float64) {
		t.Helper()
		if err := cluster.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: v}}, 0); err != nil {
			t.Fatalf("write at ONE failed: %v", err)
		}
		expected[id][ts] = v
	}

	// Phase 1: seed base data on every replica.
	const baseN = 40
	for _, id := range ids {
		expected[id] = make(map[int64]float64)
		for ts := int64(1); ts <= baseN; ts++ {
			write(id, ts, float64(ts))
		}
	}

	// Phase 2: partition one replica and rewrite a seeded slice of the
	// base range plus some fresh timestamps — all acked at ONE, all
	// dropped by the victim (its copies go to the hint queue).
	victim := inj.DeriveRand("victim").Intn(len(addrs))
	cut := inj.AddRule(&faults.Rule{
		Ops:   faults.Dial | faults.ConnWrite,
		Match: addrs[victim],
		Err:   faults.ErrInjected,
	})
	rewritten := make(map[core.SensorID][]int64, len(ids))
	for _, id := range ids {
		for k := 0; k < 6+r.Intn(6); k++ {
			ts := int64(1 + r.Intn(baseN))
			write(id, ts, 1000+float64(r.Intn(500)))
			rewritten[id] = append(rewritten[id], ts)
		}
		for k := 0; k < 4; k++ {
			write(id, baseN+int64(k)+1, float64(baseN+k+1))
		}
	}
	cut.Disable()
	if queued, _, _ := cluster.HintStats(); queued == 0 {
		t.Fatalf("partition never bit: no hints queued (seed %d)", inj.Seed())
	}

	// Phase 3: the link is back but the hints are still pending — the
	// hint window. A conflicting rewrite of some already-rewritten
	// timestamps lands on every replica with newer versions, turning
	// the queued hints stale.
	for _, id := range ids {
		tss := rewritten[id]
		for k := 0; k < 1+len(tss)/2; k++ {
			write(id, tss[r.Intn(len(tss))], 2000+float64(r.Intn(500)))
		}
	}

	// replicasAgree summarises every sensor on every replica directly.
	replicasAgree := func() bool {
		t.Helper()
		for _, id := range ids {
			fps := make([]uint64, len(verify))
			counts := make([]int64, len(verify))
			for i, cl := range verify {
				st, err := cl.Aggregate(id, fold.Spec{Op: fold.OpSummary, From: 0, To: 1 << 62})
				if err != nil {
					t.Fatalf("summary on replica %d: %v", i, err)
				}
				fps[i], counts[i] = st.Fingerprint(), st.Count()+st.Skipped()
			}
			for i := 1; i < len(fps); i++ {
				if fps[i] != fps[0] || counts[i] != counts[0] {
					return false
				}
			}
		}
		return true
	}

	// The victim is genuinely diverged before repair.
	if replicasAgree() {
		t.Fatalf("dropped writes left no divergence to repair (seed %d)", inj.Seed())
	}

	requireConverged := func(stage string) {
		t.Helper()
		for _, id := range ids {
			want := expected[id]
			var ref []core.Reading
			for i, cl := range verify {
				rs, err := cl.Query(id, 0, 1<<62)
				if err != nil {
					t.Fatalf("%s: replica %d query: %v", stage, i, err)
				}
				if len(rs) != len(want) {
					t.Fatalf("%s: replica %d has %d of %d acked readings for %v",
						stage, i, len(rs), len(want), id)
				}
				for _, rd := range rs {
					if v, ok := want[rd.Timestamp]; !ok || v != rd.Value {
						t.Fatalf("%s: replica %d serves ts=%d v=%v, want %v (acked-write loss or resurrection)",
							stage, i, rd.Timestamp, rd.Value, v)
					}
				}
				if i == 0 {
					ref = rs
				} else {
					requireEqual(t, stage+": replica vs replica 0", rs, ref)
				}
			}
			// QUORUM reads match too, whatever replica subset answers.
			qrs, err := cluster.Query(id, 0, 1<<62)
			if err != nil {
				t.Fatalf("%s: QUORUM read: %v", stage, err)
			}
			requireEqual(t, stage+": QUORUM vs replicas", qrs, ref)
		}
	}

	// Phase 4: anti-entropy rounds converge the victim while the stale
	// hints are still queued. A round that finds the victim's client
	// still in reconnect backoff skips it — by design the next round
	// catches it, so poll with a deadline.
	deadline := time.Now().Add(20 * time.Second)
	for {
		cluster.RepairRound()
		if replicasAgree() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("repair rounds never converged the replicas (seed %d)", inj.Seed())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Anti-entropy, not hint replay, moved the data: the hints are still
	// pending and the repair counters fired.
	if _, _, pending := cluster.HintStats(); pending == 0 {
		t.Fatal("hints replayed before the repair assertion — the scenario did not test anti-entropy")
	}
	var mismatched, repaired float64
	for _, s := range cluster.Metrics().Gather() {
		switch s.Name {
		case "dcdb_cluster_antientropy_ranges_mismatched_total":
			mismatched = s.Value
		case "dcdb_cluster_antientropy_readings_repaired_total":
			repaired = s.Value
		}
	}
	if mismatched < 1 || repaired < 1 {
		t.Fatalf("repair counters: mismatched=%v repaired=%v, want both ≥ 1", mismatched, repaired)
	}
	requireConverged("after repair round")

	// Phase 5: the stale hints finally replay. Their versions are older
	// than the conflicting rewrites', so nothing may change.
	if err := cluster.ReplayHints(); err != nil {
		t.Fatalf("hint replay: %v", err)
	}
	requireConverged("after stale hint replay")
}
