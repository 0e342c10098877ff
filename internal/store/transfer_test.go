package store_test

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
)

// The transfer-heap bound, for the path that copies a sensor's readings
// from one node to another: a rebalance.

// TestTransferHeapBoundedOnJoin: a join that moves one sensor of 10^6
// readings streams it through the replica merge a chunk at a time, so
// the heap it needs beyond the copy the new owner keeps stays bounded —
// a transfer that materialised the history needed several copies of it
// at once.
func TestTransferHeapBoundedOnJoin(t *testing.T) {
	nodes := map[string]*store.Node{}
	c, err := store.NewClusterMembers([]store.MemberInfo{{ID: "alpha", Addr: "alpha"}}, store.ClusterOptions{
		Replication:       2,
		RebalanceThrottle: -1,
		BackendFactory: func(id, _ string) store.NodeBackend {
			nodes[id] = store.NewNode(0)
			return nodes[id]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := core.SensorID{Hi: 9, Lo: 9}
	const total = 1_000_000
	rs := make([]core.Reading, 10_000)
	for base := 0; base < total; base += len(rs) {
		for i := range rs {
			rs[i] = core.Reading{Timestamp: int64(base + i), Value: float64(i)}
		}
		if err := c.InsertBatch(id, rs, 0); err != nil {
			t.Fatal(err)
		}
	}

	transient := transientHeap(func() {
		if err := c.SetMembers([]store.MemberInfo{{ID: "alpha", Addr: "alpha"}, {ID: "bravo", Addr: "bravo"}}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Minute)
		for storetest.Rebalancing(c) {
			if time.Now().After(deadline) {
				t.Fatal("rebalance did not converge")
			}
			time.Sleep(time.Millisecond)
		}
	})
	if got, err := nodes["bravo"].Query(id, 0, total); err != nil || len(got) != total {
		t.Fatalf("the new owner holds %d readings (%v), want %d", len(got), err, total)
	}
	if transient > 16<<20 {
		t.Fatalf("moving %d readings took %.1f MB of transient heap, want at most 16", total, float64(transient)/(1<<20))
	}
	t.Logf("transient heap of the move: %.1f MB", float64(transient)/(1<<20))
}

// transientHeap runs fn and returns how far the heap rose above what
// stays retained once fn is done: the peak of HeapAlloc, sampled every
// 100µs under a 10% GC target so garbage is collected promptly, minus
// HeapAlloc after a GC at the end.
func transientHeap(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	var peak uint64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	<-done
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return peak - min(peak, ms.HeapAlloc)
}
