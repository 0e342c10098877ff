package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcdb/internal/core"
)

// remoteNode stands in for an rpc.Client inside this package: a
// RemoteWriter that is its own Self, so its queue hands it whole
// frames. It records every entry of every frame it is handed
// and fails whole frames on demand (a frame fails as one: that is what
// a dead connection does).
type remoteNode struct {
	*Node
	addr    string
	failing atomic.Bool

	mu       sync.Mutex
	frames   int
	largest  int
	refused  int            // entries of failed frames
	handed   map[uint64]int // write version -> times it arrived
	inFlight int            // frames being applied now
	overlap  bool           // two frames were ever in flight at once
}

func (r *remoteNode) Addr() string { return r.addr }

func (r *remoteNode) Self() NodeBackend { return r }

func (r *remoteNode) WriteFrame(entries []WriteEntry) error {
	fail := r.failing.Load()
	r.mu.Lock()
	r.frames++
	r.largest = max(r.largest, len(entries))
	if r.inFlight++; r.inFlight > 1 {
		r.overlap = true
	}
	for _, e := range entries {
		r.handed[e.Version]++
	}
	if fail {
		r.refused += len(entries)
	}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.inFlight--
		r.mu.Unlock()
	}()
	if fail {
		return errors.New("injected: frame lost")
	}
	time.Sleep(50 * time.Microsecond) // a round trip, so that entries queue behind it
	return r.Node.WriteFrame(entries)
}

func remoteCluster(t *testing.T, n int, o ClusterOptions) (*Cluster, []*remoteNode) {
	t.Helper()
	remotes := make([]*remoteNode, n)
	backends := make([]NodeBackend, n)
	for i := range remotes {
		remotes[i] = &remoteNode{Node: NewNode(0), addr: fmt.Sprintf("remote%d:1", i), handed: make(map[uint64]int)}
		backends[i] = remotes[i]
	}
	c, err := NewClusterOptions(backends, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.top().members {
		if _, whole := m.queue.fw.(*remoteNode); !whole {
			t.Fatalf("member %s is not handed whole frames", m.id)
		}
	}
	return c, remotes
}

// tappedRemote decorates a remote the way a fault injector or tracer
// would: it embeds it — inheriting WriteFrame and Self — and overrides
// InsertVersioned.
type tappedRemote struct {
	*remoteNode
	seen atomic.Int64
}

func (d *tappedRemote) InsertVersioned(id core.SensorID, vrs []VersionedReading) error {
	d.seen.Add(int64(len(vrs)))
	return d.remoteNode.InsertVersioned(id, vrs)
}

// TestDecoratedRemoteKeepsItsDecoration: a backend that embeds a
// RemoteWriter is not that writer. It is queued like every member, and
// its queue hands every write to the InsertVersioned it overrides,
// never to the WriteFrame it inherited.
func TestDecoratedRemoteKeepsItsDecoration(t *testing.T) {
	inner := &remoteNode{Node: NewNode(0), addr: "remote0:1", handed: make(map[uint64]int)}
	tap := &tappedRemote{remoteNode: inner}
	c, err := NewClusterOptions([]NodeBackend{tap}, ClusterOptions{Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if m := c.top().members[0]; m.queue == nil {
		t.Fatalf("decorated member %s is not written through a queue", m.id)
	}
	const writes = 10
	for i := 0; i < writes; i++ {
		if err := c.InsertBatch(sid(41, uint64(i)), []core.Reading{rd(int64(i+1), 1)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := tap.seen.Load(); got != writes {
		t.Fatalf("the decoration saw %d of %d writes", got, writes)
	}
	if inner.frames != 0 {
		t.Fatalf("%d frames bypassed the decoration", inner.frames)
	}
}

// TestCombinerProperty drives the per-member write queues from many
// writers while one member fails and recovers, and checks what the
// combiner promises: every acknowledged write is readable at QUORUM,
// every entry a member missed is hinted exactly once, no entry reaches
// a member in two frames, a member has one frame in flight at a time,
// and entries do coalesce.
func TestCombinerProperty(t *testing.T) {
	c, remotes := remoteCluster(t, 3, ClusterOptions{
		Replication:        3,
		WriteConsistency:   ConsistencyQuorum,
		ReadConsistency:    ConsistencyQuorum,
		HintDir:            t.TempDir(),
		HintReplayInterval: -1,
	})
	defer c.Close()

	const writers, perWriter = 8, 150
	var begun atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := sid(31, uint64(w))
			for i := 1; i <= perWriter; i++ {
				switch begun.Add(1) {
				case writers * perWriter / 3:
					remotes[1].failing.Store(true)
				case 2 * writers * perWriter / 3:
					remotes[1].failing.Store(false)
				}
				// Quorum is two of three: one failing member never fails
				// a write.
				if err := c.InsertBatch(id, []core.Reading{rd(int64(i), float64(w*1000+i))}, 0); err != nil {
					t.Errorf("writer %d reading %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	for w := 0; w < writers; w++ {
		rs, err := c.Query(sid(31, uint64(w)), 0, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != perWriter {
			t.Fatalf("writer %d: %d of %d acknowledged readings readable at QUORUM", w, len(rs), perWriter)
		}
		for i, r := range rs {
			if r.Timestamp != int64(i+1) || r.Value != float64(w*1000+i+1) {
				t.Fatalf("writer %d reading %d: got %+v", w, i, r)
			}
		}
	}
	queued, _, _ := c.HintStats()
	coalesced := false
	for i, r := range remotes {
		r.mu.Lock()
		if len(r.handed) != writers*perWriter {
			t.Errorf("member %d was handed %d distinct entries, want %d", i, len(r.handed), writers*perWriter)
		}
		for ver, n := range r.handed {
			if n != 1 {
				t.Errorf("member %d: entry %d travelled in %d frames", i, ver, n)
			}
		}
		if r.overlap {
			t.Errorf("member %d had two frames in flight at once", i)
		}
		if i != 1 && r.refused != 0 {
			t.Errorf("member %d refused %d entries", i, r.refused)
		}
		coalesced = coalesced || r.largest > 1
		r.mu.Unlock()
	}
	if refused := int64(remotes[1].refused); refused == 0 || queued != refused {
		t.Errorf("member 1 missed %d entries, %d hints queued: every missed replica is hinted exactly once", refused, queued)
	}
	if !coalesced {
		t.Errorf("%d concurrent writers never shared a frame", writers)
	}
	// The hints bring the failed member level.
	if err := c.ReplayHints(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		rs, err := remotes[1].Query(sid(31, uint64(w)), 0, 1<<60)
		if err != nil || len(rs) != perWriter {
			t.Fatalf("member 1 holds %d of %d readings of writer %d after replay (%v)", len(rs), perWriter, w, err)
		}
	}
}

// TestCombinerCloseDrains: a write that was begun is delivered even if
// nobody has waited for it when the cluster closes — Close returns only
// once every queue is empty and every flusher has exited.
func TestCombinerCloseDrains(t *testing.T) {
	c, remotes := remoteCluster(t, 2, ClusterOptions{Replication: 2, WriteConsistency: ConsistencyQuorum})
	const n = 200
	waits := make([]func() error, n)
	for i := range waits {
		waits[i] = c.BeginInsert(sid(32, uint64(i%7)), []core.Reading{rd(int64(i), float64(i))}, 0)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i, r := range remotes {
		r.mu.Lock()
		if len(r.handed) != n || r.inFlight != 0 {
			t.Errorf("member %d: %d of %d begun entries delivered, %d frames in flight when Close returned", i, len(r.handed), n, r.inFlight)
		}
		if r.frames >= n {
			t.Errorf("member %d: %d frames for %d entries begun back to back — nothing coalesced", i, r.frames, n)
		}
		r.mu.Unlock()
	}
	for i, wait := range waits {
		if err := wait(); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

// TestBeginInsertOrdersSameTimestamp: two writes of one timestamp begun
// in order resolve to the later one whichever replica applies them in
// whatever order — the stamp is taken in BeginInsert, not when the
// frame lands.
func TestBeginInsertOrdersSameTimestamp(t *testing.T) {
	c, _ := remoteCluster(t, 2, ClusterOptions{Replication: 2, WriteConsistency: ConsistencyQuorum})
	defer c.Close()
	id := sid(33, 1)
	for round := 0; round < 50; round++ {
		ts := int64(round + 1)
		first := c.BeginInsert(id, []core.Reading{rd(ts, 1)}, 0)
		second := c.BeginInsert(id, []core.Reading{rd(ts, 2)}, 0)
		if err := second(); err != nil {
			t.Fatal(err)
		}
		if err := first(); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := c.Query(id, 0, 1<<60)
	if err != nil || len(rs) != 50 {
		t.Fatalf("%d readings, %v", len(rs), err)
	}
	for _, r := range rs {
		if r.Value != 2 {
			t.Fatalf("timestamp %d resolved to the earlier write", r.Timestamp)
		}
	}
}

// TestNextVersionTicksInMicroseconds: versions are whole microseconds
// (counted in nanoseconds), strictly increasing under contention, keep
// up with the clock, and stay above any nanosecond-grained version a
// pre-tick build issued a tick earlier.
func TestNextVersionTicksInMicroseconds(t *testing.T) {
	c, _ := threeNodeCluster(t, 1, ClusterOptions{})
	defer c.Close()

	// At rest: never more than a tick behind the clock, never ahead of it.
	for i := 0; i < 100; i++ {
		before := uint64(time.Now().UnixNano())
		v := c.nextVersion()
		after := uint64(time.Now().UnixNano())
		if v+versionTick <= before || v > after {
			t.Fatalf("version %d issued between clock readings %d and %d", v, before, after)
		}
		// A version an earlier build stamped with the raw nanosecond clock
		// a tick ago still orders below.
		if old := before - versionTick; v <= old {
			t.Fatalf("version %d does not exceed the nanosecond version %d issued a tick earlier", v, old)
		}
		time.Sleep(2 * time.Microsecond)
	}

	// 10^6 concurrent calls: every one a multiple of the tick, each
	// caller's sequence strictly increasing, no value issued twice.
	const callers, each = 8, 125_000
	seqs := make([][]uint64, callers)
	var wg sync.WaitGroup
	for g := range seqs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vs := make([]uint64, each)
			for i := range vs {
				vs[i] = c.nextVersion()
			}
			seqs[g] = vs
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]struct{}, callers*each)
	for g, vs := range seqs {
		for i, v := range vs {
			if v%versionTick != 0 {
				t.Fatalf("version %d is not a whole microsecond", v)
			}
			if i > 0 && v <= vs[i-1] {
				t.Fatalf("caller %d: version %d after %d", g, v, vs[i-1])
			}
			if _, dup := seen[v]; dup {
				t.Fatalf("version %d issued twice", v)
			}
			seen[v] = struct{}{}
		}
	}
	// Issuing faster than one per microsecond runs the versions ahead of
	// the clock by a tick per call; once the clock has caught up they
	// follow it again.
	if ahead := int64(c.nextVersion()) - time.Now().UnixNano(); ahead > 0 {
		time.Sleep(time.Duration(ahead))
	}
	time.Sleep(2 * versionTick)
	if v, now := c.nextVersion(), uint64(time.Now().UnixNano()); v > now {
		t.Fatalf("version %d still ahead of the clock (%d) after the burst drained", v, now)
	}
}

// tappedNode decorates an in-process node the way a fault injector or
// tracer would: it embeds it — inheriting WriteFrame — and overrides
// InsertVersioned.
type tappedNode struct {
	*Node
	seen atomic.Int64 // readings
}

func (d *tappedNode) InsertVersioned(id core.SensorID, vrs []VersionedReading) error {
	d.seen.Add(int64(len(vrs)))
	return d.Node.InsertVersioned(id, vrs)
}

// TestInProcessMembersWriteThroughQueues: in-process members — plain
// nodes, and decorators that embed one — are written through their
// write queues like remote ones. Concurrent writers' entries coalesce
// into frames, every acknowledged write reads back, and a decorated
// member's InsertVersioned sees every write it stores.
func TestInProcessMembersWriteThroughQueues(t *testing.T) {
	for _, decorated := range []bool{false, true} {
		name := "nodes"
		if decorated {
			name = "decorated"
		}
		t.Run(name, func(t *testing.T) {
			taps := make([]*tappedNode, 3)
			backends := make([]NodeBackend, len(taps))
			for i := range taps {
				taps[i] = &tappedNode{Node: NewNode(0)}
				backends[i] = taps[i].Node
				if decorated {
					backends[i] = taps[i]
				}
			}
			c, err := NewClusterOptions(backends, ClusterOptions{Replication: 2, WriteConsistency: ConsistencyQuorum})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			const writers, perWriter = 8, 200
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 1; i <= perWriter; i++ {
						if err := c.InsertBatch(sid(51, uint64(w)), []core.Reading{rd(int64(i), float64(w*1000+i))}, 0); err != nil {
							t.Errorf("writer %d reading %d: %v", w, i, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()

			samples := c.Metrics().Gather()
			frames := sampleValue(t, samples, "dcdb_cluster_write_frames_total")
			entries := sampleValue(t, samples, "dcdb_cluster_write_frame_entries_total")
			if frames == 0 || entries != 2*writers*perWriter {
				t.Fatalf("%v frames carried %v entries, want %d entries, every replica queued", frames, entries, 2*writers*perWriter)
			}
			if entries <= frames {
				t.Errorf("%d concurrent writers never shared a frame: %v entries in %v frames", writers, entries, frames)
			}
			for w := 0; w < writers; w++ {
				rs, err := c.Query(sid(51, uint64(w)), 0, 1<<60)
				if err != nil || len(rs) != perWriter {
					t.Fatalf("writer %d: %d of %d acknowledged readings read back (%v)", w, len(rs), perWriter, err)
				}
				for i, r := range rs {
					if r.Timestamp != int64(i+1) || r.Value != float64(w*1000+i+1) {
						t.Fatalf("writer %d reading %d: got %+v", w, i, r)
					}
				}
			}
			if !decorated {
				return
			}
			for i, tap := range taps {
				stored, _, _ := tap.Node.Stats()
				if seen := tap.seen.Load(); seen != stored {
					t.Errorf("member %d stored %d readings, its decoration saw %d", i, stored, seen)
				}
			}
		})
	}
}
