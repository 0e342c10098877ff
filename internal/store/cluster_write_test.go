package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcdb/internal/core"
)

// remoteNode stands in for an rpc.Client inside this package: a
// RemoteWriter, so the cluster writes it through a queue. It records every entry of every frame it is handed
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

func (r *remoteNode) WriteFrame(entries []WriteEntry) []error {
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
		errs := make([]error, len(entries))
		for k := range errs {
			errs[k] = errors.New("injected: frame lost")
		}
		return errs
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
		if m.queue == nil {
			t.Fatalf("member %s is not written through a queue", m.id)
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
// RemoteWriter is not that writer. It gets no queue, and every write
// goes through the InsertVersioned it overrides, never through the
// WriteFrame it inherited.
func TestDecoratedRemoteKeepsItsDecoration(t *testing.T) {
	inner := &remoteNode{Node: NewNode(0), addr: "remote0:1", handed: make(map[uint64]int)}
	tap := &tappedRemote{remoteNode: inner}
	c, err := NewClusterOptions([]NodeBackend{tap}, ClusterOptions{Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if m := c.top().members[0]; m.queue != nil {
		t.Fatalf("decorated member %s is written through a queue", m.id)
	}
	const writes = 10
	for i := 0; i < writes; i++ {
		if err := c.Insert(sid(41, uint64(i)), rd(int64(i+1), 1), 0); err != nil {
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
				if err := c.Insert(id, rd(int64(i), float64(w*1000+i)), 0); err != nil {
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

// sinkLog wraps a WAL sink and records the size of every Write that
// reaches the file; armed, it fails them.
type sinkLog struct {
	walSink
	mu     sync.Mutex
	writes []int
	fail   bool
}

func (s *sinkLog) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return 0, errors.New("injected WAL failure")
	}
	s.writes = append(s.writes, len(p))
	return s.walSink.Write(p)
}

// TestWriteFrameOneAppendPerShard: a frame's entries for one shard are
// logged as one buffer — larger than the WAL's write buffer it reaches
// the file as a single write, where a record at a time would arrive in
// pieces — recover from that buffer record by record with their
// stamps, and a shard whose log fails refuses its own entries only.
func TestWriteFrameOneAppendPerShard(t *testing.T) {
	realOpen := openWALSink
	defer func() { openWALSink = realOpen }()
	var mu sync.Mutex
	sinks := make(map[string]*sinkLog) // by shard directory
	openWALSink = func(path string) (walSink, error) {
		f, err := realOpen(path)
		if err != nil {
			return nil, err
		}
		s := &sinkLog{walSink: f}
		mu.Lock()
		sinks[filepath.Base(filepath.Dir(path))] = s
		mu.Unlock()
		return s, nil
	}
	dir := t.TempDir()
	n := openedNode(t, dir, 0, DiskOptions{SyncInterval: time.Hour, CompactInterval: -1})

	// Two shards, two sensors in each; in frame order no sensor follows
	// itself, so no two entries fold into a stamped run.
	a, b := sid(40, 1), sid(40, 2)
	for shardIndex(b) == shardIndex(a) {
		b.Lo++
	}
	twin := func(id core.SensorID) core.SensorID {
		t := id
		for t.Lo++; shardIndex(t) != shardIndex(id); t.Lo++ {
		}
		return t
	}
	a2, b2 := twin(a), twin(b)
	const perShard = 100 // one record of 100 entries of 36+16 bytes: more than bufio's 4096
	var frame []WriteEntry
	for i := 1; i <= perShard/2; i++ {
		for _, id := range []core.SensorID{a, b, a2, b2} {
			frame = append(frame, WriteEntry{ID: id, Version: uint64(1000 * i), Expire: 0, Readings: []core.Reading{rd(int64(i), float64(i))}})
		}
	}
	if errs := n.WriteFrame(frame); errs != nil {
		t.Fatal(errs)
	}
	if err := n.Sync(); err != nil {
		t.Fatal(err)
	}
	sinkOf := func(id core.SensorID) *sinkLog { return sinks[fmt.Sprintf("shard-%02d", shardIndex(id))] }
	lastWrite := func(id core.SensorID, want int, what string) {
		t.Helper()
		s := sinkOf(id)
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.writes) != 1 || s.writes[0] != want {
			t.Errorf("%s: shard %d file writes %v, want one of %d bytes", what, shardIndex(id), s.writes, want)
		}
		s.writes = nil
	}
	lastWrite(a, walFrameHeader+1+perShard*(entryHeaderLen+16), "frame")
	lastWrite(b, walFrameHeader+1+perShard*(entryHeaderLen+16), "frame")

	// A repair batch — one sensor, a stamp per reading — is one record
	// holding one stamped run: the run carries the stamps.
	c := twin(a2)
	const repaired = 200
	vrs := make([]VersionedReading, repaired)
	for i := range vrs {
		vrs[i] = VersionedReading{Timestamp: int64(i + 1), Value: float64(i), Version: uint64(1000 * (i + 1)), Expire: int64(i%2) << 62}
	}
	if err := n.InsertVersioned(c, vrs); err != nil {
		t.Fatal(err)
	}
	if err := n.Sync(); err != nil {
		t.Fatal(err)
	}
	lastWrite(c, walFrameHeader+1+entryHeaderLen+32*repaired, "repair batch")

	// Shard b's log dies: its entries are refused, a's are applied.
	sinkOf(b).mu.Lock()
	sinkOf(b).fail = true
	sinkOf(b).mu.Unlock()
	errs := n.WriteFrame(frame)
	if len(errs) != len(frame) {
		t.Fatalf("a frame with a failing shard answered %v", errs)
	}
	for k, e := range frame {
		if (errs[k] != nil) != (shardIndex(e.ID) == shardIndex(b)) {
			t.Fatalf("entry %d of sensor %v: error %v", k, e.ID, errs[k])
		}
	}
	n.crash()

	openWALSink = realOpen
	n2 := openedNode(t, dir, 0, DiskOptions{SyncInterval: time.Hour, CompactInterval: -1})
	defer n2.Close()
	for _, id := range []core.SensorID{a, b, a2, b2} {
		vrs, err := queryVersioned(n2, id, 0, 1<<60)
		if err != nil || len(vrs) != perShard/2 {
			t.Fatalf("sensor %v: recovered %d of %d readings (%v)", id, len(vrs), perShard/2, err)
		}
		for i, v := range vrs {
			if v.Timestamp != int64(i+1) || v.Version != uint64(1000*(i+1)) {
				t.Fatalf("sensor %v reading %d recovered as %+v", id, i, v)
			}
		}
	}
	got, err := queryVersioned(n2, c, 0, 1<<60)
	if err != nil || len(got) != repaired {
		t.Fatalf("repair batch: recovered %d of %d readings (%v)", len(got), repaired, err)
	}
	for i, v := range got {
		if v != vrs[i] {
			t.Fatalf("repair batch reading %d recovered as %+v, want %+v", i, v, vrs[i])
		}
	}
}
