package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"dcdb/internal/backoff"
	"dcdb/internal/core"
	"dcdb/internal/faults"
	"dcdb/internal/fsutil"
)

// One WAL per node: a write frame is one record and one fsync whatever
// its shard count, a new segment's directory entry is durable before
// anything in it is acknowledged, a run file whose directory fsync
// fails does not retire the WAL, a rotation's fsync stalls no writer,
// and an older build's per-shard segments are removed when empty and
// refused by name otherwise.

// diskLog is an fsutil.FS that records, in order, every file opened
// through it, every write and fsync of those files and every directory
// fsync: what the node asks of the disk, seen at the seam.
type diskLog struct {
	fsutil.FS
	mu  sync.Mutex
	ops []diskOp
}

type diskOp struct {
	kind string // "open", "write", "sync" or "syncdir"
	path string
	n    int // bytes of a write
}

func (l *diskLog) add(op diskOp) {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

// take returns the operations recorded since the last take.
func (l *diskLog) take() []diskOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := l.ops
	l.ops = nil
	return ops
}

func (l *diskLog) wrap(f fsutil.File, err error) (fsutil.File, error) {
	if err != nil {
		return nil, err
	}
	l.add(diskOp{kind: "open", path: f.Name()})
	return &loggedFile{File: f, log: l}, nil
}

func (l *diskLog) Create(name string) (fsutil.File, error) { return l.wrap(l.FS.Create(name)) }
func (l *diskLog) OpenFile(name string, flag int, perm os.FileMode) (fsutil.File, error) {
	return l.wrap(l.FS.OpenFile(name, flag, perm))
}
func (l *diskLog) CreateTemp(dir, pattern string) (fsutil.File, error) {
	return l.wrap(l.FS.CreateTemp(dir, pattern))
}
func (l *diskLog) SyncDir(dir string) error {
	l.add(diskOp{kind: "syncdir", path: dir})
	return l.FS.SyncDir(dir)
}

type loggedFile struct {
	fsutil.File
	log *diskLog
}

func (f *loggedFile) Write(p []byte) (int, error) {
	f.log.add(diskOp{kind: "write", path: f.Name(), n: len(p)})
	return f.File.Write(p)
}

func (f *loggedFile) Sync() error {
	f.log.add(diskOp{kind: "sync", path: f.Name()})
	return f.File.Sync()
}

// useDisk installs fs as fsutil.Disk for the rest of the test.
func useDisk(t *testing.T, fs fsutil.FS) {
	orig := fsutil.Disk
	fsutil.Disk = fs
	t.Cleanup(func() { fsutil.Disk = orig })
}

// oneSensorPerShard returns numShards sensors under hi, the i-th in
// shard i.
func oneSensorPerShard(hi uint64) []core.SensorID {
	ids := make([]core.SensorID, numShards)
	found := 0
	for lo := uint64(0); found < numShards; lo++ {
		id := sid(hi, lo)
		if i := shardIndex(id); ids[i] == (core.SensorID{}) {
			ids[i] = id
			found++
		}
	}
	return ids
}

// isWAL reports whether path names a WAL segment.
func isWAL(path string) bool {
	_, ok := segSeq(filepath.Base(path), "wal-")
	return ok
}

// TestWALOneRecordOneFsyncPerFrame: at sync-every, a write frame over
// 1, 3 or all 16 shards is one WAL record of 8+1+len(body) bytes — it
// reaches the segment file as one write — and costs one fsync, both
// counted through the fsutil.Disk seam, and dcdb_store_wal_appends_total
// grows by one. A repair batch, a stamp per reading, is one record
// holding one stamped run. A crash brings every entry back under its
// stamp.
func TestWALOneRecordOneFsyncPerFrame(t *testing.T) {
	disk := &diskLog{FS: fsutil.OSFS{}}
	useDisk(t, disk)
	dir := t.TempDir()
	n := openedNode(t, dir, 0, noCompact)
	ids := oneSensorPerShard(40)
	appends := func() float64 { return sampleValue(t, n.Metrics().Gather(), "dcdb_store_wal_appends_total") }
	walIO := func() (writes []int, fsyncs int) {
		for _, op := range disk.take() {
			switch {
			case !isWAL(op.path):
			case op.kind == "write":
				writes = append(writes, op.n)
			case op.kind == "sync":
				fsyncs++
			}
		}
		return writes, fsyncs
	}
	shardCounts := []int{1, 3, numShards}
	for _, k := range shardCounts {
		frame := make([]WriteEntry, k)
		for i := range frame {
			frame[i] = WriteEntry{ID: ids[i], Version: uint64(1000 * k), Readings: []core.Reading{rd(int64(k), float64(i))}}
		}
		disk.take()
		before := appends()
		if err := n.WriteFrame(frame); err != nil {
			t.Fatal(err)
		}
		want := walFrameHeader + 1 + len(AppendEntries(nil, frame))
		if writes, fsyncs := walIO(); len(writes) != 1 || writes[0] != want || fsyncs != 1 {
			t.Fatalf("a frame over %d shards: WAL writes %v and %d fsyncs, want one write of %d bytes and one fsync", k, writes, fsyncs, want)
		}
		if got := appends() - before; got != 1 {
			t.Fatalf("a frame over %d shards appended %v records, want 1", k, got)
		}
	}

	// A repair batch — one sensor, a stamp per reading — is one record
	// holding one stamped run: the run carries the stamps.
	repaired := ids[numShards-1]
	vrs := make([]VersionedReading, 200)
	for i := range vrs {
		vrs[i] = VersionedReading{Timestamp: int64(100 + i), Value: float64(i), Version: uint64(1000 * (i + 1)), Expire: int64(i%2) << 62}
	}
	if err := n.InsertVersioned(repaired, vrs); err != nil {
		t.Fatal(err)
	}
	if writes, fsyncs := walIO(); len(writes) != 1 || writes[0] != walFrameHeader+1+entryHeaderLen+32*len(vrs) || fsyncs != 1 {
		t.Fatalf("repair batch: WAL writes %v and %d fsyncs, want one write of one stamped run", writes, fsyncs)
	}
	n.crash()

	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	for i, id := range ids {
		got, err := queryVersioned(n2, id, 0, 99)
		if err != nil {
			t.Fatal(err)
		}
		var want []VersionedReading
		for _, k := range shardCounts {
			if i < k {
				want = append(want, VersionedReading{Timestamp: int64(k), Value: float64(i), Version: uint64(1000 * k)})
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("sensor of shard %d recovered %+v, want %+v", i, got, want)
		}
	}
	got, err := queryVersioned(n2, repaired, 100, 1<<60)
	if err != nil || fmt.Sprint(got) != fmt.Sprint(vrs) {
		t.Fatalf("repair batch recovered %d of %d readings (%v), or lost their stamps", len(got), len(vrs), err)
	}
}

// TestSpillWritesOneRunFilePerGeneration: a generation holding data of
// every shard spills as one run file. Seen at the disk seam, the spill
// creates one file, fsyncs it once and fsyncs its directory once; its
// one temp name is then the directory's one run file, so it was renamed
// once.
func TestSpillWritesOneRunFilePerGeneration(t *testing.T) {
	disk := &diskLog{FS: fsutil.OSFS{}}
	useDisk(t, disk)
	dir := t.TempDir()
	n := openedNode(t, dir, 0, noCompact)
	defer n.Close()
	frame := make([]WriteEntry, numShards)
	for i, id := range oneSensorPerShard(49) {
		frame[i] = WriteEntry{ID: id, Readings: []core.Reading{rd(1, float64(i))}}
	}
	if err := n.WriteFrame(frame); err != nil {
		t.Fatal(err)
	}
	disk.take()
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	n.sp.waitIdle()
	var creates []string
	fsyncs, dirFsyncs := 0, 0
	for _, op := range disk.take() {
		switch {
		case isWAL(op.path):
		case op.kind == "open":
			creates = append(creates, op.path)
		case op.kind == "sync":
			fsyncs++
		case op.kind == "syncdir":
			dirFsyncs++
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "run-*"))
	if len(creates) != 1 || fsyncs != 1 || dirFsyncs != 1 || len(files) != 1 || creates[0] != files[0]+".tmp" {
		t.Fatalf("a generation of %d shards created %v, fsynced files %d and directories %d times, and left %v; "+
			"want one temp file, one fsync of each and that file renamed into place", numShards, creates, fsyncs, dirFsyncs, files)
	}
}

// TestWALSegmentDirSyncedBeforeFirstAck: a new WAL segment's directory
// entry is fsynced after the segment is created and before the first
// fsync that acknowledges a write in it — for the segment Open creates
// and for the one a flush rotates to.
func TestWALSegmentDirSyncedBeforeFirstAck(t *testing.T) {
	disk := &diskLog{FS: fsutil.OSFS{}}
	useDisk(t, disk)
	dir := t.TempDir()
	n := openedNode(t, dir, 0, noCompact)
	defer n.Close()
	for gen := 0; gen < 2; gen++ {
		if err := n.InsertBatch(sid(41, 1), []core.Reading{rd(int64(gen), 1)}, 0); err != nil {
			t.Fatal(err)
		}
		ops := disk.take()
		opened, dirSynced, synced := -1, -1, -1
		for k, op := range ops {
			switch {
			case op.kind == "open" && isWAL(op.path) && opened < 0:
				opened = k
			case op.kind == "syncdir" && op.path == dir && opened >= 0 && dirSynced < 0:
				dirSynced = k
			case op.kind == "sync" && opened >= 0 && op.path == ops[opened].path && synced < 0:
				synced = k
			}
		}
		if opened < 0 || synced < 0 || dirSynced < 0 || dirSynced > synced {
			t.Fatalf("segment %d: created at op %d, directory fsynced at op %d, first fsync at op %d (%+v); "+
				"want the directory fsync between the create and the first fsync", gen, opened, dirSynced, synced, ops)
		}
		if err := n.Flush(); err != nil { // rotates to the next segment
			t.Fatal(err)
		}
	}
}

// TestDirSyncFailureKeepsWAL: a spill whose run-file directory fsync
// fails keeps the WAL segment its run file covers, so a reopen after a
// crash serves every acknowledged reading; and a compaction whose
// directory fsync fails keeps its input files.
func TestDirSyncFailureKeepsWAL(t *testing.T) {
	inj := faults.New(1)
	useDisk(t, inj.FS(fsutil.OSFS{}))
	dir := t.TempDir()
	n := openedNode(t, dir, 0, noCompact)
	id := sid(43, 1)
	for ts := int64(0); ts < 10; ts++ {
		if err := n.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0); err != nil {
			t.Fatal(err)
		}
	}
	seg, _ := newestWAL(t, dir, id)
	// The run files' directory is the WAL's too: the rule goes in once
	// the segment's directory entry is durable, and the flush's new
	// segment takes no write before the crash.
	fail := inj.AddRule(&faults.Rule{Ops: faults.FSSyncDir, Match: dir, Err: faults.ErrInjected})
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); fail.Fired() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the spill never fsynced the run file's directory through the seam")
		}
	}
	time.Sleep(20 * time.Millisecond) // let the failed spill settle; its retry waits 500 ms
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("the WAL segment went although its run file's directory fsync failed: %v", err)
	}
	n.crash()
	fail.Disable()

	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	if rs, err := n2.Query(id, 0, 100); err != nil || len(rs) != 10 {
		t.Fatalf("after the crash: %d of 10 acknowledged readings (%v)", len(rs), err)
	}

	// Run files — the failed spill's, renamed into place before its
	// directory fsync, and two more — and a full compaction whose
	// directory fsync fails.
	if err := n2.Flush(); err != nil {
		t.Fatal(err)
	}
	n2.sp.waitIdle()
	if err := n2.InsertBatch(id, []core.Reading{rd(10, 10)}, 0); err != nil {
		t.Fatal(err)
	}
	if err := n2.Flush(); err != nil {
		t.Fatal(err)
	}
	n2.sp.waitIdle()
	runFiles := func() []string {
		names, _ := filepath.Glob(filepath.Join(dir, "run-*.sst"))
		return names
	}
	inputs := runFiles()
	if len(inputs) < 2 {
		t.Fatalf("%d run files before the compaction, want several: %v", len(inputs), inputs)
	}
	fail.Enable()
	n2.Compact()
	if got := runFiles(); fmt.Sprint(got) != fmt.Sprint(inputs) {
		t.Fatalf("a compaction whose directory fsync failed left %v, want its inputs %v", got, inputs)
	}
	fail.Disable()
	n2.Compact()
	if got := runFiles(); len(got) != 1 {
		t.Fatalf("the compaction retried left %v, want one merged file", got)
	}
	if rs, err := n2.Query(id, 0, 100); err != nil || len(rs) != 11 {
		t.Fatalf("after the compactions: %d of 11 readings (%v)", len(rs), err)
	}
}

// TestRotationDoesNotStallWrites: the fsync of a retired WAL segment
// runs off every shard lock and off the writer whose write rotated it.
// With that fsync held for a second, a write to every shard completes
// during the second, at a 1 s sync interval.
func TestRotationDoesNotStallWrites(t *testing.T) {
	inj := faults.New(1)
	useDisk(t, inj.FS(fsutil.OSFS{}))
	dir := t.TempDir()
	n := openedNode(t, dir, 2*numShards, DiskOptions{SyncInterval: time.Second})
	defer n.Close()
	ids := oneSensorPerShard(45)
	slow := inj.AddRule(&faults.Rule{Ops: faults.FSSync, Match: "wal-0000000000000000.log", Delay: time.Second})

	// Two writes fill the flush budget: the second flushes the node and
	// retires the first segment, whose fsync now takes a second.
	rotated := make(chan error, 1)
	go func() {
		rs := make([]core.Reading, 2*numShards-1)
		for k := range rs {
			rs[k] = rd(int64(-k), 1)
		}
		err := n.InsertBatch(ids[0], rs, 0)
		if err == nil {
			err = n.InsertBatch(ids[0], []core.Reading{rd(2, 2)}, 0)
		}
		rotated <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); slow.Hits() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the retired segment was never fsynced")
		}
	}
	start := time.Now()
	for i, id := range ids {
		if err := n.InsertBatch(id, []core.Reading{rd(3, 3)}, 0); err != nil {
			t.Fatal(err)
		}
		if waited := time.Since(start); waited > 500*time.Millisecond {
			t.Fatalf("a write to shard %d completed %v into the retired segment's one-second fsync", i, waited)
		}
	}
	if err := <-rotated; err != nil {
		t.Fatal(err)
	}
}

// TestSyncDuringBackpressuredRotation: in batched mode, with the spiller
// busy and its queue full, a flush waits for room before it rotates, so
// Sync still reaches the segment holding the newest write, and the write
// survives a crash. A rotation that left n.wal before its segment was
// queued would hide that segment from Sync, its records still buffered.
func TestSyncDuringBackpressuredRotation(t *testing.T) {
	inj := faults.New(1)
	useDisk(t, inj.FS(fsutil.OSFS{}))
	dir := t.TempDir()
	n := openedNode(t, dir, 0, DiskOptions{SyncInterval: time.Hour})
	id := sid(47, 1)
	slow := inj.AddRule(&faults.Rule{Ops: faults.FSSync, Match: filepath.Join(dir, "run-"), Delay: time.Second})
	insert := func(ts int64) {
		t.Helper()
		if err := n.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Generation 0's run file takes a second to fsync, which keeps the
	// spiller busy; generation 1 then fills the queue.
	insert(0)
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); slow.Hits() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the spiller never fsynced generation 0's run file")
		}
	}
	insert(1)
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	insert(2)
	flushed := make(chan error, 1)
	go func() { flushed <- n.Flush() }()
	time.Sleep(50 * time.Millisecond) // the flush reaches the full queue
	if err := n.Sync(); err != nil {
		t.Fatal(err)
	}
	n.crash()
	<-flushed // the crash closed the spiller; whatever the flush reports
	slow.Disable()

	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	if rs, err := n2.Query(id, 0, 100); err != nil || len(rs) != 3 {
		t.Fatalf("after Sync and a crash: %d of 3 readings (%v)", len(rs), err)
	}
}

// TestSpillDuringFullCompact: a spill that completes while a full
// Compact is merging appends its file beside the merge and returns
// without waiting for it, so a slow merge parks neither the spiller nor
// the flushes queued behind it. The merge swaps in only the files it
// read; the skipped size-tiered window is taken by the next spill.
func TestSpillDuringFullCompact(t *testing.T) {
	inj := faults.New(1)
	useDisk(t, inj.FS(fsutil.OSFS{}))
	dir := t.TempDir()
	n := openedNode(t, dir, 0, DiskOptions{SyncInterval: -1, MaxRuns: 2})
	defer n.Close()
	id := sid(48, 1)
	insertFlush := func(ts int64) {
		t.Helper()
		if err := n.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0); err != nil {
			t.Fatal(err)
		}
		if err := n.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	files := func() []runFileMeta {
		n.filesMu.Lock()
		defer n.filesMu.Unlock()
		return slices.Clone(n.files)
	}

	insertFlush(0)
	insertFlush(1) // two files, within MaxRuns: no merge
	n.sp.waitIdle()
	fs := files()
	if len(fs) != 2 {
		t.Fatalf("%d run files before Compact, want 2", len(fs))
	}
	// The full merge's output takes seconds to fsync.
	const delay = 3 * time.Second
	merged := filepath.Join(dir, runFileName(fs[0].minSeq, fs[1].maxSeq))
	slow := inj.AddRule(&faults.Rule{Ops: faults.FSSync, Match: merged, Delay: delay})
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		n.Compact()
	}()
	for deadline := time.Now().Add(5 * time.Second); slow.Hits() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("Compact never fsynced its merged file")
		}
	}

	// A third file goes over MaxRuns; its spill must not wait for the
	// merge.
	start := time.Now()
	insertFlush(2)
	n.sp.waitIdle()
	select {
	case <-compacted:
		t.Fatalf("the spill waited %v, until the full merge was done", time.Since(start))
	default:
	}
	<-compacted
	if fs := files(); len(fs) != 2 || fs[0].path != merged || fs[1].minSeq <= fs[0].maxSeq {
		t.Fatalf("after Compact: %d files %v, want the merged file and the spill's", len(fs), fs)
	}
	insertFlush(3) // three files again: this spill merges
	n.sp.waitIdle()
	if fs := files(); len(fs) > 2 {
		t.Fatalf("%d run files after the next spill, want at most MaxRuns (2)", len(fs))
	}
	if rs, err := n.Query(id, 0, 100); err != nil || len(rs) != 4 {
		t.Fatalf("%d of 4 readings (%v)", len(rs), err)
	}
}

// TestSpillFailureWriteStallBound: while every spill fails, a write that
// crosses the flush budget with the spill queue full waits until the
// generation at the queue's head has used up its attempts. That is the
// longest a write blocks on a failing disk: the sum of the retry delays
// at their unjittered maximum (7.5 s with the shipped policy), plus the
// failed attempts' own I/O. The write is then acknowledged, and no
// acknowledged reading is lost.
func TestSpillFailureWriteStallBound(t *testing.T) {
	orig := spillRetryPolicy
	spillRetryPolicy = backoff.Policy{Initial: 20 * time.Millisecond, Max: 80 * time.Millisecond, Multiplier: 2, Jitter: 0.25}
	t.Cleanup(func() { spillRetryPolicy = orig })
	noJitter := spillRetryPolicy
	noJitter.Jitter = 0
	var bound time.Duration
	for attempt := 1; attempt < spillMaxAttempts; attempt++ {
		bound += noJitter.Delay(attempt)
	}
	const attemptsIO = 500 * time.Millisecond

	inj := faults.New(1)
	useDisk(t, inj.FS(fsutil.OSFS{}))
	dir := t.TempDir()
	fail := inj.AddRule(&faults.Rule{Ops: faults.FSSync, Match: filepath.Join(dir, "run-"), Err: faults.ErrInjected})
	// Every write fills the flush budget and flushes the node.
	n := openedNode(t, dir, numShards, DiskOptions{SyncInterval: time.Hour})
	id := sid(48, 1)
	var stall time.Duration
	for g := int64(0); g < 3; g++ {
		// Generation 0 heads the queue and fails; generation 1 fills
		// the queue; generation 2's flush waits for room.
		rs := make([]core.Reading, numShards)
		for k := range rs {
			rs[k] = rd(g*numShards+int64(k), 1)
		}
		start := time.Now()
		if err := n.InsertBatch(id, rs, 0); err != nil {
			t.Fatal(err)
		}
		stall = time.Since(start)
	}
	if fail.Fired() == 0 {
		t.Fatal("no run-file fsync failed")
	}
	if stall < spillRetryPolicy.Initial/2 || stall > bound+attemptsIO {
		t.Fatalf("the write behind a full queue of failing spills took %v, want between %v and %v", stall, spillRetryPolicy.Initial/2, bound+attemptsIO)
	}
	if rs, err := n.Query(id, 0, 100); err != nil || len(rs) != 3*numShards {
		t.Fatalf("while spills fail: %d of %d readings (%v)", len(rs), 3*numShards, err)
	}
	fail.Disable()
	if err := n.Close(); err == nil {
		t.Fatal("Close reported no spill failure")
	}
	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	if rs, err := n2.Query(id, 0, 100); err != nil || len(rs) != 3*numShards {
		t.Fatalf("after the reopen: %d of %d readings (%v)", len(rs), 3*numShards, err)
	}
}

// TestWALReplaceBrokenSegment: a segment whose fsync failed is replaced
// by the next write, which is logged and acknowledged in its successor;
// a reopen after a crash serves every acknowledged write.
func TestWALReplaceBrokenSegment(t *testing.T) {
	inj := faults.New(1)
	useDisk(t, inj.FS(fsutil.OSFS{}))
	dir := t.TempDir()
	n := openedNode(t, dir, 0, noCompact)
	ids := oneSensorPerShard(47)
	if err := n.InsertBatch(ids[0], []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	fail := inj.AddRule(&faults.Rule{Ops: faults.FSSync, Match: "wal-", Err: syscall.EIO, Count: 1})
	if err := n.InsertBatch(ids[1], []core.Reading{rd(1, 1)}, 0); !errors.Is(err, syscall.EIO) {
		t.Fatalf("a write whose fsync failed returned %v", err)
	}
	if fail.Fired() != 1 {
		t.Fatalf("the fsync fault fired %d times", fail.Fired())
	}
	for _, id := range ids[2:5] {
		if err := n.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
			t.Fatalf("a write after the broken segment: %v", err)
		}
	}
	n.crash()
	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	for i, id := range ids[:5] {
		if rs, err := n2.Query(id, 0, 10); err != nil || (i != 1 && len(rs) != 1) {
			t.Fatalf("sensor of shard %d after the crash: %v (%v)", i, rs, err)
		}
	}
}
