package store

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"dcdb/internal/core"
)

// Crash-recovery suite for the durable engine: a node is killed at
// randomized WAL/flush boundaries (hard stop without flushing, torn
// tails truncated at arbitrary bytes, fault-injected WAL writers) and
// reopened; every write acknowledged while the WAL was synced must be
// served again, no torn record may ever be served, and ingest must
// resume.

// crash simulates a hard process kill: background goroutines stop,
// pending spill jobs are dropped (their WAL segments survive on disk),
// and WAL files close without flushing buffered records — exactly what
// power loss leaves behind.
func (n *Node) crash() {
	if !n.durable() || n.closed.Swap(true) {
		return
	}
	close(n.stopBG)
	n.bgWG.Wait()
	ws := n.sp.abort()
	n.lockShards(allShards)
	ws = append(ws, n.wal.Swap(nil))
	n.unlockShards(allShards)
	for _, w := range ws {
		if w != nil {
			w.mu.Lock()
			w.sink.Close() // no flush: buffered-but-unsynced bytes die here
			w.mu.Unlock()
		}
	}
	// A killed process loses its descriptors too; without this, long
	// crash-loop tests would exhaust fds on cold nodes.
	n.releaseRunFiles()
}

// abort stops the spiller without draining pending jobs (crash
// simulation: an un-spilled flush exists only in its WAL segments) and
// returns the retired segments the dropped jobs had yet to close.
func (s *spiller) abort() []*wal {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	close(s.stop)
	var ws []*wal
	for len(s.queue) > 1 { // the head is running: it finishes
		ws = append(ws, s.queue[len(s.queue)-1].retired)
		s.queue = s.queue[:len(s.queue)-1]
	}
	s.cond.Broadcast()
	for len(s.queue) > 0 {
		s.cond.Wait()
	}
	return ws
}

// noCompact keeps recovery scenarios deterministic: durability must
// never depend on the background compactor having run.
var noCompact = DiskOptions{SyncInterval: 0}

func openedNode(t *testing.T, dir string, flushSize int, o DiskOptions) *Node {
	t.Helper()
	n := NewNode(flushSize)
	if err := n.OpenOptions(dir, o); err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return n
}

func TestDurableReopenServesAckedWrites(t *testing.T) {
	dir := t.TempDir()
	// Tiny flush budget (2 entries per shard) forces many
	// flush/spill/WAL-rotate boundaries during ingest.
	n := openedNode(t, dir, 2*numShards, noCompact)
	want := make(map[core.SensorID][]core.Reading)
	for s := 0; s < 8; s++ {
		id := sid(uint64(s+1), uint64(s)*7919)
		for b := 0; b < 6; b++ {
			batch := make([]core.Reading, 5)
			for k := range batch {
				ts := int64(b*5 + k)
				batch[k] = rd(ts, float64(s*1000)+float64(ts))
			}
			if err := n.InsertBatch(id, batch, 0); err != nil {
				t.Fatal(err)
			}
			want[id] = append(want[id], batch...)
		}
	}
	n.crash() // pending spills dropped; WAL was synced on every write

	n2 := openedNode(t, dir, 0, noCompact)
	for id, rs := range want {
		got, err := n2.Query(id, 0, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rs) {
			t.Fatalf("sensor %v: %d of %d acked readings after crash", id, len(got), len(rs))
		}
		for i := range rs {
			if got[i] != rs[i] {
				t.Fatalf("sensor %v reading %d: %v != %v", id, i, got[i], rs[i])
			}
		}
	}
	// Ingest resumes on the recovered directory.
	extra := sid(99, 99)
	if err := n2.InsertBatch(extra, []core.Reading{rd(1, 2)}, 0); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	if err := n2.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}

	// A clean close flushes everything; the third generation sees all
	// data with no WAL left to replay.
	n3 := openedNode(t, dir, 0, noCompact)
	defer n3.Close()
	if rs, _ := n3.Query(extra, 0, 10); len(rs) != 1 || rs[0].Value != 2 {
		t.Fatalf("after clean close: %v", rs)
	}
	for id, rs := range want {
		if got, _ := n3.Query(id, 0, 1<<60); len(got) != len(rs) {
			t.Fatalf("sensor %v: %d of %d readings after clean close", id, len(got), len(rs))
		}
	}
}

// copyDir clones a data directory so one crash image can be truncated
// at many different byte offsets.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// newestWAL returns the path and size of the highest-sequence WAL
// segment of the node directory dir.
func newestWAL(t *testing.T, dir string, id core.SensorID) (string, int64) {
	t.Helper()
	segs, err := findWALSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s: %v", dir, err)
	}
	seg := segs[len(segs)-1]
	st, err := os.Stat(seg.path)
	if err != nil {
		t.Fatal(err)
	}
	return seg.path, st.Size()
}

func TestRecoveryTornWALTruncatedAtArbitraryByte(t *testing.T) {
	const batches, batchLen = 10, 5 // records of 8 + 1 + 36 + 5×16 = 125 bytes
	base := t.TempDir()
	id := sid(42, 1)
	n := openedNode(t, base, 0, noCompact) // large flush budget: all data lives in the WAL
	for b := 0; b < batches; b++ {
		batch := make([]core.Reading, batchLen)
		for k := range batch {
			ts := int64(b*batchLen + k)
			batch[k] = rd(ts, float64(ts)*3)
		}
		if err := n.InsertBatch(id, batch, 0); err != nil {
			t.Fatal(err)
		}
	}
	n.crash()

	walPath, walSize := newestWAL(t, base, id)
	recSize := walSize / batches // records are fixed-size: framing + batch payload
	if walSize%batches != 0 {
		t.Fatalf("WAL size %d not a multiple of %d batches", walSize, batches)
	}
	rng := rand.New(rand.NewSource(7))
	cuts := []int64{0, 1, recSize - 1, recSize, walSize - 1, walSize}
	for i := 0; i < 12; i++ {
		cuts = append(cuts, rng.Int63n(walSize+1))
	}
	for _, cut := range cuts {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, base, dir)
			rel, _ := filepath.Rel(base, walPath)
			if err := os.Truncate(filepath.Join(dir, rel), cut); err != nil {
				t.Fatal(err)
			}
			n2 := openedNode(t, dir, 0, noCompact)
			defer n2.Close()
			got, err := n2.Query(id, 0, 1<<60)
			if err != nil {
				t.Fatal(err)
			}
			// Whole records before the cut survive; the torn one and
			// everything after it are dropped — never served in part.
			wantBatches := int(cut / recSize)
			if len(got) != wantBatches*batchLen {
				t.Fatalf("cut at %d: %d readings, want %d complete batches (%d)",
					cut, len(got), wantBatches, wantBatches*batchLen)
			}
			for i, r := range got {
				if r.Timestamp != int64(i) || r.Value != float64(i)*3 {
					t.Fatalf("reading %d corrupted: %+v", i, r)
				}
			}
			// The torn tail is truncated away and ingest resumes.
			if err := n2.InsertBatch(id, []core.Reading{rd(1<<40, 1)}, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// failingSink tears the WAL stream after a byte budget: the tail of the
// last write is dropped mid-record, like a full disk or yanked power.
type failingSink struct {
	f      walSink
	budget int
	failed bool
}

func (s *failingSink) Write(p []byte) (int, error) {
	if s.failed {
		return 0, fmt.Errorf("injected WAL failure")
	}
	if len(p) > s.budget {
		nw, _ := s.f.Write(p[:s.budget])
		s.budget = 0
		s.failed = true
		return nw, fmt.Errorf("injected WAL failure")
	}
	s.budget -= len(p)
	return s.f.Write(p)
}

func (s *failingSink) Sync() error {
	if s.failed {
		return fmt.Errorf("injected WAL failure")
	}
	return s.f.Sync()
}

func (s *failingSink) Close() error { return s.f.Close() }

func TestRecoveryInjectedWALWriterFailure(t *testing.T) {
	dir := t.TempDir()
	id := sid(5, 5)
	realOpen := openWALSink
	defer func() { openWALSink = realOpen }()
	budget := 3*(8+21+32) + 10 // three whole single-reading records, then mid-record failure
	openWALSink = func(path string) (walSink, error) {
		f, err := realOpen(path)
		if err != nil {
			return nil, err
		}
		return &failingSink{f: f, budget: budget}, nil
	}
	n := openedNode(t, dir, 0, noCompact)
	acked := 0
	sawError := false
	for i := 0; i < 10; i++ {
		err := n.InsertBatch(id, []core.Reading{rd(int64(i), float64(i))}, 0)
		if err != nil {
			sawError = true
			break
		}
		acked++
	}
	if !sawError {
		t.Fatal("injected failure never surfaced to the writer")
	}
	if acked != 3 {
		t.Fatalf("acked %d writes, expected 3 before the fault", acked)
	}
	n.crash()

	openWALSink = realOpen
	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	got, err := n2.Query(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != acked {
		t.Fatalf("recovered %d readings, want the %d acked ones", len(got), acked)
	}
	for i, r := range got {
		if r.Timestamp != int64(i) || r.Value != float64(i) {
			t.Fatalf("reading %d: %+v", i, r)
		}
	}
}

func TestRecoveryDeleteBeforeSurvivesCrash(t *testing.T) {
	id := sid(3, 1)
	insert := func(n *Node, from, to int64) {
		for ts := from; ts < to; ts++ {
			if err := n.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, n *Node, wantTS []int64) {
		t.Helper()
		got, err := n.Query(id, 0, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantTS) {
			t.Fatalf("got %d readings %v, want %v", len(got), got, wantTS)
		}
		for i, ts := range wantTS {
			if got[i].Timestamp != ts {
				t.Fatalf("reading %d: ts %d, want %d", i, got[i].Timestamp, ts)
			}
		}
	}

	t.Run("wal-logged delete over spilled run", func(t *testing.T) {
		dir := t.TempDir()
		n := openedNode(t, dir, 0, noCompact)
		insert(n, 0, 10)
		if err := n.Flush(); err != nil { // run file holds ts 0..9
			t.Fatal(err)
		}
		n.sp.waitIdle()
		if err := n.DeleteBefore(id, 5); err != nil { // delete exists only in the WAL
			t.Fatal(err)
		}
		n.crash()
		n2 := openedNode(t, dir, 0, noCompact)
		defer n2.Close()
		check(t, n2, []int64{5, 6, 7, 8, 9})
	})

	t.Run("tombstone carried by later run file", func(t *testing.T) {
		dir := t.TempDir()
		n := openedNode(t, dir, 0, noCompact)
		insert(n, 0, 10)
		if err := n.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := n.DeleteBefore(id, 5); err != nil {
			t.Fatal(err)
		}
		insert(n, 10, 15)
		if err := n.Flush(); err != nil { // second run file carries the tombstone
			t.Fatal(err)
		}
		n.sp.waitIdle() // both files durable; delete's WAL segment retired
		n.crash()
		n2 := openedNode(t, dir, 0, noCompact)
		defer n2.Close()
		check(t, n2, []int64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	})

	t.Run("re-insert of older timestamps after delete survives", func(t *testing.T) {
		dir := t.TempDir()
		n := openedNode(t, dir, 0, noCompact)
		insert(n, 10, 15)
		if err := n.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := n.DeleteBefore(id, 20); err != nil { // wipe everything
			t.Fatal(err)
		}
		insert(n, 2, 4) // legitimate backfill of old timestamps
		n.crash()
		n2 := openedNode(t, dir, 0, noCompact)
		defer n2.Close()
		check(t, n2, []int64{2, 3})

		// Same holds when the backfill was flushed into its own run
		// file whose tombstone section records the earlier delete.
		if err := n2.Flush(); err != nil {
			t.Fatal(err)
		}
		n2.sp.waitIdle()
		n2.crash()
		n3 := openedNode(t, dir, 0, noCompact)
		defer n3.Close()
		check(t, n3, []int64{2, 3})
	})
}

func TestScanRunFilesDropsCoveredSpans(t *testing.T) {
	dir := t.TempDir()
	mk := func(minSeq, maxSeq uint64, ts int64) {
		series := map[core.SensorID][]entry{sid(1, 1): {{ts: ts, val: 1}}}
		if _, _, err := writeRunFile(dir, minSeq, maxSeq, series, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The crash window of a compaction: the merged file [1,3] exists
	// alongside its inputs.
	mk(1, 1, 10)
	mk(2, 2, 20)
	mk(3, 3, 30)
	mk(1, 3, 40)
	mk(4, 4, 50) // newer flush outside the merge
	// Leftover temp file from an interrupted write.
	if err := os.WriteFile(filepath.Join(dir, runFileName(9, 9)+".tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	metas, err := scanRunFiles(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || metas[0].minSeq != 1 || metas[0].maxSeq != 3 || metas[1].maxSeq != 4 {
		t.Fatalf("survivors = %+v", metas)
	}
	des, _ := os.ReadDir(dir)
	if len(des) != 2 {
		names := make([]string, 0, len(des))
		for _, d := range des {
			names = append(names, d.Name())
		}
		t.Fatalf("covered inputs and temp files not deleted: %v", names)
	}
}

func TestBackgroundCompactionBoundsRunFilesUnderIngest(t *testing.T) {
	dir := t.TempDir()
	id := sid(8, 8)
	o := DiskOptions{
		SyncInterval: -1, // durability is not under test; keep ingest fast
		MaxRuns:      4,
	}
	n := openedNode(t, dir, 4*numShards, o) // 4 entries per shard per flush
	defer n.Close()

	const total = 4000
	done := make(chan struct{})
	queryErr := make(chan error, 1)
	var maxLatency time.Duration
	go func() {
		defer close(done)
		// Concurrent reader: queries must keep completing (and stay
		// correct) while merges run; a compactor holding a shard lock
		// across file I/O would show up as a latency cliff here.
		for {
			select {
			case <-queryErr:
				return
			default:
			}
			start := time.Now()
			rs, err := n.Query(id, 0, 1<<60)
			if lat := time.Since(start); lat > maxLatency {
				maxLatency = lat
			}
			if err != nil {
				queryErr <- err
				return
			}
			for i := 1; i < len(rs); i++ {
				if rs[i].Timestamp <= rs[i-1].Timestamp {
					queryErr <- fmt.Errorf("unsorted result during compaction at %d", i)
					return
				}
			}
			if len(rs) == total {
				return
			}
		}
	}()
	for ts := 0; ts < total; ts++ {
		if err := n.InsertBatch(id, []core.Reading{rd(int64(ts), float64(ts))}, 0); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	select {
	case err := <-queryErr:
		t.Fatal(err)
	default:
	}
	// Generous bound: the point is that queries never block on a merge
	// (which takes well over a second to show up as a cliff), not
	// micro-latency on a loaded CI box.
	if maxLatency > time.Second {
		t.Fatalf("query latency reached %v while compaction ran", maxLatency)
	}

	// Once ingest stops, the compactor must settle the shard at or
	// below its size-tiered trigger. The node is still live, so the
	// poll must be non-destructive (scanRunFiles would delete the
	// spiller's and compactor's in-flight .tmp files) and tolerate
	// files vanishing between listing and counting.
	if err := n.Sync(); err != nil {
		t.Fatal(err)
	}
	n.sp.waitIdle()
	deadline := time.Now().Add(10 * time.Second)
	for {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, de := range des {
			if _, _, ok := runFileSpan(de.Name()); ok {
				count++
			}
		}
		if count <= o.MaxRuns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction never settled: %d run files (trigger %d)", count, o.MaxRuns)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// And the merged data is intact.
	rs, err := n.Query(id, 0, 1<<60)
	if err != nil || len(rs) != total {
		t.Fatalf("after compaction: %d readings, %v", len(rs), err)
	}
}

func TestDurableOpenValidation(t *testing.T) {
	dir := t.TempDir()
	n := openedNode(t, dir, 0, noCompact)
	defer n.Close()
	if err := n.OpenOptions(t.TempDir(), DiskOptions{}); err == nil {
		t.Error("double Open accepted")
	}
	m := NewNode(0)
	m.InsertBatch(sid(1, 1), []core.Reading{rd(1, 1)}, 0)
	if err := m.OpenOptions(t.TempDir(), DiskOptions{}); err == nil {
		t.Error("Open on non-empty node accepted")
	}
}

func TestDurableWritesFailAfterClose(t *testing.T) {
	dir := t.TempDir()
	n := openedNode(t, dir, 0, noCompact)
	id := sid(2, 2)
	if err := n.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.InsertBatch(id, []core.Reading{rd(2, 2)}, 0); err != ErrNodeClosed {
		t.Fatalf("insert after close: %v", err)
	}
	if err := n.DeleteBefore(id, 1); err != ErrNodeClosed {
		t.Fatalf("delete after close: %v", err)
	}
	// Its readings are on disk behind released files: reads fail too.
	if rs, err := n.Query(id, 0, 10); err != ErrNodeClosed {
		t.Fatalf("read after close: %v %v", rs, err)
	}
}

func TestDurableFullCompactAndReopen(t *testing.T) {
	dir := t.TempDir()
	n := openedNode(t, dir, 0, noCompact)
	id := sid(6, 6)
	for b := 0; b < 5; b++ {
		for ts := 0; ts < 10; ts++ {
			n.InsertBatch(id, []core.Reading{rd(int64(b*10+ts), float64(b))}, 0)
		}
		if err := n.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	n.sp.waitIdle()
	if metas, _ := scanRunFiles(dir, false); len(metas) != 5 {
		t.Fatalf("expected 5 run files before compaction, got %d", len(metas))
	}
	n.Compact()
	if metas, _ := scanRunFiles(dir, false); len(metas) != 1 {
		t.Fatalf("full compaction left %d run files", len(metas))
	}
	n.crash()
	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	rs, err := n2.Query(id, 0, 1<<60)
	if err != nil || len(rs) != 50 {
		t.Fatalf("after compaction+crash: %d readings, %v", len(rs), err)
	}
}

func TestReadOnlyOpenLeavesDirectoryUntouched(t *testing.T) {
	dir := t.TempDir()
	id := sid(21, 21)
	n := openedNode(t, dir, 0, noCompact)
	for ts := int64(0); ts < 8; ts++ {
		n.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0)
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	n.sp.waitIdle()
	for ts := int64(8); ts < 12; ts++ { // tail lives only in the WAL
		n.InsertBatch(id, []core.Reading{rd(ts, float64(ts))}, 0)
	}
	n.crash()
	// What a live node's spill leaves while it writes: a tools' open of
	// an agent's directory must not take it away.
	if err := os.WriteFile(filepath.Join(dir, runFileName(9, 9)+".tmp"), []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	fingerprint := func() map[string]int64 {
		out := map[string]int64{}
		filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				out[path] = info.Size()
			}
			return nil
		})
		return out
	}
	before := fingerprint()

	ro := NewNode(0)
	if err := ro.OpenOptions(dir, DiskOptions{ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	rs, err := ro.Query(id, 0, 1<<60)
	if err != nil || len(rs) != 12 {
		t.Fatalf("read-only recovery: %d readings, %v", len(rs), err)
	}
	if err := ro.InsertBatch(id, []core.Reading{rd(99, 99)}, 0); err != ErrNodeReadOnly {
		t.Fatalf("read-only insert: %v", err)
	}
	if err := ro.DeleteBefore(id, 5); err != ErrNodeReadOnly {
		t.Fatalf("read-only delete: %v", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	after := fingerprint()
	if len(after) != len(before) {
		t.Fatalf("read-only open changed the file set: %v -> %v", before, after)
	}
	for p, sz := range before {
		if after[p] != sz {
			t.Fatalf("read-only open resized %s: %d -> %d", p, sz, after[p])
		}
	}
	// The directory still recovers writable afterwards.
	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	if rs, _ := n2.Query(id, 0, 1<<60); len(rs) != 12 {
		t.Fatalf("writable reopen after read-only: %d readings", len(rs))
	}
}

// TestDurableKeepsEveryInt64Timestamp: a reading's timestamp may be any
// int64, and every stage a reading passes through — memtable, flushed
// run, spilled run file (resident or evicted), compacted file, reopened
// directory — serves all of them, negative and past ±2^62 included.
func TestDurableKeepsEveryInt64Timestamp(t *testing.T) {
	tss := []int64{math.MinInt64, -1<<62 - 5, -7, 1, 1<<62 + 5, math.MaxInt64}
	id := sid(7, 7)
	for _, tc := range []struct {
		name string
		o    *DiskOptions // nil: a memory-only node
	}{
		{"memory", nil},
		{"resident", &DiskOptions{SyncInterval: -1}},
		{"cache-bounded", &DiskOptions{SyncInterval: -1, CacheBytes: 1 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			n := NewNode(0)
			if tc.o != nil {
				n = openedNode(t, dir, 0, *tc.o)
			}
			check := func(stage string) {
				t.Helper()
				rs, err := n.Query(id, math.MinInt64, math.MaxInt64)
				if err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				got := make([]int64, len(rs))
				for i, r := range rs {
					got[i] = r.Timestamp
				}
				if !slices.Equal(got, tss) {
					t.Fatalf("%s: served timestamps %v, want %v", stage, got, tss)
				}
			}
			for _, ts := range tss {
				if err := n.InsertBatch(id, []core.Reading{rd(ts, float64(ts%1000))}, 0); err != nil {
					t.Fatal(err)
				}
			}
			check("memtable")
			if err := n.Flush(); err != nil {
				t.Fatal(err)
			}
			check("flushed")
			if tc.o != nil {
				n.sp.waitIdle()
				check("spilled")
			}
			n.Compact()
			check("compacted")
			if tc.o != nil {
				if err := n.Close(); err != nil {
					t.Fatal(err)
				}
				n = openedNode(t, dir, 0, *tc.o)
				defer n.Close()
				check("reopened")
			}
		})
	}
}
