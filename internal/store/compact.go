package store

import (
	"log"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"dcdb/internal/backoff"
	"dcdb/internal/core"
	"dcdb/internal/fsutil"
)

// Background machinery of a durable node: the spiller turns flushed
// memtables into run files off the ingest path, one file per flush
// generation, each followed by a size-tiered copy-aside merge, so
// neither queries nor ingest wait on a merge's I/O. Both publish their
// results under short exclusive shard locks; all heavy I/O happens
// outside every lock, reading only immutable entry slices.

// spillJob carries one flushed generation to disk.
type spillJob struct {
	seq uint64
	// What the generation's run file holds, dropped once it is durable.
	series  map[core.SensorID][]entry
	tombs   map[core.SensorID]int64
	retired *wal     // the generation's segment, closed first
	covered []string // WAL segments deletable once the file is durable
}

// A failed spill is logged and retried a few times, with the shared
// jittered backoff growing from 500ms, then dropped; its data stays
// recoverable from the WAL segments, which go only on success.
const spillMaxAttempts = 5

var spillRetryPolicy = backoff.Policy{
	Initial: 500 * time.Millisecond, Max: 5 * time.Second, Multiplier: 2, Jitter: 0.25,
}

// spillQueueMax bounds the generations queued for the spiller, the one
// being written included: a flush that would queue more waits, so a
// writer faster than the disk cannot pile flushed runs up in memory.
const spillQueueMax = 2

// spiller is the single background writer of run files. One goroutine
// runs the jobs in generation order, so the node's file list only ever
// grows at the newest end, and compacts after each.
type spiller struct {
	n      *Node
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*spillJob // the head is the job being run
	closed bool
	stop   chan struct{} // closed with closed: a failed job is not retried
	err    error         // first spill failure, surfaced by close
}

func newSpiller(n *Node) *spiller {
	s := &spiller{n: n, stop: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.loop()
	return s
}

// waitRoom blocks until the queue has room for one more job and reports
// whether the spiller is open. Only a flush queues, under flushMu.
func (s *spiller) waitRoom() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) >= spillQueueMax && !s.closed {
		s.cond.Wait()
	}
	return !s.closed
}

// push queues a job waitRoom made room for, under the shard locks: the
// spiller takes none while it holds mu.
func (s *spiller) push(j *spillJob) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, j)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// retiring lists the retired WAL segments not yet closed, for Sync.
func (s *spiller) retiring() (ws []*wal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.queue {
		if j.retired != nil {
			ws = append(ws, j.retired)
		}
	}
	return ws
}

func (s *spiller) loop() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.mu.Unlock()

		err := s.run(j)

		s.mu.Lock()
		s.queue[0] = nil // the backing array must not pin a spilled generation
		s.queue = s.queue[1:]
		if err != nil && s.err == nil {
			s.err = err
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// run closes the job's retired segment, which writers left before the
// job was queued, spills the job, retrying failures, and then offers
// the node's files, as they stand after this spill, one merge.
func (s *spiller) run(j *spillJob) error {
	cerr := j.retired.close()
	if cerr != nil {
		log.Printf("store: closing the retired WAL segment %s: %v", j.retired.path, cerr)
	}
	s.mu.Lock()
	j.retired = nil
	s.mu.Unlock()
	for attempt := 1; ; attempt++ {
		err := s.n.spillOne(j)
		if err == nil {
			// A merge already running (a full Compact) keeps the
			// spiller from waiting for it: this window is left to the
			// next spill.
			if s.n.mergeMu.TryLock() {
				s.n.compactWindow(false)
				s.n.mergeMu.Unlock()
			}
			return cerr
		}
		log.Printf("store: spilling generation %d failed (attempt %d/%d): %v", j.seq, attempt, spillMaxAttempts, err)
		if attempt == spillMaxAttempts {
			return err
		}
		select {
		case <-time.After(spillRetryPolicy.Delay(attempt)):
		case <-s.stop:
			return err
		}
	}
}

// waitIdle blocks until every enqueued spill has reached disk.
func (s *spiller) waitIdle() {
	s.mu.Lock()
	for len(s.queue) > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// close drains the queue, stops the loop and reports the first spill
// failure.
func (s *spiller) close() error {
	s.mu.Lock()
	s.closed = true
	close(s.stop)
	s.cond.Broadcast()
	for len(s.queue) > 0 {
		s.cond.Wait()
	}
	err := s.err
	s.mu.Unlock()
	return err
}

// spillOne writes one generation's run file, then deletes the WAL
// segments it covers, which a failure keeps for the retry.
//
// Each freshly spilled run is immediately swapped cold: the flushed
// memtable arrays are dropped under the shard locks and later reads
// decode blocks from the just-written file through the cache. This is
// the eviction half of the resident-set bound — a node's memory stops
// growing the moment data reaches disk.
func (n *Node) spillOne(j *spillJob) error {
	if len(j.series) > 0 || len(j.tombs) > 0 {
		start := time.Now()
		meta, idx, err := writeRunFile(n.dir, j.seq, j.seq, j.series, j.tombs, &n.met.run)
		if err != nil {
			return err
		}
		if rf, err := openRunFileHandle(meta.path, idx, n.cache); err != nil {
			// The file is durable; only eviction is lost. Keep the runs
			// in memory rather than fail the spill.
			log.Printf("store: opening %s for cold reads: %v (runs stay resident)", meta.path, err)
		} else {
			meta.rf = rf
		}
		n.filesMu.Lock()
		n.files = append(n.files, meta)
		if meta.rf != nil {
			n.evictSpilled(j.seq, idx, meta.rf)
		}
		n.filesMu.Unlock()
		j.series, j.tombs = nil, nil
		if !instrumentationOff.Load() {
			n.met.spillDur.ObserveSince(start)
		}
	}
	for _, p := range j.covered {
		os.Remove(p)
	}
	return nil
}

// evictSpilled swaps a just-spilled generation cold, shard by shard.
func (n *Node) evictSpilled(seq uint64, idx *runIndex, rf *runFile) {
	var byShard [numShards][]*seriesIndex
	for k := range idx.series {
		i := shardIndex(idx.series[k].id)
		byShard[i] = append(byShard[i], &idx.series[k])
	}
	for i, series := range byShard {
		sh := &n.shards[i]
		sh.mu.Lock()
		evictSpilledLocked(sh, seq, series, rf)
		sh.mu.Unlock()
	}
}

// evictSpilledLocked swaps the hot in-memory runs of one just-spilled
// flush generation, the given series of shard sh, to cold
// block-indexed form, releasing their entry arrays. A DeleteBefore may
// have trimmed (or removed) a hot run since the flush snapshot was
// taken — the file holds the pre-delete rows, so the cold run keeps the
// hot run's surviving min, below which readers skip, and drops
// wholly-deleted blocks. Caller holds sh.mu exclusively.
func evictSpilledLocked(sh *shard, seq uint64, series []*seriesIndex, rf *runFile) {
	for _, se := range series {
		rs, ok := sh.runs[se.id]
		if !ok {
			continue // the whole run was deleted while spilling
		}
		for k := range rs {
			if rs[k].seq != seq || rs[k].cold != nil {
				continue
			}
			cut := rs[k].min
			blocks := se.blocks
			count := int(se.count)
			if len(rs[k].es) != count {
				// Trimmed by a delete: skip blocks the cut covers.
				lo := sort.Search(len(blocks), func(i int) bool { return blocks[i].max >= cut })
				for _, m := range blocks[:lo] {
					count -= int(m.count)
				}
				blocks = blocks[lo:]
				// The cold run's block-granular count keeps the
				// straddling block's already-deleted entries that the
				// delete subtracted from flushedSize; re-add the
				// difference so the run's later retirement (which
				// subtracts the full cold count) balances to zero.
				sh.flushedSize += count - len(rs[k].es)
			}
			rs[k] = run{
				min: cut, max: rs[k].max, seq: seq,
				cold: &coldRun{rf: rf, blocks: blocks, count: count},
			}
			break
		}
	}
}

// syncLoop batches WAL fsyncs at the configured interval.
func (n *Node) syncLoop() {
	defer n.bgWG.Done()
	t := time.NewTicker(n.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stopBG:
			return
		case <-t.C:
			// A sync failure marks the segment broken, so the next
			// write replaces it or surfaces the error to its caller.
			_ = n.Sync()
		}
	}
}

// pickWindow selects the newest contiguous window of similar-sized run
// files to merge (size-tiered): starting from the newest file, older
// neighbours join while no single file dwarfs the accumulated window
// (4× its total size), which leaves large, settled files alone until
// enough fresh flushes pile up to justify rewriting them. Merging
// triggers only once the node holds more than maxRuns files; lo == hi
// means nothing to do.
func pickWindow(files []runFileMeta, maxRuns int) (lo, hi int) {
	if len(files) <= maxRuns {
		return 0, 0
	}
	hi = len(files)
	lo = hi
	var total int64
	for lo > 0 {
		sz := files[lo-1].size
		if total > 0 && sz > 4*total {
			break
		}
		total += sz
		lo--
	}
	if hi-lo < 2 {
		// Strictly geometric file sizes: merge the two newest so the
		// count stays bounded regardless.
		lo = hi - 2
	}
	return lo, hi
}

// mergeWindowRuns streams one sensor's runs (oldest first) through a
// k-way merge, dropping entries expired at now, and feeds each
// surviving entry to emit in timestamp order (duplicates kept, oldest
// first — query-time dedup stays newest-wins). It is the one compaction
// merge: a durable node's window and a memory node's runs alike. Cold
// runs are read from min up, block-at-a-time with pooled scratch,
// bypassing the query cache so a background merge cannot flush the hot
// working set.
func mergeWindowRuns(rs []run, now int64, emit func(entry) error) error {
	srcs := make([]iterSource, 0, len(rs))
	var retained []*runFile
	defer func() {
		for _, s := range srcs {
			s.it.close()
		}
		for _, rf := range retained {
			rf.release()
		}
	}()
	for _, r := range rs {
		if r.cold != nil {
			r.cold.rf.retain()
			retained = append(retained, r.cold.rf)
			it := makeColdIter(r.cold, nil, r.min, math.MaxInt64)
			if len(it.blocks) == 0 {
				continue
			}
			srcs = append(srcs, iterSource{it: &it, min: max(r.min, it.blocks[0].min), max: it.blocks[len(it.blocks)-1].max})
			continue
		}
		if len(r.es) == 0 {
			continue
		}
		srcs = append(srcs, iterSource{it: &sliceIter{es: r.es}, min: r.es[0].ts, max: r.es[len(r.es)-1].ts})
	}
	if len(srcs) == 0 {
		return nil
	}
	m := newEntryMerge(srcs)
	for {
		e, ok := m.next()
		if !ok {
			break
		}
		if e.expire != 0 && e.expire <= now {
			continue
		}
		if err := emit(e); err != nil {
			return err
		}
	}
	return m.iterErr()
}

// compactWindow merges one window of the node's run files copy-aside:
// the inputs are snapshotted under the shards' read locks, merged and
// streamed into a new run file with no lock held, and swapped in under
// a brief write lock of every shard; the old files are deleted
// afterwards (write-new, rename, delete-old). The merge streams end to
// end — input blocks are decoded one at a time and output blocks stream
// through the run-file writer, so compaction memory is O(blocks), not
// O(window) — and the merged runs are registered cold. A DeleteBefore
// racing with the merge bumps the node's delVer and the merge aborts
// rather than resurrect deleted rows. full selects every file
// (Compact); otherwise pickWindow decides. Caller holds mergeMu;
// filesMu is held only to pick the window and to swap it, so a spill
// appends its file while the merge runs.
func (n *Node) compactWindow(full bool) {
	now := time.Now().UnixNano()
	n.filesMu.Lock()
	lo, hi := 0, len(n.files)
	if !full {
		lo, hi = pickWindow(n.files, n.opts.MaxRuns)
	}
	window := slices.Clone(n.files[lo:hi])
	n.filesMu.Unlock()
	if hi-lo == 0 || (hi-lo < 2 && !full) {
		return
	}
	compactStart := time.Now()
	defer func() {
		if !instrumentationOff.Load() {
			n.met.compactDur.ObserveSince(compactStart)
		}
	}()
	minSeq, maxSeq := window[0].minSeq, window[len(window)-1].maxSeq
	inWindow := func(seq uint64) bool { return seq >= minSeq && seq <= maxSeq }
	// Snapshot the window's per-sensor merge inputs. Hot runs are
	// immutable once flushed and cold runs' files are retained inside
	// mergeWindowRuns, so both are safe to read without the lock; the
	// delVer check below catches the one mutation that re-slices them
	// (DeleteBefore), read first so a later cut shows there.
	delVer0 := n.delVer.Load()
	series := make(map[core.SensorID][]run)
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.RLock()
		for id, rs := range sh.runs {
			for _, r := range rs {
				if inWindow(r.seq) {
					series[id] = append(series[id], r)
				}
			}
		}
		sh.mu.RUnlock()
	}
	// Residual tombstones still apply to files older than the window;
	// a window reaching the oldest file retires them for good.
	tombs := make(map[core.SensorID]int64)
	if lo > 0 {
		for _, m := range window {
			for id, cutoff := range m.tombs {
				tombs[id] = max(tombs[id], cutoff)
			}
		}
	}

	ids := sortedIDs(len(series), func(yield func(core.SensorID)) {
		for id := range series {
			yield(id)
		}
	})

	w, err := newRunFileWriter(n.dir, minSeq, maxSeq, &n.met.run)
	if err != nil {
		return // inputs untouched; retried after the next spill
	}
	merged := false // some series kept an entry
	for _, id := range ids {
		open := false
		err := mergeWindowRuns(series[id], now, func(e entry) error {
			if !open {
				if err := w.beginSeries(id); err != nil {
					return err
				}
				open, merged = true, true
			}
			return w.add(e)
		})
		if err == nil && open {
			err = w.endSeries()
		}
		if err != nil {
			w.abort()
			return
		}
	}
	// A single-file window (full compaction rewriting expired entries
	// away) has its input's span and therefore its path: the rename
	// replaces the live input, so the output must survive whatever
	// follows. Only a distinct merged file is ever removed here.
	inPlace := len(window) == 1
	var newMeta runFileMeta
	var newIdx *runIndex
	wrote := false
	if merged || len(tombs) > 0 {
		newMeta, newIdx, err = w.finish(tombs)
		if err != nil {
			// Inputs untouched; retried after the next spill. A merged
			// file whose directory fsync failed goes.
			if !inPlace {
				os.Remove(w.final)
			}
			return
		}
		wrote = true
	} else {
		w.abort() // everything expired and no residual tombstones
	}
	newCold := make(map[core.SensorID]*coldRun)
	if wrote {
		rf, err := openRunFileHandle(newMeta.path, newIdx, n.cache)
		if err != nil {
			log.Printf("store: opening %s for cold reads: %v (aborting swap)", newMeta.path, err)
			// The old files remain live and the merged file's span
			// covers theirs; recovery would retire them, but without a
			// read handle the merged data is unreachable now, so drop
			// a distinct output and retry after the next spill.
			if !inPlace {
				os.Remove(newMeta.path)
			}
			return
		}
		newMeta.rf = rf
		for _, se := range newIdx.series {
			newCold[se.id] = &coldRun{rf: rf, blocks: se.blocks, count: int(se.count)}
		}
	}

	n.lockShards(allShards)
	if n.delVer.Load() != delVer0 {
		n.unlockShards(allShards)
		if wrote {
			newMeta.rf.release()
			// An in-place rewrite predates the racing delete, but the
			// delete's WAL record (or its tombstone in a later run
			// file) re-applies at recovery, so the stale rows cannot
			// resurrect.
			if !inPlace {
				os.Remove(newMeta.path)
			}
		}
		return
	}
	for id := range series {
		sh := n.shardOf(id)
		old := sh.runs[id]
		kept := make([]run, 0, len(old))
		for _, r := range old {
			if inWindow(r.seq) {
				if r.cold != nil {
					sh.flushedSize -= r.cold.count
				} else {
					sh.flushedSize -= len(r.es)
				}
				continue
			}
			kept = append(kept, r)
		}
		if c, ok := newCold[id]; ok {
			sh.flushedSize += c.count
			pos := sort.Search(len(kept), func(k int) bool { return kept[k].seq > maxSeq })
			kept = append(kept, run{})
			copy(kept[pos+1:], kept[pos:])
			kept[pos] = run{min: c.blocks[0].min, max: c.blocks[len(c.blocks)-1].max, seq: maxSeq, cold: c}
		}
		if len(kept) == 0 {
			delete(sh.runs, id)
			if s, ok := sh.mem[id]; !ok || len(s.entries) == 0 {
				sh.indexOK = false // sensor fully expired away
			}
		} else {
			sh.runs[id] = kept
		}
	}
	n.unlockShards(allShards)
	// Spills only append and merges are serialised, so the window is
	// still files[lo:hi]; files spilled meanwhile follow it.
	n.filesMu.Lock()
	files := make([]runFileMeta, 0, len(n.files)-len(window)+1)
	files = append(files, n.files[:lo]...)
	if wrote {
		files = append(files, newMeta)
	}
	files = append(files, n.files[hi:]...)
	n.files = files
	n.filesMu.Unlock()

	for _, m := range window {
		// An in-place input's old read handle names the replaced inode
		// and is released like the rest.
		if m.rf != nil {
			m.rf.release()
		}
		if wrote && inPlace {
			continue
		}
		os.Remove(m.path)
	}
	fsutil.SyncDir(n.dir) // best effort: recovery retires covered inputs
}
