package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fsutil"
)

// On-disk sorted runs: each memtable flush spills one immutable run
// file per shard (`shard-<i>/run-<minSeq>-<maxSeq>.sst`); compaction
// merges a contiguous sequence window of run files into one whose
// index records the merged span, so a crash between writing the
// merged file and deleting its inputs is recovered by dropping any
// file whose span is contained in another's (write-new, rename,
// delete-old — the rename is the commit point). The byte layout of a
// run file is runfile.go's; this file names, scans and recovers them.
//
// A run file's tombstone section persists the DeleteBefore cutoffs
// issued while its memtable was live; at recovery they are applied to
// every run file with an older span, whose bytes still hold the deleted
// rows.

// runFileMeta describes one durable run file of a shard. tombs mirrors
// the file's tombstone section so a compaction can carry the residual
// cutoffs into its merged output without re-reading the inputs. rf is
// the refcounted cold-read handle (nil when the file's contents are
// fully resident — a node running without a cache); the meta holds the
// owning reference, released when compaction retires the file or the
// node closes.
type runFileMeta struct {
	path           string
	minSeq, maxSeq uint64
	size           int64 // file size in bytes, drives size-tiered compaction
	tombs          map[core.SensorID]int64
	rf             *runFile
}

// runFileName builds the canonical file name for a sequence span.
func runFileName(minSeq, maxSeq uint64) string {
	return fmt.Sprintf("run-%016x-%016x.sst", minSeq, maxSeq)
}

// runFileSpan parses a run file name, or returns false for other files.
func runFileSpan(name string) (minSeq, maxSeq uint64, ok bool) {
	if !strings.HasPrefix(name, "run-") || !strings.HasSuffix(name, ".sst") {
		return 0, 0, false
	}
	span := strings.TrimSuffix(strings.TrimPrefix(name, "run-"), ".sst")
	var a, b uint64
	if _, err := fmt.Sscanf(span, "%016x-%016x", &a, &b); err != nil || a > b {
		return 0, 0, false
	}
	return a, b, true
}

// runContents is a decoded run file.
type runContents struct {
	minSeq, maxSeq uint64
	tombs          map[core.SensorID]int64
	series         map[core.SensorID][]entry
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) { fsutil.SyncDir(dir) }

func sortedIDs(n int, iter func(func(core.SensorID))) []core.SensorID {
	ids := make([]core.SensorID, 0, n)
	iter(func(id core.SensorID) { ids = append(ids, id) })
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	return ids
}

// readRunFile loads and decodes one run file.
func readRunFile(path string) (*runContents, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rc, err := decodeRunFile(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return rc, nil
}

// scanRunFiles lists a shard directory's run files, deletes leftover
// temp files, and retires any file whose sequence span is contained in
// another's (the crash window between a compaction's rename and its
// input deletion). The survivors have pairwise disjoint spans and are
// returned in span order.
func scanRunFiles(dir string) ([]runFileMeta, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var metas []runFileMeta
	for _, de := range des {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		minSeq, maxSeq, ok := runFileSpan(name)
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			return nil, err
		}
		metas = append(metas, runFileMeta{
			path: filepath.Join(dir, name), minSeq: minSeq, maxSeq: maxSeq, size: info.Size(),
		})
	}
	// Wider spans first so contained files are found after their
	// container.
	sort.Slice(metas, func(i, j int) bool {
		si, sj := metas[i].maxSeq-metas[i].minSeq, metas[j].maxSeq-metas[j].minSeq
		if si != sj {
			return si > sj
		}
		return metas[i].minSeq < metas[j].minSeq
	})
	kept := metas[:0]
	for _, m := range metas {
		covered := false
		for _, k := range kept {
			if k.minSeq <= m.minSeq && m.maxSeq <= k.maxSeq {
				covered = true
				break
			}
		}
		if covered {
			os.Remove(m.path)
			continue
		}
		kept = append(kept, m)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].maxSeq < kept[j].maxSeq })
	return kept, nil
}

// DiskOptions tune a durable node. The zero value is the safest
// configuration: fsync on every write, 8-file compaction trigger,
// 250ms background compaction pace.
type DiskOptions struct {
	// SyncInterval batches WAL fsyncs. 0 syncs before every write is
	// acknowledged (each insert is durable when it returns); > 0 syncs
	// at that cadence, so a crash may lose up to one interval of
	// acknowledged writes; < 0 disables automatic syncing entirely
	// (call Sync explicitly — for tools and tests).
	SyncInterval time.Duration
	// MaxRuns is the per-shard run-file count above which the
	// background compactor schedules a size-tiered merge. <= 0 selects
	// the default (8).
	MaxRuns int
	// CompactInterval is the background compaction scheduling pace.
	// 0 selects the default (250ms); < 0 disables the background
	// compactor (Compact still works when called).
	CompactInterval time.Duration
	// ReadOnly recovers the directory without touching it: no WAL
	// segment is created, torn tails are not truncated, nothing is
	// spilled or compacted, and writes fail with ErrNodeReadOnly.
	// For tools inspecting a (possibly crashed) agent's directory.
	ReadOnly bool
	// CacheBytes > 0 bounds the node's resident run data: spilled and
	// recovered run files keep only their per-series [min,max] span
	// headers and block indexes in memory, and decoded blocks are
	// cached node-wide up to this budget with clock eviction. 0 keeps
	// every run fully resident (memory grows with retention).
	CacheBytes int64
}

const (
	defaultMaxRuns         = 8
	defaultCompactInterval = 250 * time.Millisecond
)

// Open attaches a fresh node to a data directory with default
// DiskOptions: run files are mapped in, WAL segments are replayed, and
// from then on every write is crash-durable. See OpenOptions.
func (n *Node) Open(dir string) error { return n.OpenOptions(dir, DiskOptions{}) }

// OpenOptions attaches a fresh node to a data directory. The layout is
// one subdirectory per shard (`shard-<i>/`) holding immutable sorted
// run files (`run-<minSeq>-<maxSeq>.sst`) and WAL segments
// (`wal-<seq>.log`). Recovery first maps the run files — dropping any
// whose sequence span another file covers (the crash window of a
// compaction) — then replays the surviving WAL segments in order,
// truncating a torn tail, so every write acknowledged before the crash
// is served again and no partial record ever is; a whole record this
// build cannot read fails the open instead. Shard directories and fresh
// WAL segments are created only once every shard has recovered, so a
// refused open leaves the directory as it found it. On error the node
// is not usable and must be discarded.
func (n *Node) OpenOptions(dir string, o DiskOptions) error {
	if n.durable() {
		return fmt.Errorf("store: node already open at %s", n.dir)
	}
	for i := range n.shards {
		if n.shards[i].memSize != 0 || len(n.shards[i].runs) != 0 {
			return fmt.Errorf("store: Open requires a fresh node")
		}
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = defaultMaxRuns
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = defaultCompactInterval
	}
	n.opts = o
	n.dir = dir
	if o.CacheBytes > 0 {
		n.cache = newBlockCache(o.CacheBytes)
		n.met.registerCacheMetrics(n.cache)
	}
	// Recover every shard before creating anything, so an open that
	// refuses a file leaves the directory as it found it. A missing
	// shard is empty.
	for i := range n.shards {
		sh := &n.shards[i]
		sh.disk.dir = filepath.Join(dir, fmt.Sprintf("shard-%02d", i))
		if _, err := os.Stat(sh.disk.dir); os.IsNotExist(err) {
			continue
		}
		if err := n.recoverShard(i); err != nil {
			n.Close()
			return err
		}
	}
	n.stopBG = make(chan struct{})
	if o.ReadOnly {
		return nil
	}
	for i := range n.shards {
		if err := n.openShardWAL(i); err != nil {
			n.Close() // release the WALs already opened for earlier shards
			return err
		}
	}
	n.sp = newSpiller(n)
	if o.CompactInterval > 0 {
		n.bgWG.Add(1)
		go n.compactLoop()
	}
	if o.SyncInterval > 0 {
		n.bgWG.Add(1)
		go n.syncLoop()
	}
	// A replayed WAL can leave a shard over its flush budget; spill it
	// now that the background machinery is running.
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		var err error
		if sh.memSize >= n.flushSize {
			err = n.flushShardLocked(i)
		}
		sh.mu.Unlock()
		if err != nil {
			// Don't leak the just-started goroutines and open WAL
			// files: tear the node down before reporting failure.
			n.Close()
			return err
		}
	}
	return nil
}

// checkSpan requires the span a run file's index states to be the one
// its name does.
func (m *runFileMeta) checkSpan(minSeq, maxSeq uint64) error {
	if minSeq != m.minSeq || maxSeq != m.maxSeq {
		return fmt.Errorf("store: %s: header span [%d,%d] contradicts name", m.path, minSeq, maxSeq)
	}
	return nil
}

// recoverShard rebuilds shard i from its directory: run files first
// (oldest to newest, applying each file's tombstones to the older
// files' rows), then WAL segment replay into the memtable. A run file
// of a format before v5 fails the open and is left as it is
// (errRunFileOld). Single threaded; no locks needed.
func (n *Node) recoverShard(i int) error {
	sh := &n.shards[i]
	metas, err := scanRunFiles(sh.disk.dir)
	if err != nil {
		return err
	}
	for mi := range metas {
		m := &metas[mi]
		if n.cache != nil {
			// Resident-set-bounded recovery: a file contributes only its
			// index (per-series bounds + block index); the data section
			// stays on disk until a query pulls blocks through the cache.
			idx, err := readRunIndexFile(m.path)
			if err != nil {
				return err
			}
			if err := m.checkSpan(idx.minSeq, idx.maxSeq); err != nil {
				return err
			}
			if m.rf, err = openRunFileHandle(m.path, idx, n.cache); err != nil {
				return err
			}
			m.tombs = idx.tombs
			for _, se := range idx.series {
				sh.runs[se.id] = append(sh.runs[se.id], run{
					min: se.min, max: se.max, seq: m.maxSeq,
					cold: &coldRun{rf: m.rf, blocks: se.blocks, count: int(se.count)},
				})
				sh.flushedSize += int(se.count)
			}
		} else {
			rc, err := readRunFile(m.path)
			if err != nil {
				return err
			}
			if err := m.checkSpan(rc.minSeq, rc.maxSeq); err != nil {
				return err
			}
			m.tombs = rc.tombs
			for id, es := range rc.series {
				sh.runs[id] = append(sh.runs[id], run{es: es, min: es[0].ts, max: es[len(es)-1].ts, seq: m.maxSeq})
				sh.flushedSize += len(es)
			}
		}
		// Tombstones cover deletes issued while this file's memtable
		// was live; older files still hold the deleted rows.
		for id, cutoff := range m.tombs {
			sh.cutRunsLocked(id, cutoff, m.minSeq)
		}
		sh.disk.files = append(sh.disk.files, *m)
		if m.maxSeq >= sh.disk.nextSeq {
			sh.disk.nextSeq = m.maxSeq + 1
		}
	}
	segs, err := findWALSegments(sh.disk.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		ops, err := replaySegment(seg.path, !n.opts.ReadOnly)
		if err != nil {
			return err
		}
		for _, op := range ops {
			if op.del {
				// The delete happened after everything replayed so
				// far and after every run file older than this
				// segment; data in newer run files was either
				// filtered at its flush or legitimately re-inserted
				// afterwards, so it is left alone.
				sh.cutMemLocked(op.id, op.cutoff)
				sh.cutRunsLocked(op.id, op.cutoff, seg.seq)
				if sh.disk.tombs == nil {
					sh.disk.tombs = make(map[core.SensorID]int64)
				}
				if op.cutoff > sh.disk.tombs[op.id] {
					sh.disk.tombs[op.id] = op.cutoff
				}
				continue
			}
			sh.appendLocked(op.entries)
		}
		sh.disk.memSegs = append(sh.disk.memSegs, seg.path)
		if seg.seq >= sh.disk.nextSeq {
			sh.disk.nextSeq = seg.seq + 1
		}
	}
	sh.indexOK = len(sh.mem) == 0 && len(sh.runs) == 0
	return nil
}

// openShardWAL creates shard i's directory, if missing, and a fresh
// WAL segment after everything recovery found there.
func (n *Node) openShardWAL(i int) error {
	sh := &n.shards[i]
	if err := os.MkdirAll(sh.disk.dir, 0o755); err != nil {
		return err
	}
	w, err := createWAL(sh.disk.dir, sh.disk.nextSeq)
	if err != nil {
		return err
	}
	w.met = &n.met.wal
	sh.disk.wal = w
	return nil
}
