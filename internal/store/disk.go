package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dcdb/internal/core"
)

// On-disk sorted runs: each memtable flush spills one immutable run
// file for the whole node (`run-<minSeq>-<maxSeq>.sst` in the node's
// directory), its series in SID order whatever shard they hash to;
// compaction merges a contiguous sequence window of run files into one
// whose index records the merged span, so a crash between writing the
// merged file and deleting its inputs is recovered by dropping any
// file whose span is contained in another's (write-new, rename,
// delete-old — the rename is the commit point). The byte layout of a
// run file is runfile.go's; this file names, scans and recovers them.
//
// A run file's tombstone section persists the DeleteBefore cutoffs
// issued while its memtable was live; at recovery they are applied to
// every run file with an older span, whose bytes still hold the deleted
// rows.

// runFileMeta describes one durable run file of a node. tombs mirrors
// the file's tombstone section so a compaction can carry the residual
// cutoffs into its merged output without re-reading the inputs. rf is
// the refcounted read handle (nil only when a freshly spilled file
// could not be opened, and its runs stayed in memory); the meta holds
// the owning reference, released when compaction retires the file or
// the node closes.
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

func sortedIDs(n int, iter func(func(core.SensorID))) []core.SensorID {
	ids := make([]core.SensorID, 0, n)
	iter(func(id core.SensorID) { ids = append(ids, id) })
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	return ids
}

// scanRunFiles lists a node directory's run files and passes over any
// file whose sequence span is contained in another's (the crash window
// between a compaction's rename and its input deletion). With prune
// set it deletes those and leftover temp files. The survivors have
// pairwise disjoint spans and are returned in span order.
func scanRunFiles(dir string, prune bool) ([]runFileMeta, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var metas []runFileMeta
	for _, de := range des {
		name := de.Name()
		if strings.HasSuffix(name, ".sst.tmp") {
			if prune {
				os.Remove(filepath.Join(dir, name))
			}
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
			if prune {
				os.Remove(m.path)
			}
			continue
		}
		kept = append(kept, m)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].maxSeq < kept[j].maxSeq })
	return kept, nil
}

// DiskOptions tune a durable node. The zero value is the safest
// configuration: fsync on every write, 8-file compaction trigger.
type DiskOptions struct {
	// SyncInterval batches WAL fsyncs. 0 syncs before every write is
	// acknowledged (each insert is durable when it returns); > 0 syncs
	// at that cadence, so a crash may lose up to one interval of
	// acknowledged writes; < 0 disables automatic syncing entirely
	// (call Sync explicitly — for tools and tests).
	SyncInterval time.Duration
	// MaxRuns is the node's run-file count above which the spiller
	// follows a spill with a size-tiered merge. <= 0 selects the
	// default (8).
	MaxRuns int
	// ReadOnly recovers the directory without touching it: no WAL
	// segment is created, torn tails are not truncated, nothing is
	// spilled, compacted or removed, and writes fail with
	// ErrNodeReadOnly. For tools inspecting a (possibly crashed)
	// agent's directory.
	ReadOnly bool
	// CacheBytes sizes the node's block cache. Spilled and recovered
	// run files always keep only their per-series [min,max] span
	// headers and block indexes in memory; reads decode blocks through
	// the cache. > 0 bounds it with clock eviction; 0 leaves it
	// unbounded, so a decoded block stays (memory grows with what is
	// read, not with retention).
	CacheBytes int64
}

const defaultMaxRuns = 8

// OpenOptions attaches a fresh node to a data directory: the node's WAL
// segments (`wal-<seq>.log`) and immutable sorted run files
// (`run-<minSeq>-<maxSeq>.sst`), one sequence of them for the whole
// node. Recovery first reads the run files' indexes, leaving their
// blocks on disk — passing over any whose sequence span another file
// covers (the crash window of a compaction) — then replays the WAL
// segments in order, truncating a torn tail, so every write
// acknowledged before the crash is served again and no partial record
// ever is; a whole record this build cannot read fails the open
// instead, and so does a per-shard directory of an older build
// (errShardDirs). Nothing is created or removed until everything has
// recovered, so a refused open leaves the directory as it found it. On
// error the node is not usable and must be discarded.
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
	n.opts = o
	n.dir = dir
	n.cache = newBlockCache(o.CacheBytes)
	n.met.registerCacheMetrics(n.cache)
	// Recover everything before creating anything, so an open that
	// refuses a file leaves the directory as it found it. A missing
	// directory is empty. A failed open tears the node down: no
	// goroutine or file is leaked.
	fail := func(err error) error {
		n.Close()
		return err
	}
	if err := n.recoverRuns(); err != nil {
		return fail(err)
	}
	if err := n.replayWAL(); err != nil {
		return fail(err)
	}
	n.stopBG = make(chan struct{})
	if o.ReadOnly {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	w, err := createWAL(dir, n.seq.Load(), &n.met.wal)
	if err != nil {
		return fail(err)
	}
	n.wal.Store(w)
	n.sp = newSpiller(n)
	if o.SyncInterval > 0 {
		n.bgWG.Add(1)
		go n.syncLoop()
	}
	// A replayed WAL can leave the memtables over the flush budget;
	// spill them now that the background machinery is running.
	if err := n.flush(n.overBudget, false); err != nil {
		return fail(err)
	}
	return nil
}

// errShardDirs refuses a shard directory (`shard-NN/`), where older
// builds kept one run-file sequence, and before that one WAL, per
// memtable shard.
var errShardDirs = errors.New("holds the per-shard directories of an older build, which kept run files per memtable shard; " +
	"this build keeps one run-file sequence per node and does not read them: " +
	"export the readings with the build that wrote them (for an agent data directory: that build's dcdbquery -db DIR to CSV) " +
	"and load them into a fresh directory with this build's dcdbcsvimport; " +
	"see \"Upgrading per-shard run files\" in internal/store/README.md")

// checkSpan requires the span a run file's index states to be the one
// its name does.
func (m *runFileMeta) checkSpan(minSeq, maxSeq uint64) error {
	if minSeq != m.minSeq || maxSeq != m.maxSeq {
		return fmt.Errorf("store: %s: header span [%d,%d] contradicts name", m.path, minSeq, maxSeq)
	}
	return nil
}

// recoverRuns maps the node's run files, oldest to newest, applying
// each file's tombstones to the older files' rows. A file contributes
// only its index (per-series bounds and block index); its blocks stay
// on disk until a read pulls them through the cache. A run file of a
// format before v7 fails the open and is left as it is
// (errRunFileOld), and so does a shard directory (errShardDirs).
// Single threaded; no locks needed.
func (n *Node) recoverRuns() error {
	des, err := os.ReadDir(n.dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, de := range des {
		if isShard, _ := filepath.Match("shard-[0-9][0-9]", de.Name()); isShard && de.IsDir() {
			return fmt.Errorf("store: %s %w", filepath.Join(n.dir, de.Name()), errShardDirs)
		}
	}
	metas, err := scanRunFiles(n.dir, !n.opts.ReadOnly)
	if err != nil {
		return err
	}
	for mi := range metas {
		m := &metas[mi]
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
		n.files = append(n.files, *m) // released by the failed open's Close
		for _, se := range idx.series {
			sh := n.shardOf(se.id)
			sh.runs[se.id] = append(sh.runs[se.id], run{
				min: se.min, max: se.max, seq: m.maxSeq,
				cold: &coldRun{rf: m.rf, blocks: se.blocks, count: int(se.count)},
			})
			sh.flushedSize += int(se.count)
		}
		// Tombstones cover deletes issued while this file's memtable
		// was live; older files still hold the deleted rows.
		for id, cutoff := range m.tombs {
			n.shardOf(id).cutRunsLocked(id, cutoff, m.minSeq)
		}
		n.seq.Store(max(n.seq.Load(), m.maxSeq+1))
	}
	return nil
}

// replayWAL replays the node's WAL segments in order, each entry into
// its shard — per sensor, the order the writes were applied in. The
// next flush covers the replayed segments. Single threaded; no locks
// needed.
func (n *Node) replayWAL() error {
	segs, err := findWALSegments(n.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		ops, err := readLog(seg.path, "WAL segment", !n.opts.ReadOnly)
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
				n.shardOf(op.id).deleteLocked(op.id, op.cutoff, seg.seq, true)
				continue
			}
			for k := range op.entries {
				n.shardOf(op.entries[k].ID).appendLocked(op.entries[k : k+1])
			}
		}
		n.replayed = append(n.replayed, seg.path)
		n.seq.Store(max(n.seq.Load(), seg.seq+1))
	}
	for i := range n.shards {
		sh := &n.shards[i]
		sh.indexOK = len(sh.mem) == 0 && len(sh.runs) == 0
		n.memTotal.Add(int64(sh.memSize))
	}
	return nil
}
