// Package store implements DCDB's Storage Backend: a distributed
// wide-column time-series store standing in for the Apache Cassandra
// deployment of the paper (§3.1, §4.3). Monitoring data is streamed in
// bulk and retrieved for long time spans, so the design follows the
// LSM-style write path of wide-column stores: inserts land in a
// per-sensor memtable and are periodically flushed into immutable sorted
// runs (SSTables); queries merge the memtable with all runs. Data points
// are <sensor, timestamp, reading> tuples keyed by the 128-bit SID.
//
// A Cluster distributes rows across Nodes on a consistent-hash ring
// keyed on a SID prefix: a sub-tree of the sensor hierarchy maps to one
// replica set, so a sensor's readings are stored together with its
// siblings' and its queries are routed directly — the locality argument
// of §4.3. Replication provides redundancy.
//
// The memtable is lock-striped into shards keyed by SID hash so that
// concurrent inserts and queries for different sensors proceed without
// contention; the paper's sub-1% overhead claim (§4.2) depends on the
// ingest path scaling with cores rather than serializing on one lock.
package store

import (
	"errors"
	"fmt"
	"log"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fold"
)

// Backend is the storage interface the Collect Agent and libDCDB write
// to and query from. Node, Cluster and rpc.Client implement it, which
// is what lets the whole backend be swapped out (paper §5.1).
//
// There is one read path: QueryStream and QueryPrefixStream. Query is
// a drain of QueryStream (Drain) and returns exactly what the stream
// yields; a prefix read that wants a map drains its stream with
// DrainKeyed.
type Backend interface {
	// InsertBatch stores readings of one sensor. ttl of zero keeps
	// them forever.
	InsertBatch(id core.SensorID, rs []core.Reading, ttl time.Duration) error
	// QueryStream streams the readings of a sensor with from <= ts <=
	// to, in timestamp order, in bounded chunks pulled on demand, so
	// neither the store nor the caller ever materializes a long
	// retention's worth of readings. The stream must be closed (closing
	// early cancels it).
	QueryStream(id core.SensorID, from, to int64) (ReadingStream, error)
	// QueryPrefixStream streams the readings of every sensor whose SID
	// starts with the given prefix (depth levels): sensors arrive in
	// ascending SID order, each sensor's readings chunked in timestamp
	// order (a sensor may span consecutive chunks).
	QueryPrefixStream(prefix core.SensorID, depth int, from, to int64) (KeyedReadingStream, error)
	// Query is a drain of QueryStream.
	Query(id core.SensorID, from, to int64) ([]core.Reading, error)
	// Aggregate runs an analysis fold (internal/fold) over the sensor's
	// readings in the spec's range where the data lives and returns only
	// the finished state — the aggregation pushdown path. The state is
	// bit-identical to folding QueryStream client-side.
	Aggregate(id core.SensorID, spec fold.Spec) (fold.State, error)
	// DeleteBefore removes readings older than the cutoff for one
	// sensor (dcdbconfig's database-cleanup task).
	DeleteBefore(id core.SensorID, cutoff int64) error
	// Close releases resources.
	Close() error
}

// entry is one stored cell: timestamp, value, absolute expiry
// (0 = never), and the coordinator-assigned write version (0 = an
// unstamped write: InsertBatch, the tools). Query-time dedup
// resolves duplicate timestamps by highest version; equal versions fall
// back to newest-source-wins, so among unstamped writes the last one
// wins.
type entry struct {
	ts     int64
	val    float64
	expire int64
	ver    uint64
}

// memSeries is the in-memory write buffer of one sensor.
type memSeries struct {
	entries []entry
	sorted  bool
}

// run is one flushed sorted run of a sensor. min/max cache the run's
// timestamp bounds so a query window rejects a run by scanning the
// compact header array instead of dereferencing each run's entries.
// seq is the flush sequence that produced the run and ties it to the
// run file holding the same entries on durable nodes; per-sensor run
// lists are ordered by ascending seq (oldest first).
//
// A run is either hot (es resident, read in place) or cold (es nil,
// cold describing the run-file blocks holding the entries; reads go
// through the node's block cache). A run with a file is cold; hot are
// the runs of a memory-only node and flushed runs not yet spilled (or
// whose file could not be opened for reading). Only the [min,max]
// bounds and the per-block index stay resident for a cold run — that
// is the resident-set bound. A DeleteBefore raises a cold run's min: the file
// still holds the deleted rows, so readers start at min rather than at
// the first block (hot runs are resliced instead).
type run struct {
	es       []entry
	min, max int64
	seq      uint64
	cold     *coldRun
}

// coldRun is the resident description of an evicted run: the refcounted
// file handle and this series' slice of the block index.
type coldRun struct {
	rf     *runFile
	blocks []blockMeta
	count  int
}

// numShards is the lock-stripe count of a Node's memtable. A power of
// two so the shard selector is a mask; 16 stripes keep contention
// negligible up to typical server core counts without bloating small
// nodes.
const numShards = 16

// shard is one lock stripe of a Node: a slice of the memtable, its
// flushed runs, and a lazily maintained sorted SID index used by prefix
// queries.
type shard struct {
	mu      sync.RWMutex
	mem     map[core.SensorID]*memSeries
	memSize int

	// runs holds each sensor's flushed sorted runs (the SSTables of
	// the LSM design), oldest first. Keying runs by sensor — rather
	// than keeping per-flush tables each mapping every sensor — means
	// a query touches one map entry and then only its own sensor's
	// runs, so read cost does not degrade as flushes accumulate.
	runs        map[core.SensorID][]run
	flushedSize int

	// Lookaside for the write path: Pushers deliver readings in
	// per-sensor bursts, so consecutive inserts usually hit the same
	// series. Guarded by mu held exclusively.
	lastID core.SensorID
	last   *memSeries

	// index is the sorted list of SIDs present in mem or runs.
	// Rebuilt on demand when indexOK is false; the slice itself is
	// immutable once published, so readers may use it outside the
	// lock.
	index   []core.SensorID
	indexOK bool

	// Counters are striped per shard: a single node-wide counter
	// would put one contended cache line back into every insert.
	inserts int64        // guarded by mu (held exclusively on insert)
	queries atomic.Int64 // incremented under the shared read lock

	// disk is the cold durable state, kept behind one pointer so the
	// shard struct stays a fixed, cache-line-friendly size; see the
	// padding note below.
	disk *shardDisk

	// The fields above total 136 bytes; the pad keeps the struct at
	// exactly 192 bytes (three cache lines), so shards in the array
	// never false-share their hot mu/counter lines. Keep the total a
	// 64-byte multiple when adding fields (checked by
	// TestShardSizeCacheAligned).
	_ [56]byte
}

// shardDisk is a shard's durable bookkeeping. All fields are guarded
// by the shard's mu unless noted. Allocated for every shard (durable
// or not).
type shardDisk struct {
	dir    string                  // shard-<i> directory
	files  []runFileMeta           // durable run files, ordered by maxSeq
	tombs  map[core.SensorID]int64 // DeleteBefore cutoffs since the last flush
	delVer uint64                  // bumped by DeleteBefore; aborts in-flight merges
	cmu    sync.Mutex              // serialises compactions of this shard
}

// appendLocked adds entries to the memtable, each reading under its
// entry's stamp, and returns how many readings that was: the one
// memtable append, shared by the write path and WAL replay. Caller
// holds mu exclusively.
func (sh *shard) appendLocked(entries []WriteEntry) int {
	total := 0
	for k := range entries {
		e := &entries[k]
		if len(e.Readings) == 0 {
			continue
		}
		s := sh.seriesFor(e.ID)
		for _, r := range e.Readings {
			if s.sorted && len(s.entries) > 0 && r.Timestamp < s.entries[len(s.entries)-1].ts {
				s.sorted = false
			}
			s.entries = append(s.entries, entry{ts: r.Timestamp, val: r.Value, expire: e.Expire, ver: e.Version})
		}
		total += len(e.Readings)
	}
	sh.memSize += total
	return total
}

// seriesFor returns the memtable series of id, creating it on first
// sight, via the one-entry lookaside. Caller holds mu exclusively.
func (sh *shard) seriesFor(id core.SensorID) *memSeries {
	if sh.last != nil && sh.lastID == id {
		return sh.last
	}
	s, ok := sh.mem[id]
	if !ok {
		s = &memSeries{sorted: true}
		sh.mem[id] = s
		sh.indexOK = false
	}
	sh.lastID, sh.last = id, s
	return s
}

// Node is a single storage server. It is safe for concurrent use.
// A node is memory-only until Open points it at a data directory, after
// which every write is logged to the node's WAL before it is
// acknowledged, memtable flushes spill per-shard sorted run files, and
// a background goroutine compacts run files with size-tiered
// scheduling.
type Node struct {
	shards    [numShards]shard
	flushSize int
	down      atomic.Bool

	prefixQueries atomic.Int64

	// met is the node's self-monitoring registry and hot-path latency
	// samplers (metrics.go); always non-nil after NewNode.
	met *nodeMetrics

	// Durability plumbing; zero on memory-only nodes.
	dir    string
	opts   DiskOptions
	sp     *spiller
	stopBG chan struct{}
	bgWG   sync.WaitGroup
	closed atomic.Bool

	// wal is the active WAL segment (nil when there is none to write:
	// memory-only, read-only, closed or failed closed). It changes only
	// with every shard lock held. seq is the generation of the
	// memtables and of that segment; on a durable node only flush moves
	// it. flushMu serialises flushes; replayed lists the segments
	// recovery replayed into the memtables, which the next flush covers.
	// memTotal counts the entries since the last flush, all shards.
	wal      atomic.Pointer[wal]
	seq      atomic.Uint64
	flushMu  sync.Mutex
	replayed []string
	memTotal atomic.Int64

	// cache is the node-wide decoded-block cache, non-nil exactly on a
	// durable node: its run data stays on disk and reads decode only
	// the blocks they touch (DiskOptions.CacheBytes).
	cache *blockCache
}

// durable reports whether the node is backed by a data directory.
func (n *Node) durable() bool { return n.dir != "" }

// DefaultFlushSize is the node-wide number of memtable entries that
// triggers a flush into an SSTable.
const DefaultFlushSize = 1 << 16

// NewNode creates a storage node. flushSize <= 0 selects
// DefaultFlushSize. The budget is divided across the lock stripes so
// the node-wide memtable footprint stays what the caller configured.
func NewNode(flushSize int) *Node {
	if flushSize <= 0 {
		flushSize = DefaultFlushSize
	}
	perShard := flushSize / numShards
	if perShard < 1 {
		perShard = 1
	}
	n := &Node{flushSize: perShard}
	n.met = newNodeMetrics(n)
	for i := range n.shards {
		n.shards[i].mem = make(map[core.SensorID]*memSeries)
		n.shards[i].runs = make(map[core.SensorID][]run)
		n.shards[i].indexOK = true
		n.shards[i].disk = &shardDisk{}
	}
	return n
}

// shardIndex selects the lock stripe of a SID with a cheap avalanche
// mix, so sensors spread evenly even when SIDs share a hierarchical
// prefix.
func shardIndex(id core.SensorID) int {
	h := id.Lo*0x9e3779b97f4a7c15 ^ id.Hi
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h & (numShards - 1))
}

func (n *Node) shardOf(id core.SensorID) *shard { return &n.shards[shardIndex(id)] }

// SetDown marks the node unavailable; operations fail until revived.
// Used to exercise replication failover.
func (n *Node) SetDown(down bool) { n.down.Store(down) }

// ErrNodeDown is returned by operations on a node marked down.
var ErrNodeDown = fmt.Errorf("store: node is down")

// ErrNodeClosed is returned by reads and writes of a durable node after
// Close.
var ErrNodeClosed = fmt.Errorf("store: node is closed")

// ErrNodeReadOnly is returned by writes to a node opened read-only.
var ErrNodeReadOnly = fmt.Errorf("store: node is read-only")

// allShards is the lockShards mask of every shard.
const allShards = 1<<numShards - 1

// lockShards takes the locks of the shards in mask in index order, so
// writers of overlapping shard sets and the flush cannot deadlock.
func (n *Node) lockShards(mask uint32) {
	for m := mask; m != 0; m &= m - 1 {
		n.shards[bits.TrailingZeros32(m)].mu.Lock()
	}
}

func (n *Node) unlockShards(mask uint32) {
	for m := mask; m != 0; m &= m - 1 {
		n.shards[bits.TrailingZeros32(m)].mu.Unlock()
	}
}

// lockAndLog takes the locks of the shards in mask and, on a durable
// node, logs one record through logf under them: per sensor the WAL
// order is then the apply order, which last-wins dedup needs. It
// returns with the locks held and the segment and position the record's
// fsync is owed on (nil on a memory-only node); on an error, with none
// held. A broken segment is first retired by a flush, which spills the
// memtables holding its records, and the record logged in its
// successor.
func (n *Node) lockAndLog(mask uint32, logf func(*wal) (uint64, error)) (*wal, uint64, error) {
	if !n.durable() {
		n.lockShards(mask)
		return nil, 0, nil
	}
	for {
		n.lockShards(mask)
		w, err := n.wal.Load(), ErrNodeReadOnly
		switch {
		case n.opts.ReadOnly:
		case w == nil:
			err = ErrNodeClosed
		default:
			var pos uint64
			if pos, err = logf(w); err == nil {
				return w, pos, nil
			}
		}
		n.unlockShards(mask)
		if !errors.Is(err, errWALBroken) {
			return nil, 0, err
		}
		if err := n.flush(func(active *wal) bool {
			if active == w { // not yet replaced by another writer
				log.Printf("store: replacing the broken WAL segment %s", w.path)
			}
			return active == w
		}, false); err != nil {
			return nil, 0, err
		}
	}
}

// syncOwed makes the record at pos in w durable before its write is
// acknowledged, in sync-every mode.
func (n *Node) syncOwed(w *wal, pos uint64) error {
	if w == nil || n.opts.SyncInterval != 0 {
		return nil
	}
	return w.syncTo(pos)
}

// InsertBatch implements Backend: WriteFrame of one unstamped entry —
// version 0, the TTL read once as an absolute expiry.
func (n *Node) InsertBatch(id core.SensorID, rs []core.Reading, ttl time.Duration) error {
	if len(rs) == 0 {
		return nil
	}
	// Set field by field: a composite literal is built in a temporary
	// and copied, which costs a one-reading write several ns.
	var e [1]WriteEntry
	e[0].ID, e[0].Expire, e[0].Readings = id, TTLToExpire(ttl), rs
	return n.write(e[:])
}

// InsertVersioned stores versioned readings of one sensor — the
// NodeBackend form of a write, which hint replay, anti-entropy repair
// and the rebalance stream use to re-deliver readings under the stamps
// they were coordinated with. It is WriteFrame of one entry per run of
// equal stamps, which costs what one batch does: one lock hold and one
// WAL record.
func (n *Node) InsertVersioned(id core.SensorID, vrs []VersionedReading) error {
	return n.WriteFrame(SplitStamps(id, vrs))
}

// WriteFrame implements FrameWriter: the node's one write path, which
// InsertBatch and InsertVersioned are frames of. A frame is one
// lock hold of the shards it touches and one WAL record, so a frame of
// many one-reading entries costs a node what one batch does, and one
// group-committed fsync in sync-every mode. It succeeds or fails whole.
func (n *Node) WriteFrame(entries []WriteEntry) error {
	if len(entries) == 0 {
		return nil
	}
	return n.write(entries)
}

// write applies a frame's entries, frame order kept, after logging them
// as one type-4 record, cut only where it would exceed the replay-side
// bound (walMaxRecord). On an error nothing was applied to the
// memtable: the write is not acknowledged (its record may replay after
// a crash, like any unacknowledged write in flight).
//
// In sync-every mode the entries are applied before their fsync, which
// runs outside every lock so concurrent writers group-commit into one;
// the write returns only once it succeeded. A sync failure leaves the
// entries in the memtable unacknowledged, with the same
// may-replay-after-crash status. A write that brings the memtables to
// the flush budget flushes the node.
func (n *Node) write(entries []WriteEntry) error {
	if n.down.Load() {
		return ErrNodeDown
	}
	lead := shardIndex(entries[0].ID)
	start := n.met.insertStart(lead)
	mask := uint32(1) << lead
	for k := 1; k < len(entries); k++ {
		mask |= 1 << shardIndex(entries[k].ID)
	}
	w, pos, err := n.lockAndLog(mask, func(w *wal) (uint64, error) { return w.appendEntries(entries) })
	if err != nil {
		return err
	}
	var full bool
	if mask&(mask-1) == 0 {
		full = n.applyLocked(lead, entries)
	} else {
		for k := 0; k < len(entries); {
			// One memtable append per run of entries of one shard.
			i, end := shardIndex(entries[k].ID), k+1
			for end < len(entries) && shardIndex(entries[end].ID) == i {
				end++
			}
			full = n.applyLocked(i, entries[k:end]) || full
			k = end
		}
	}
	n.unlockShards(mask)
	var ferr error
	if full {
		ferr = n.flush(n.overBudget, false)
	}
	if err := n.syncOwed(w, pos); err != nil {
		return err
	}
	n.met.insertDone(lead, start)
	return ferr
}

// applyLocked appends entries, all of shard i, to its memtable and
// reports whether that brought a durable node's memtables, all shards
// together, to the flush budget: the node then flushes as a whole. A
// memory-only node has no WAL generation to share: a shard at its
// stripe of the budget flushes alone, here.
func (n *Node) applyLocked(i int, entries []WriteEntry) bool {
	sh := &n.shards[i]
	total := sh.appendLocked(entries)
	sh.inserts += int64(total)
	n.met.armTick(i, sh.inserts-int64(total), sh.inserts)
	if n.durable() {
		return n.memTotal.Add(int64(total)) >= int64(n.flushSize*numShards)
	}
	if sh.memSize >= n.flushSize {
		sh.flushLocked(n.seq.Add(1)-1, false)
	}
	return false
}

// overBudget reports whether the memtables took the flush budget's
// entries since the last flush.
func (n *Node) overBudget(*wal) bool {
	return n.memTotal.Load() >= int64(n.flushSize*numShards)
}

// Flush forces every memtable into a sorted run, one generation for
// the whole node, spilled to run files in the background on a durable
// node; the error reports a WAL segment that could not be created.
func (n *Node) Flush() error { return n.flush(nil, false) }

// flush moves every shard's memtable into an immutable in-memory run of
// the current generation (immediately queryable) if due (nil: always)
// says so under flushMu. On a writable durable node the generation's
// WAL segment retires with it, replaced — unless the node is closing —
// by a fresh one created before any shard lock is taken. The spiller
// closes the retired segment (its fsync off every lock and off the
// writer that flushed), writes the generation's run files and then
// deletes it and the segments replayed into these memtables. The flush
// waits for room in the spill queue before it rotates, and queues the
// retired segment before it leaves n.wal, so Sync always finds it.
func (n *Node) flush(due func(active *wal) bool, closing bool) error {
	n.flushMu.Lock()
	defer n.flushMu.Unlock()
	old := n.wal.Load()
	if due != nil && !due(old) {
		return nil
	}
	var next *wal
	if old != nil {
		if !n.sp.waitRoom() {
			return ErrNodeClosed
		}
		if !closing {
			var err error
			if next, err = createWAL(n.dir, n.seq.Load()+1, &n.met.wal); err != nil {
				// Fail closed: every later write is refused, not
				// buffered into a retired file. Nothing is spilled, so
				// the memtables stay recoverable from the segments.
				n.lockShards(allShards)
				n.wal.Store(nil)
				n.unlockShards(allShards)
				old.close() // best effort; the synced prefix is on disk
				return err
			}
		}
	}
	n.lockShards(allShards)
	defer n.unlockShards(allShards)
	job := &spillJob{seq: n.seq.Add(1) - 1}
	for i := range n.shards {
		job.series[i], job.tombs[i] = n.shards[i].flushLocked(job.seq, old != nil)
	}
	n.memTotal.Store(0)
	if old == nil {
		return nil // no WAL: the in-memory runs are all there is
	}
	job.retired, job.covered = old, append(n.replayed, old.path)
	n.replayed = nil
	n.sp.push(job)
	n.wal.Store(next)
	return nil
}

// flushLocked moves the shard's memtable into runs of generation seq
// and, with spill set, returns what its run file holds. Caller holds mu
// exclusively.
func (sh *shard) flushLocked(seq uint64, spill bool) (series map[core.SensorID][]entry, tombs map[core.SensorID]int64) {
	if spill {
		tombs, sh.disk.tombs = sh.disk.tombs, nil
	}
	if sh.memSize == 0 {
		return nil, tombs
	}
	if spill {
		series = make(map[core.SensorID][]entry, len(sh.mem))
	}
	for id, s := range sh.mem {
		if len(s.entries) == 0 {
			continue
		}
		es := s.entries
		if !s.sorted {
			// Stable: duplicate timestamps must keep insertion order
			// so query-time dedup's last-wins picks the newest write.
			sort.SliceStable(es, func(i, j int) bool { return es[i].ts < es[j].ts })
		}
		sh.runs[id] = append(sh.runs[id], run{es: es, min: es[0].ts, max: es[len(es)-1].ts, seq: seq})
		if spill {
			series[id] = es
		}
		// The series object stays in the memtable with a fresh
		// buffer of the same capacity: the SID set is unchanged
		// (no index invalidation) and steady-state ingest never
		// pays slice-growth copies again.
		s.entries = make([]entry, 0, cap(es))
		s.sorted = true
	}
	sh.flushedSize += sh.memSize
	sh.memSize = 0
	return series, tombs
}

// snapshotIndex returns the shard's sorted SID list, rebuilding it if
// stale. The returned slice is immutable.
func (sh *shard) snapshotIndex() []core.SensorID {
	sh.mu.RLock()
	if sh.indexOK {
		idx := sh.index
		sh.mu.RUnlock()
		return idx
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	if !sh.indexOK {
		set := make(map[core.SensorID]struct{}, len(sh.mem)+len(sh.runs))
		for id := range sh.mem {
			set[id] = struct{}{}
		}
		for id := range sh.runs {
			set[id] = struct{}{}
		}
		idx := make([]core.SensorID, 0, len(set))
		for id := range set {
			idx = append(idx, id)
		}
		sort.Slice(idx, func(i, j int) bool { return idx[i].Compare(idx[j]) < 0 })
		sh.index = idx
		sh.indexOK = true
	}
	idx := sh.index
	sh.mu.Unlock()
	return idx
}

// prefixRange returns the half-open SID interval covering every sensor
// in the subtree, and whether the interval is bounded above (an
// all-ones prefix extends to the end of the keyspace).
func prefixRange(prefix core.SensorID, depth int) (lo, hi core.SensorID, bounded bool) {
	if depth >= core.MaxTopicLevels {
		depth = core.MaxTopicLevels
	}
	bits := uint(16 * (core.MaxTopicLevels - depth)) // 0..128
	var incHi, incLo uint64
	switch {
	case bits >= 128:
		return prefix, core.SensorID{}, false // whole keyspace
	case bits >= 64:
		incHi = 1 << (bits - 64)
	default:
		incLo = 1 << bits
	}
	hi.Lo = prefix.Lo + incLo
	carry := uint64(0)
	if hi.Lo < prefix.Lo {
		carry = 1
	}
	hi.Hi = prefix.Hi + incHi + carry
	// A wrapped 128-bit sum compares <= prefix: the subtree runs to
	// the end of the keyspace.
	if hi.Compare(prefix) <= 0 {
		return prefix, core.SensorID{}, false
	}
	return prefix, hi, true
}

// DeleteBefore implements Backend. On durable nodes the delete is
// WAL-logged and recorded as a tombstone carried by the next run file,
// so it survives a crash even though older run files still hold the
// deleted rows (recovery re-applies tombstones to older files).
func (n *Node) DeleteBefore(id core.SensorID, cutoff int64) error {
	if n.down.Load() {
		return ErrNodeDown
	}
	i := shardIndex(id)
	sh := &n.shards[i]
	w, pos, err := n.lockAndLog(1<<i, func(w *wal) (uint64, error) {
		var rec [25]byte
		return w.append(encodeWALDelete(rec[:], id, cutoff))
	})
	if err != nil {
		return err
	}
	sh.deleteLocked(id, cutoff, ^uint64(0), w != nil)
	sh.mu.Unlock()
	// Synced outside the lock, group-committed like a write.
	return n.syncOwed(w, pos)
}

// deleteLocked drops the readings of id older than cutoff from the
// memtable and from the runs older than beforeSeq and, with tomb set,
// records the tombstone the shard's next run file carries. It aborts
// in-flight copy-aside compactions, whose input snapshot predates it.
// Caller holds mu exclusively.
func (sh *shard) deleteLocked(id core.SensorID, cutoff int64, beforeSeq uint64, tomb bool) {
	if tomb {
		if sh.disk.tombs == nil {
			sh.disk.tombs = make(map[core.SensorID]int64)
		}
		sh.disk.tombs[id] = max(sh.disk.tombs[id], cutoff)
	}
	sh.disk.delVer++
	sh.cutMemLocked(id, cutoff)
	sh.cutRunsLocked(id, cutoff, beforeSeq)
}

// cutMemLocked drops memtable entries of id older than cutoff. Caller
// holds mu exclusively.
func (sh *shard) cutMemLocked(id core.SensorID, cutoff int64) {
	s, ok := sh.mem[id]
	if !ok {
		return
	}
	kept := s.entries[:0]
	for _, e := range s.entries {
		if e.ts >= cutoff {
			kept = append(kept, e)
		}
	}
	sh.memSize -= len(s.entries) - len(kept)
	s.entries = kept
}

// cutRunsLocked drops entries of id older than cutoff from runs with
// seq < beforeSeq (recovery applies a tombstone only to runs that
// predate it; live deletes pass the maximum). Caller holds mu
// exclusively.
func (sh *shard) cutRunsLocked(id core.SensorID, cutoff int64, beforeSeq uint64) {
	rs, ok := sh.runs[id]
	if !ok {
		return
	}
	kept := rs[:0]
	for _, r := range rs {
		if r.seq >= beforeSeq {
			kept = append(kept, r)
			continue
		}
		if r.cold != nil {
			// The file keeps the deleted rows; drop wholly-covered
			// blocks from the resident index and raise min to the
			// cutoff so readers skip the straddling block's older
			// entries.
			bs := r.cold.blocks
			lo := sort.Search(len(bs), func(i int) bool { return bs[i].max >= cutoff })
			if lo == len(bs) {
				sh.flushedSize -= r.cold.count
				continue // every block deleted: the run disappears
			}
			if lo > 0 || cutoff > r.min {
				dropped := 0
				for _, m := range bs[:lo] {
					dropped += int(m.count)
				}
				sh.flushedSize -= dropped
				nc := &coldRun{rf: r.cold.rf, blocks: bs[lo:], count: r.cold.count - dropped}
				r = run{min: max(r.min, cutoff), max: r.max, seq: r.seq, cold: nc}
			}
			kept = append(kept, r)
			continue
		}
		// Hot runs are sorted: everything before the cutoff is a
		// prefix, dropped by reslicing without copying.
		lo := sort.Search(len(r.es), func(i int) bool { return r.es[i].ts >= cutoff })
		sh.flushedSize -= lo
		if lo < len(r.es) {
			es := r.es[lo:]
			kept = append(kept, run{es: es, min: es[0].ts, max: r.max, seq: r.seq})
		}
	}
	if len(kept) == 0 {
		delete(sh.runs, id)
		sh.indexOK = false
	} else {
		sh.runs[id] = kept
	}
}

// Compact merges each sensor's flushed runs into one and drops expired
// entries. It corresponds to the compaction task of dcdbconfig (paper
// §5.2). On durable nodes this is a full copy-aside merge of every run
// file (queries and ingest proceed while the merged file is written);
// incremental size-tiered merges additionally run continuously in the
// background without being asked.
func (n *Node) Compact() {
	if n.durable() && n.opts.ReadOnly {
		// A read-only node must not rewrite files.
		return
	}
	if n.durable() {
		// Wait for pending spills so the full window covers every
		// flushed run; runs created by flushes racing past this point
		// keep their own files and are picked up by the next merge.
		n.sp.waitIdle()
		for i := range n.shards {
			sh := &n.shards[i]
			sh.disk.cmu.Lock()
			n.compactWindow(i, true)
			sh.disk.cmu.Unlock()
			n.retireIdleSeries(sh)
		}
		return
	}
	now := time.Now().UnixNano()
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		if len(sh.runs) == 0 {
			sh.mu.Unlock()
			n.retireIdleSeries(sh)
			continue
		}
		for id, rs := range sh.runs {
			total := 0
			for _, r := range rs {
				total += len(r.es)
			}
			merged := make([]entry, 0, total)
			_ = mergeWindowRuns(rs, now, func(e entry) error { // resident runs cannot fail a read
				merged = append(merged, e)
				return nil
			})
			sh.flushedSize += len(merged) - total
			if len(merged) == 0 {
				delete(sh.runs, id)
			} else {
				sh.runs[id] = []run{{es: merged, min: merged[0].ts, max: merged[len(merged)-1].ts, seq: rs[len(rs)-1].seq}}
			}
		}
		sh.indexOK = false // expired-only sensors disappear
		sh.mu.Unlock()
		n.retireIdleSeries(sh)
	}
}

// retireIdleSeries drops memtable series with no buffered entries.
// Flush keeps series objects in the memtable to reuse their buffers;
// compaction is where idle ones are retired, so expired-only sensors
// really disappear and dead sensors stop pinning capacity.
func (n *Node) retireIdleSeries(sh *shard) {
	sh.mu.Lock()
	for id, s := range sh.mem {
		if len(s.entries) == 0 {
			delete(sh.mem, id)
			sh.indexOK = false
		}
	}
	sh.lastID, sh.last = core.SensorID{}, nil
	sh.mu.Unlock()
}

// Stats reports cumulative insert/query counts and the resident entry
// count.
func (n *Node) Stats() (inserts, queries int64, entries int) {
	queries = n.prefixQueries.Load()
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.RLock()
		entries += sh.memSize + sh.flushedSize
		inserts += sh.inserts
		sh.mu.RUnlock()
		queries += sh.queries.Load()
	}
	return inserts, queries, entries
}

// SensorIDs lists every SID present on the node.
func (n *Node) SensorIDs() []core.SensorID {
	var out []core.SensorID
	for i := range n.shards {
		out = append(out, n.shards[i].snapshotIndex()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Close implements Backend. On durable nodes it stops the background
// compactor and WAL syncer and flushes the memtables with the active
// WAL segment, adding none, then waits for every spill: a clean close
// leaves no WAL behind. Further reads and writes return ErrNodeClosed.
// Memory-only nodes close trivially.
func (n *Node) Close() error {
	if !n.durable() {
		return nil
	}
	if n.closed.Swap(true) {
		return nil
	}
	// stopBG is nil when Open failed during recovery; nothing runs.
	if n.stopBG != nil {
		close(n.stopBG)
		n.bgWG.Wait()
	}
	var firstErr error
	if n.sp != nil {
		firstErr = n.flush(nil, true)
		if err := n.sp.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	n.releaseRunFiles()
	return firstErr
}

// releaseRunFiles drops the owning reference of every cold run-file
// handle. In-flight streams holding their own references keep reading
// until they close; no new reads start — the node is closed.
func (n *Node) releaseRunFiles() {
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		for fi := range sh.disk.files {
			if rf := sh.disk.files[fi].rf; rf != nil {
				sh.disk.files[fi].rf = nil
				rf.release()
			}
		}
		sh.mu.Unlock()
	}
}

// Sync forces the WAL to disk — the active segment and the retired ones
// the spiller has yet to close — making all writes accepted so far
// durable regardless of the configured SyncInterval.
func (n *Node) Sync() error {
	if n.sp == nil {
		return nil // memory-only or read-only: no WAL
	}
	// n.wal first: a flush queues a segment before it leaves n.wal.
	w := n.wal.Load()
	ws := n.sp.retiring()
	if w != nil {
		ws = append(ws, w)
	}
	var firstErr error
	for _, w := range ws {
		if err := w.sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
