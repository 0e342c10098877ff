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
	"fmt"
	"log"
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
// There is one read path: QueryStream and QueryPrefixStream. Query and
// QueryPrefix are a drain of the corresponding stream (Drain,
// DrainKeyed) and return exactly what the stream yields.
type Backend interface {
	// Insert stores one reading for the sensor. ttl of zero keeps the
	// reading forever.
	Insert(id core.SensorID, r core.Reading, ttl time.Duration) error
	// InsertBatch stores several readings of one sensor at once.
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
	// QueryPrefix is a drain of QueryPrefixStream, keyed by SID.
	QueryPrefix(prefix core.SensorID, depth int, from, to int64) (map[core.SensorID][]core.Reading, error)
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
// unstamped write: Insert, InsertBatch, the tools). Query-time dedup
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
// through the node's block cache). Only the [min,max] bounds and the
// per-block index stay resident for a cold run — that is the
// resident-set bound. A DeleteBefore raises a cold run's min: the file
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
// or not) so flush sequence numbering is uniform.
type shardDisk struct {
	dir     string                  // shard-<i> directory
	nextSeq uint64                  // next flush/WAL sequence number
	wal     *wal                    // active WAL segment (nil once closed)
	files   []runFileMeta           // durable run files, ordered by maxSeq
	memSegs []string                // replayed segments whose data sits in the memtable
	tombs   map[core.SensorID]int64 // DeleteBefore cutoffs since the last flush
	walBuf  []byte                  // WAL record scratch, reused under mu
	delVer  uint64                  // bumped by DeleteBefore; aborts in-flight merges
	cmu     sync.Mutex              // serialises compactions of this shard
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
// which every write is logged to a per-shard WAL before it is
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

	// cache is the node-wide decoded-block cache; non-nil exactly when
	// the node runs with a resident-set bound (DiskOptions.CacheBytes >
	// 0), in which case run data is evictable and cold reads decode
	// only the blocks a query touches.
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

// ErrNodeClosed is returned by writes to a durable node after Close.
var ErrNodeClosed = fmt.Errorf("store: node is closed")

// ErrNodeReadOnly is returned by writes to a node opened read-only.
var ErrNodeReadOnly = fmt.Errorf("store: node is read-only")

// walPend is a sync-every write's durability obligation: the WAL
// segment and record position that must be fsynced (via syncTo's group
// commit) before the write is acknowledged. Zero when no sync is owed
// (memory-only node or batched sync mode).
type walPend struct {
	w   *wal
	pos uint64
}

// walReady returns shard i's active WAL segment, ready to take an
// append: nil (and no error) on memory-only nodes. Caller holds sh.mu
// exclusively.
func (n *Node) walReady(i int) (*wal, error) {
	sh := &n.shards[i]
	if !n.durable() {
		return nil, nil
	}
	if n.opts.ReadOnly {
		return nil, ErrNodeReadOnly
	}
	if sh.disk.wal == nil {
		return nil, ErrNodeClosed
	}
	if sh.disk.wal.isBroken() {
		// Self-heal after a transient write/fsync failure: every
		// record applied from the broken segment is still in the
		// memtable, so parking the segment with the memtable's other
		// source segments (the next flush's run file covers them, and
		// until then recovery replays them) lets a fresh segment take
		// over instead of wedging the shard until restart.
		if err := n.rotateBrokenWALLocked(i); err != nil {
			return nil, err
		}
		log.Printf("store: shard %d rotated a broken WAL segment", i)
	}
	return sh.disk.wal, nil
}

// owed is the durability obligation of a record appended to w at pos:
// the record itself in sync-every mode, nothing in batched sync mode.
func (n *Node) owed(w *wal, pos uint64) walPend {
	if n.opts.SyncInterval == 0 {
		return walPend{w: w, pos: pos}
	}
	return walPend{}
}

// rotateBrokenWALLocked retires the active (broken) segment into the
// memtable's covered-segment set and opens a fresh one. Caller holds
// the shard's mu exclusively.
func (n *Node) rotateBrokenWALLocked(i int) error {
	sh := &n.shards[i]
	sh.disk.memSegs = append(sh.disk.memSegs, sh.disk.wal.path)
	sh.disk.wal.close() // best effort; the synced prefix is already on disk
	// The replacement gets a fresh sequence so its name cannot collide
	// with the broken file, which stays behind until a flush's run
	// file covers it; recovery replays both in sequence order.
	sh.disk.nextSeq++
	nw, err := createWAL(sh.disk.dir, sh.disk.nextSeq)
	if err != nil {
		sh.disk.wal = nil // fail closed; writes reject until reopen
		return err
	}
	nw.met = &n.met.wal
	sh.disk.wal = nw
	return nil
}

// Insert implements Backend: InsertBatch of one reading.
func (n *Node) Insert(id core.SensorID, r core.Reading, ttl time.Duration) error {
	rs := [1]core.Reading{r}
	return n.InsertBatch(id, rs[:], ttl)
}

// InsertBatch implements Backend: WriteFrame of one unstamped entry —
// version 0, the TTL read once as an absolute expiry.
func (n *Node) InsertBatch(id core.SensorID, rs []core.Reading, ttl time.Duration) error {
	if len(rs) == 0 {
		return nil
	}
	if n.down.Load() {
		return ErrNodeDown
	}
	// Set field by field: a composite literal is built in a temporary
	// and copied, which costs the one-reading Insert several ns.
	var e [1]WriteEntry
	e[0].ID, e[0].Expire, e[0].Readings = id, TTLToExpire(ttl), rs
	return n.writeShard(shardIndex(id), e[:])
}

// InsertVersioned stores versioned readings of one sensor — the
// NodeBackend form of a write, which hint replay, anti-entropy repair
// and the rebalance stream use to re-deliver readings under the stamps
// they were coordinated with. It is WriteFrame of one entry per run of
// equal stamps, which costs what one batch does: one lock hold and one
// WAL record.
func (n *Node) InsertVersioned(id core.SensorID, vrs []VersionedReading) error {
	return firstError(n.WriteFrame(SplitStamps(id, vrs)))
}

// WriteFrame implements FrameWriter: the node's one write path, which
// Insert, InsertBatch and InsertVersioned are frames of. The entries are
// grouped by shard and each shard the frame touches is written under
// one lock hold with one WAL record, so a frame of many one-reading
// entries costs a node what one batch does. A shard that fails fails
// its own entries only.
func (n *Node) WriteFrame(entries []WriteEntry) []error {
	if len(entries) == 0 {
		return nil
	}
	if n.down.Load() {
		return failAll(len(entries), ErrNodeDown)
	}
	// One entry, or one sensor's repair batch: a single shard, nothing
	// to group.
	first, one := shardIndex(entries[0].ID), true
	for k := 1; k < len(entries) && one; k++ {
		one = entries[k].ID == entries[k-1].ID || shardIndex(entries[k].ID) == first
	}
	if one {
		if err := n.writeShard(first, entries); err != nil {
			return failAll(len(entries), err)
		}
		return nil
	}
	// Group by shard, frame order kept within each: a shard's entries
	// become one slice, and a sensor's stay in the order they came.
	shardOf := make([]uint8, len(entries))
	var start [numShards + 1]int
	for k := range entries {
		i := shardIndex(entries[k].ID)
		shardOf[k] = uint8(i)
		start[i+1]++
	}
	for i := 1; i <= numShards; i++ {
		start[i] += start[i-1]
	}
	grouped := make([]WriteEntry, len(entries))
	next := start
	for k, i := range shardOf {
		grouped[next[i]] = entries[k]
		next[i]++
	}
	var errs []error
	for i := 0; i < numShards; i++ {
		if start[i] == start[i+1] {
			continue
		}
		if err := n.writeShard(i, grouped[start[i]:start[i+1]]); err != nil {
			if errs == nil {
				errs = make([]error, len(entries))
			}
			for k := range entries {
				if int(shardOf[k]) == i {
					errs[k] = err
				}
			}
		}
	}
	return errs
}

// failAll is WriteFrame's answer when every one of n entries failed
// the same way.
func failAll(n int, err error) []error {
	errs := make([]error, n)
	for k := range errs {
		errs[k] = err
	}
	return errs
}

// writeShard applies entries, all of shard i, under one lock hold and
// one WAL append: one type-4 record, cut only where it would exceed
// the replay-side bound (walMaxRecord), which would refuse it at
// recovery. On an error nothing was applied to the memtable: the
// write is not acknowledged (its records may replay after a crash, like
// any unacknowledged write in flight).
//
// In sync-every mode the entries are applied before their fsync, which
// runs outside the shard lock so concurrent writers group-commit into
// one; the write returns only once it succeeded. A sync failure leaves
// the entries in the memtable unacknowledged, with the same
// may-replay-after-crash status.
func (n *Node) writeShard(i int, entries []WriteEntry) error {
	start := n.met.insertStart(i)
	sh := &n.shards[i]
	sh.mu.Lock()
	w, err := n.walReady(i)
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	var pend walPend
	if w != nil {
		var records int
		sh.disk.walBuf, records = appendWALInserts(sh.disk.walBuf[:0], entries)
		pos, err := w.write(records, sh.disk.walBuf)
		if err != nil {
			sh.mu.Unlock()
			return err
		}
		pend = n.owed(w, pos)
	}
	total := sh.appendLocked(entries)
	sh.inserts += int64(total)
	n.met.armTick(i, sh.inserts-int64(total), sh.inserts)
	var ferr error
	if sh.memSize >= n.flushSize {
		ferr = n.flushShardLocked(i)
	}
	sh.mu.Unlock()
	if pend.w != nil {
		if serr := pend.w.syncTo(pend.pos); serr != nil {
			return serr
		}
	}
	n.met.insertDone(i, start)
	return ferr
}

// Flush forces every shard's memtable into a sorted run. On durable
// nodes the runs are additionally spilled to per-shard run files in the
// background; the error reports WAL-rotation failures.
func (n *Node) Flush() error {
	var firstErr error
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		if err := n.flushShardLocked(i); err != nil && firstErr == nil {
			firstErr = err
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// Spill flushes a durable node and waits until the spiller has written
// every run to its file, so a bulk load (tooldb's Save) that spills as
// it writes holds no more than it wrote in between. On a memory-only
// node it does nothing.
func (n *Node) Spill() error {
	if n.sp == nil {
		return nil
	}
	err := n.Flush()
	n.sp.waitIdle()
	return err
}

// flushShardLocked moves shard i's memtable into an immutable in-memory
// run (immediately queryable) and, on durable nodes, hands the same
// entry slices to the background spiller for the run file write while
// rotating the WAL, so ingest never waits on the run file. It does wait
// on the retired segment's fsync, which wal.close does under sh.mu. The
// closed WAL segment — together with any segments replayed into this
// memtable at Open — is deleted only once the spilled run file is
// durable. Caller holds sh.mu exclusively.
func (n *Node) flushShardLocked(i int) error {
	sh := &n.shards[i]
	if sh.memSize == 0 {
		return nil
	}
	seq := sh.disk.nextSeq
	sh.disk.nextSeq++
	var spillSeries map[core.SensorID][]entry
	if n.durable() {
		spillSeries = make(map[core.SensorID][]entry, len(sh.mem))
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
		if spillSeries != nil {
			spillSeries[id] = es
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
	if !n.durable() || sh.disk.wal == nil {
		// Memory-only, read-only, or already closed: the in-memory
		// run is all there is to do.
		return nil
	}
	// Rotate the WAL: the closed segment plus any replayed segments
	// cover exactly the data this flush spilled.
	covered := append(sh.disk.memSegs, sh.disk.wal.path)
	sh.disk.memSegs = nil
	cerr := sh.disk.wal.close()
	nw, err := createWAL(sh.disk.dir, sh.disk.nextSeq)
	if err != nil {
		// Fail the shard closed: with no segment to log to, further
		// durable writes must be rejected (walReady checks for a
		// nil wal), not silently buffered into the closed file. No
		// spill was enqueued, so the covered segments are never
		// deleted and this flush stays recoverable from the WAL.
		sh.disk.wal = nil
		return err
	}
	nw.met = &n.met.wal
	sh.disk.wal = nw
	tombs := sh.disk.tombs
	sh.disk.tombs = nil
	n.sp.enqueue(spillJob{shard: i, seq: seq, series: spillSeries, tombs: tombs, covered: covered})
	return cerr
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
	sh.mu.Lock()
	w, err := n.walReady(i)
	var pos uint64
	if w != nil {
		sh.disk.walBuf = encodeWALDelete(sh.disk.walBuf, id, cutoff)
		pos, err = w.append(sh.disk.walBuf)
	}
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	if w != nil {
		if sh.disk.tombs == nil {
			sh.disk.tombs = make(map[core.SensorID]int64)
		}
		if cutoff > sh.disk.tombs[id] {
			sh.disk.tombs[id] = cutoff
		}
	}
	// Invalidate in-flight copy-aside compactions: their input
	// snapshot predates this delete.
	sh.disk.delVer++
	sh.cutMemLocked(id, cutoff)
	sh.cutRunsLocked(id, cutoff, ^uint64(0))
	sh.mu.Unlock()
	// Synced outside the lock, group-committed like a write.
	if pend := n.owed(w, pos); pend.w != nil {
		return pend.w.syncTo(pend.pos)
	}
	return nil
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
		// A read-only node must not rewrite files — and its cold runs
		// have no resident entries to merge in memory either.
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
// compactor and WAL syncer, flushes the memtable, waits for every
// spill to reach disk, and closes the WAL segments; further writes
// return ErrNodeClosed. Memory-only nodes close trivially.
func (n *Node) Close() error {
	if !n.durable() {
		return nil
	}
	if n.closed.Swap(true) {
		return nil
	}
	// stopBG is nil when Open failed during shard recovery; there is
	// nothing running, but the WALs opened so far still need closing.
	if n.stopBG != nil {
		close(n.stopBG)
		n.bgWG.Wait()
	}
	if n.opts.ReadOnly {
		n.releaseRunFiles()
		return nil // nothing on disk to settle, and no WALs to close
	}
	var firstErr error
	if n.sp != nil {
		firstErr = n.Flush()
		if err := n.sp.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		w := sh.disk.wal
		sh.disk.wal = nil
		sh.mu.Unlock()
		if w != nil {
			if err := w.close(); err != nil && firstErr == nil {
				firstErr = err
			}
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

// Sync forces every shard's WAL to disk, making all writes accepted so
// far durable regardless of the configured SyncInterval.
func (n *Node) Sync() error {
	if !n.durable() {
		return nil
	}
	var firstErr error
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.RLock()
		w := sh.disk.wal
		sh.mu.RUnlock()
		if w == nil {
			continue
		}
		if err := w.sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
