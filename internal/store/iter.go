package store

import (
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/metrics"
)

// The node's read path, and there is one: each source of a sensor's
// entries — the memtable, a hot (resident) run, a cold (evicted,
// file-backed) run — is wrapped in an iterator, a k-way merge pulls from
// them in timestamp order, winners resolves duplicates, and nodeStream
// hands the result out in bounded chunks, so the memory a read holds is
// O(one chunk + one block per cold source + the memtable window), not
// O(result). Query is a Drain of the stream; the RPC
// server forwards the same chunks frame by frame.

// iterator yields one series' entries in timestamp order.
type iterator interface {
	next() (entry, bool)
	// close releases pooled buffers. The iterator must not be used
	// afterwards.
	close()
}

// entryBufPool recycles the memtable-window copies and bypass decode
// buffers of the query path.
var entryBufPool = sync.Pool{
	New: func() any { s := make([]entry, 0, blockEntries); return &s },
}

func getEntryBuf() *[]entry { return entryBufPool.Get().(*[]entry) }

func putEntryBuf(s *[]entry) {
	if cap(*s) <= 1<<16 {
		*s = (*s)[:0]
		entryBufPool.Put(s)
	}
}

// sliceIter walks an immutable, sorted entry slice. pooled, when set,
// is returned to the buffer pool on close (memtable copies).
type sliceIter struct {
	es     []entry
	pos    int
	pooled *[]entry
}

func (it *sliceIter) next() (entry, bool) {
	if it.pos >= len(it.es) {
		return entry{}, false
	}
	e := it.es[it.pos]
	it.pos++
	return e, true
}

func (it *sliceIter) close() {
	if it.pooled != nil {
		putEntryBuf(it.pooled)
		it.pooled = nil
	}
	it.es = nil
}

// coldIter walks the window-overlapping blocks of a cold run, decoding
// one block at a time. With a cache, decoded blocks are shared
// node-wide and charged against CacheBytes; without one (compaction's
// bypass mode) each block is decoded into a pooled scratch buffer so a
// merge never thrashes the query cache. Entries below cut (deleted) or
// outside [from, to] are skipped. The iterator does not own a file
// reference — the caller retains rf across the iterator's lifetime.
type coldIter struct {
	rf     *runFile
	blocks []blockMeta
	cache  *blockCache
	from   int64
	to     int64

	bi      int
	cur     []entry
	pos     int
	scratch *[]entry // bypass decode buffer (pooled)
	page    *[]byte  // page read buffer (bypass / cache miss; pooled)
	err     error
}

// makeColdIter narrows the run's block index to [from, to] (cut
// already folded into from by the caller). Returned by value so
// callers can arena-allocate.
func makeColdIter(c *coldRun, cache *blockCache, from, to int64) coldIter {
	bs := c.blocks
	lo := sort.Search(len(bs), func(i int) bool { return bs[i].max >= from })
	hi := sort.Search(len(bs), func(i int) bool { return bs[i].min > to })
	if lo > hi {
		hi = lo
	}
	return coldIter{rf: c.rf, blocks: bs[lo:hi], cache: cache, from: from, to: to}
}

func (it *coldIter) loadNext() bool {
	for it.bi < len(it.blocks) {
		m := it.blocks[it.bi]
		it.bi++
		var es []entry
		if it.cache != nil {
			k := blockKey{rf: it.rf, off: m.off}
			if cached, ok := it.cache.get(k); ok {
				es = cached
			} else {
				// Decode into a fresh slice: the cache shares it with
				// every later reader, so it cannot come from a pool.
				es = make([]entry, 0, m.count)
				var err error
				page := it.pagePtr()
				*page, err = it.rf.decodeBlockAt(m, *page, &es)
				if err != nil {
					it.err = err
					return false
				}
				it.cache.add(k, es)
			}
		} else {
			if it.scratch == nil {
				it.scratch = getBlockScratch()
			}
			*it.scratch = (*it.scratch)[:0]
			var err error
			page := it.pagePtr()
			*page, err = it.rf.decodeBlockAt(m, *page, it.scratch)
			if err != nil {
				it.err = err
				return false
			}
			es = *it.scratch
		}
		// Narrow to the window; the first and last blocks may straddle.
		lo := sort.Search(len(es), func(i int) bool { return es[i].ts >= it.from })
		hi := sort.Search(len(es), func(i int) bool { return es[i].ts > it.to })
		if lo < hi {
			it.cur, it.pos = es, lo
			it.blocksHi(hi)
			return true
		}
	}
	return false
}

// pagePtr returns the iterator's page buffer, taking one from the pool
// on the first read.
func (it *coldIter) pagePtr() *[]byte {
	if it.page == nil {
		it.page = getPageScratch()
	}
	return it.page
}

// blocksHi clamps the current block's readable range.
func (it *coldIter) blocksHi(hi int) { it.cur = it.cur[:hi] }

func (it *coldIter) next() (entry, bool) {
	for it.pos >= len(it.cur) {
		if !it.loadNext() {
			return entry{}, false
		}
	}
	e := it.cur[it.pos]
	it.pos++
	return e, true
}

func (it *coldIter) close() {
	if it.scratch != nil {
		putBlockScratch(it.scratch)
		it.scratch = nil
	}
	if it.page != nil {
		putPageScratch(it.page)
		it.page = nil
	}
	it.cur = nil
}

// iterSource pairs an iterator with the clamped bounds of what it can
// emit, for the sequential-concatenation fast path, and its run order
// (older sources first; the memtable is newest).
type iterSource struct {
	it       iterator
	min, max int64
}

// mergeCursor is one heap slot of the k-way merge.
type mergeCursor struct {
	it  iterator
	e   entry
	idx int // run order; equal timestamps pop oldest first
}

// entryMerge merges k iterators in timestamp order. When the sources'
// clamped bounds do not overlap (the common case: sensors emit
// monotonically increasing timestamps, so consecutive runs abut), it
// concatenates instead of heapifying. Duplicate timestamps are emitted
// in source order (oldest first), so a consumer keeping the last value
// per timestamp implements newest-wins — exactly the dedup the old
// materializing merge performed.
type entryMerge struct {
	sequential bool
	srcs       []iterSource // sequential mode: drained in order
	si         int
	h          []mergeCursor // heap mode

	closers []iterator
}

func newEntryMerge(srcs []iterSource) *entryMerge {
	m := &entryMerge{srcs: srcs, sequential: true}
	m.closers = make([]iterator, len(srcs))
	for i, s := range srcs {
		m.closers[i] = s.it
	}
	for i := 1; i < len(srcs); i++ {
		if srcs[i-1].max > srcs[i].min {
			m.sequential = false
			break
		}
	}
	if !m.sequential {
		m.h = make([]mergeCursor, 0, len(srcs))
		for i, s := range srcs {
			if e, ok := s.it.next(); ok {
				m.push(mergeCursor{it: s.it, e: e, idx: i})
			}
		}
	}
	return m
}

func (m *entryMerge) less(a, b mergeCursor) bool {
	return a.e.ts < b.e.ts || (a.e.ts == b.e.ts && a.idx < b.idx)
}

func (m *entryMerge) push(c mergeCursor) {
	m.h = append(m.h, c)
	for i := len(m.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !m.less(m.h[i], m.h[p]) {
			break
		}
		m.h[i], m.h[p] = m.h[p], m.h[i]
		i = p
	}
}

func (m *entryMerge) siftDown() {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(m.h) && m.less(m.h[l], m.h[s]) {
			s = l
		}
		if r < len(m.h) && m.less(m.h[r], m.h[s]) {
			s = r
		}
		if s == i {
			break
		}
		m.h[i], m.h[s] = m.h[s], m.h[i]
		i = s
	}
}

// nextSlice returns the next contiguous batch of merged entries when
// the merge is sequential (non-overlapping sources): whole hot-run
// windows or decoded cold blocks at a time, with no per-entry dynamic
// dispatch. ok is false when exhausted or when the merge needs the
// heap (caller falls back to next()).
func (m *entryMerge) nextSlice() ([]entry, bool) {
	if !m.sequential {
		return nil, false
	}
	for m.si < len(m.srcs) {
		switch it := m.srcs[m.si].it.(type) {
		case *sliceIter:
			if it.pos < len(it.es) {
				es := it.es[it.pos:]
				it.pos = len(it.es)
				return es, true
			}
			m.si++
		case *coldIter:
			if it.pos < len(it.cur) {
				es := it.cur[it.pos:]
				it.pos = len(it.cur)
				return es, true
			}
			if !it.loadNext() {
				m.si++
			}
		default:
			// Unknown iterator kind: hand the rest to the per-entry
			// path (next() resumes from m.si).
			return nil, false
		}
	}
	return nil, false
}

func (m *entryMerge) next() (entry, bool) {
	if m.sequential {
		for m.si < len(m.srcs) {
			if e, ok := m.srcs[m.si].it.next(); ok {
				return e, true
			}
			m.si++
		}
		return entry{}, false
	}
	if len(m.h) == 0 {
		return entry{}, false
	}
	c := m.h[0]
	if e, ok := c.it.next(); ok {
		m.h[0].e = e
		m.siftDown()
	} else {
		m.h[0] = m.h[len(m.h)-1]
		m.h = m.h[:len(m.h)-1]
		m.siftDown()
	}
	return c.e, true
}

// iterErr surfaces a cold iterator's read failure, if any.
func (m *entryMerge) iterErr() error {
	for _, it := range m.closers {
		if ci, ok := it.(*coldIter); ok && ci.err != nil {
			return ci.err
		}
	}
	return nil
}

func (m *entryMerge) close() {
	for _, it := range m.closers {
		it.close()
	}
	m.closers = nil
	m.h = nil
	m.srcs = nil
}

// sensorIters snapshots one sensor's merge inputs under the shard's
// read lock: hot runs are referenced in place (immutable once flushed),
// cold runs get their file retained and their block index narrowed, and
// the memtable window is copied out (memtable arrays are mutated by
// later inserts, sorts and deletes, so they cannot be read unlocked).
// sizeHint upper-bounds the merged entry count (pre-dedup/expiry) so
// callers can size their output once. The caller owns one reference on
// every retained file (winners.close drops them). Caller holds sh.mu at
// least shared.
func (n *Node) sensorItersLocked(sh *shard, id core.SensorID, from, to int64) (srcs []iterSource, retained []*runFile, sizeHint int) {
	rs := sh.runs[id]
	// First pass over the compact header array: how many sources
	// overlap, so the iterator arena and source list allocate exactly
	// once each at the right size.
	nHot, nCold := 0, 0
	for _, r := range rs {
		if r.min > to || r.max < from {
			continue
		}
		if r.cold != nil {
			nCold++
		} else {
			nHot++
		}
	}
	srcs = make([]iterSource, 0, nHot+nCold+1)
	hotArena := make([]sliceIter, 0, nHot+1)
	var coldArena []coldIter
	if nCold > 0 {
		coldArena = make([]coldIter, 0, nCold)
		retained = make([]*runFile, 0, nCold)
	}
	for _, r := range rs {
		if r.min > to || r.max < from {
			continue
		}
		// A cold run's file may still hold rows a delete removed below
		// min (see run), so min, not the block index, bounds the read.
		lo2 := max(from, r.min)
		if r.cold != nil {
			coldArena = append(coldArena, makeColdIter(r.cold, n.cache, lo2, to))
			it := &coldArena[len(coldArena)-1]
			if len(it.blocks) == 0 {
				coldArena = coldArena[:len(coldArena)-1]
				continue
			}
			r.cold.rf.retain()
			retained = append(retained, r.cold.rf)
			min, max := it.blocks[0].min, it.blocks[len(it.blocks)-1].max
			if min < lo2 {
				min = lo2
			}
			if max > to {
				max = to
			}
			for _, m := range it.blocks {
				sizeHint += int(m.count)
			}
			srcs = append(srcs, iterSource{it: it, min: min, max: max})
			continue
		}
		es := r.es
		lo := sort.Search(len(es), func(i int) bool { return es[i].ts >= lo2 })
		hi := sort.Search(len(es), func(i int) bool { return es[i].ts > to })
		if lo < hi {
			hotArena = append(hotArena, sliceIter{es: es[lo:hi]})
			srcs = append(srcs, iterSource{it: &hotArena[len(hotArena)-1], min: es[lo].ts, max: es[hi-1].ts})
			sizeHint += hi - lo
		}
	}
	if s, ok := sh.mem[id]; ok && len(s.entries) > 0 {
		buf := getEntryBuf()
		if s.sorted {
			es := s.entries
			lo := sort.Search(len(es), func(i int) bool { return es[i].ts >= from })
			hi := sort.Search(len(es), func(i int) bool { return es[i].ts > to })
			*buf = append((*buf)[:0], es[lo:hi]...)
		} else {
			*buf = append((*buf)[:0], s.entries...)
			sort.SliceStable(*buf, func(i, j int) bool { return (*buf)[i].ts < (*buf)[j].ts })
			es := *buf
			lo := sort.Search(len(es), func(i int) bool { return es[i].ts >= from })
			hi := sort.Search(len(es), func(i int) bool { return es[i].ts > to })
			// Compact the window to the buffer's front so the pooled
			// allocation keeps its full capacity for reuse.
			copy(es, es[lo:hi])
			*buf = es[:hi-lo]
		}
		if len(*buf) > 0 {
			es := *buf
			hotArena = append(hotArena, sliceIter{es: es, pooled: buf})
			srcs = append(srcs, iterSource{it: &hotArena[len(hotArena)-1], min: es[0].ts, max: es[len(es)-1].ts})
			sizeHint += len(es)
		} else {
			putEntryBuf(buf)
		}
	}
	return srcs, retained, sizeHint
}

// winners is the one dedup loop of the read path. It walks an
// entryMerge and yields, per timestamp, the entry that wins: expired
// entries are dropped, the highest write version is kept, and equal
// versions resolve newest-source-wins (sources arrive oldest first,
// hence >=) — the last write wins among unstamped (version-0) ones.
//
// Winners come out in runs. Sequential merges (the monotonic-sensor
// common case) hand over whole run windows and decoded blocks, and the
// stretch of such a batch in which every entry is unexpired and has a
// timestamp of its own is yielded in place — no copy, no per-entry
// call. Only an entry whose successor is not yet known to differ (a
// duplicate, or the last of its batch) is held back in pend.
type winners struct {
	m        *entryMerge
	retained []*runFile // cold files the merge reads; released by close
	now      int64
	cur      []entry  // rest of the batch being consumed
	one      [1]entry // backing store of a heap-mode (single-entry) batch
	out      [1]entry // backing store of a held-back entry's run
	pend     entry    // candidate winner of the timestamp being resolved
	have     bool
}

// refill loads the next batch from the merge.
func (w *winners) refill() bool {
	if es, ok := w.m.nextSlice(); ok {
		w.cur = es
		return true
	}
	if e, ok := w.m.next(); ok {
		w.one[0] = e
		w.cur = w.one[:]
		return true
	}
	return false
}

func (w *winners) expired(e *entry) bool { return e.expire != 0 && e.expire <= w.now }

// nextRun yields the next run of winning entries in timestamp order,
// nil when the merge is exhausted. The run aliases immutable source
// data (or w.out) and is valid until the next call.
func (w *winners) nextRun() []entry {
	for {
		if len(w.cur) == 0 && !w.refill() {
			if !w.have {
				return nil
			}
			w.have = false
			w.out[0] = w.pend
			return w.out[:]
		}
		cur := w.cur
		if w.have {
			// Resolve the held-back entry against the batch's head.
			switch e := &cur[0]; {
			case w.expired(e):
			case e.ts != w.pend.ts:
				w.have = false
				w.out[0] = w.pend
				return w.out[:]
			case e.ver >= w.pend.ver:
				w.pend = *e
			}
			w.cur = cur[1:]
			continue
		}
		// cur[i] is a winner outright when it is unexpired and its
		// successor in the batch carries a later timestamp.
		i, succ, now := 0, cur[1:], w.now
		// Four at a time while no entry carries an expiry at all and no
		// timestamp repeats — the shape of nearly all monitoring data.
		for ; i+4 <= len(succ); i += 4 {
			c := cur[i : i+5 : i+5]
			if c[0].expire|c[1].expire|c[2].expire|c[3].expire != 0 ||
				c[0].ts == c[1].ts || c[1].ts == c[2].ts || c[2].ts == c[3].ts || c[3].ts == c[4].ts {
				break
			}
		}
		for i < len(succ) && cur[i].ts != succ[i].ts && (cur[i].expire == 0 || cur[i].expire > now) {
			i++
		}
		if i > 0 {
			w.cur = cur[i:]
			return cur[:i]
		}
		if !w.expired(&cur[0]) {
			w.pend, w.have = cur[0], true
		}
		w.cur = cur[1:]
	}
}

// close releases the merge's buffers and file references. It must be
// called exactly once.
func (w *winners) close() {
	w.m.close()
	for _, rf := range w.retained {
		rf.release()
	}
}

// sensorWinners snapshots one sensor's sources and returns the
// deduplicating cursor over them (to be closed by the caller), with an
// upper bound on how many entries it can yield.
func (n *Node) sensorWinners(id core.SensorID, from, to, now int64) (w winners, sizeHint int) {
	sh := n.shardOf(id)
	sh.mu.RLock()
	srcs, retained, sizeHint := n.sensorItersLocked(sh, id, from, to)
	sh.mu.RUnlock()
	return winners{m: newEntryMerge(srcs), retained: retained, now: now}, sizeHint
}

// ReadingStream is a pull-based stream of one sensor's query result in
// timestamp order. Next returns the next chunk, or io.EOF when the
// stream is exhausted; the returned slice is only valid until the next
// call. Close releases the stream's resources and may be called at any
// point (cancel-on-close); it is idempotent.
type ReadingStream interface {
	Next() ([]core.Reading, error)
	Close() error
}

// KeyedReadingStream streams a prefix query: chunks of one sensor's
// readings at a time, sensors in ascending SID order. A sensor's
// readings may span several consecutive chunks (same id repeated).
// Next returns io.EOF when done; the slice is valid until the next
// call.
type KeyedReadingStream interface {
	Next() (core.SensorID, []core.Reading, error)
	Close() error
}

// StreamChunkReadings is the number of readings a stream yields per
// Next call (and the server-side RPC chunk size): 4096 readings ≈ 64
// KB on the wire, small enough that neither side ever buffers a
// meaningful fraction of a long-retention result.
const StreamChunkReadings = 4096

// Drain reads st to its end, closes it, and returns everything it
// yielded. Every materialised read in this package is a Drain of the
// corresponding stream.
func Drain(st ReadingStream) ([]core.Reading, error) {
	if s, ok := st.(*nodeStream); ok {
		return s.drain()
	}
	defer st.Close()
	var out []core.Reading
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
}

// nodeStream hands a sensor's winning entries out as readings: in
// bounded chunks through Next, or all at once through drain. lat, when
// set, is the shard's query-latency histogram: the stream observes
// open → EOF, error or Close, so a streamed read and a drained one are
// timed by the same code (prefix streams leave their per-sensor streams
// untimed).
type nodeStream struct {
	w    winners
	run  []entry // rest of the run being converted
	hint int     // upper bound on the readings the stream can yield
	buf  []core.Reading
	done bool

	lat   *metrics.Histogram
	start time.Time
}

// fill appends winning readings to dst until it holds limit of them or
// the stream is exhausted, in which case the stream closes itself.
func (s *nodeStream) fill(dst []core.Reading, limit int) ([]core.Reading, error) {
	for len(dst) < limit {
		if len(s.run) == 0 {
			if s.run = s.w.nextRun(); s.run == nil {
				err := s.w.m.iterErr()
				s.Close()
				return dst, err
			}
		}
		n := min(len(s.run), limit-len(dst))
		dst = slices.Grow(dst, n)
		run, out := s.run[:n], dst[len(dst):len(dst)+n]
		for i := range out {
			out[i] = core.Reading{Timestamp: run[i].ts, Value: run[i].val}
		}
		dst, s.run = dst[:len(dst)+n], s.run[n:]
	}
	return dst, nil
}

func (s *nodeStream) Next() ([]core.Reading, error) {
	if s.done {
		return nil, io.EOF
	}
	if s.buf == nil {
		// A short result must not cost a full chunk buffer.
		s.buf = make([]core.Reading, 0, min(s.hint, StreamChunkReadings))
	}
	buf, err := s.fill(s.buf[:0], StreamChunkReadings)
	if err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return nil, io.EOF
	}
	s.buf = buf
	return buf, nil
}

// drain is Drain's shortcut for an unread nodeStream: the same fill,
// straight into an output sized once from the hint, instead of chunk by
// chunk through a buffer that Drain would copy out of.
func (s *nodeStream) drain() ([]core.Reading, error) {
	defer s.Close()
	if s.done || s.hint == 0 {
		return nil, nil
	}
	out, err := s.fill(make([]core.Reading, 0, s.hint), math.MaxInt)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (s *nodeStream) Close() error {
	if !s.done {
		s.done = true
		s.w.close()
		if s.lat != nil {
			s.lat.ObserveSince(s.start)
		}
	}
	return nil
}

// sensorStream opens the (untimed) stream of one sensor.
func (n *Node) sensorStream(id core.SensorID, from, to, now int64) *nodeStream {
	w, hint := n.sensorWinners(id, from, to, now)
	return &nodeStream{w: w, hint: hint}
}

// QueryStream implements Backend: the node's one read implementation.
// The sensor's sources are snapshotted under the shard's read lock and
// merged without it, so a cold run's disk reads never stall the shard's
// writers. Chunks are produced on demand, so the node's memory per open
// stream is one chunk plus one decoded block per cold source —
// independent of the result size.
func (n *Node) QueryStream(id core.SensorID, from, to int64) (ReadingStream, error) {
	if err := n.Ping(); err != nil {
		return nil, err
	}
	// The per-shard counter ticks once per stream; prefix streams have
	// their own counter and their per-sensor streams stay silent.
	i := shardIndex(id)
	start := n.met.queryStart(n.shards[i].queries.Add(1))
	s := n.sensorStream(id, from, to, time.Now().UnixNano())
	if !start.IsZero() {
		s.lat, s.start = n.met.queryLat[i], start
	}
	return s, nil
}

// Query implements Backend.
func (n *Node) Query(id core.SensorID, from, to int64) ([]core.Reading, error) {
	st, err := n.QueryStream(id, from, to)
	if err != nil {
		return nil, err
	}
	return Drain(st)
}

// VersionedStream is a pull-based stream of one sensor's winning
// readings with the stamp each winning write carried, in timestamp
// order: what the cluster's replica merge reads. Next returns the next
// chunk of at most StreamChunkReadings, or io.EOF when the stream is
// exhausted; the chunk is only valid until the next call. Close may be
// called at any point and is idempotent.
type VersionedStream interface {
	Next() ([]VersionedReading, error)
	Close() error
}

// versionedStream is nodeStream keeping the stamps: the same winners,
// handed out with their version and expiry.
type versionedStream struct {
	w    winners
	run  []entry
	buf  []VersionedReading
	done bool
}

func (s *versionedStream) Next() ([]VersionedReading, error) {
	s.buf = s.buf[:0]
	for !s.done && len(s.buf) < StreamChunkReadings {
		if len(s.run) == 0 {
			if s.run = s.w.nextRun(); s.run == nil {
				err := s.w.m.iterErr()
				s.Close()
				if err != nil {
					return nil, err
				}
				break
			}
		}
		n := min(len(s.run), StreamChunkReadings-len(s.buf))
		for _, e := range s.run[:n] {
			s.buf = append(s.buf, VersionedReading{Timestamp: e.ts, Value: e.val, Version: e.ver, Expire: e.expire})
		}
		s.run = s.run[n:]
	}
	if len(s.buf) == 0 {
		return nil, io.EOF
	}
	return s.buf, nil
}

func (s *versionedStream) Close() error {
	if !s.done {
		s.done = true
		s.w.close()
	}
	return nil
}

// QueryVersionedStream implements NodeBackend: the stream QueryStream
// is, but each winning reading keeps the version and expiry of the
// write that produced it, so a reading copied to another replica
// resolves there exactly where the original write did.
func (n *Node) QueryVersionedStream(id core.SensorID, from, to int64) (VersionedStream, error) {
	if err := n.Ping(); err != nil {
		return nil, err
	}
	n.shardOf(id).queries.Add(1)
	w, hint := n.sensorWinners(id, from, to, time.Now().UnixNano())
	return &versionedStream{w: w, buf: make([]VersionedReading, 0, min(hint, StreamChunkReadings))}, nil
}

// prefixSIDs lists the node's SIDs inside the prefix subtree, in
// ascending SID order (the order every keyed stream promises).
func (n *Node) prefixSIDs(prefix core.SensorID, depth int) []core.SensorID {
	lo, hi, bounded := prefixRange(prefix, depth)
	var out []core.SensorID
	for i := range n.shards {
		sh := &n.shards[i]
		idx := sh.snapshotIndex()
		start := sort.Search(len(idx), func(i int) bool { return idx[i].Compare(lo) >= 0 })
		end := len(idx)
		if bounded {
			end = sort.Search(len(idx), func(i int) bool { return idx[i].Compare(hi) >= 0 })
		}
		out = append(out, idx[start:end]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// prefixStream walks the subtree's sensors one at a time, streaming
// each sensor's merge in chunks. Only one sensor's merge is open at any
// moment.
type prefixStream struct {
	n        *Node
	ids      []core.SensorID
	from, to int64
	now      int64

	cur  *nodeStream
	curI int
	done bool
}

func (s *prefixStream) Next() (core.SensorID, []core.Reading, error) {
	for {
		if s.done {
			return core.SensorID{}, nil, io.EOF
		}
		if s.cur == nil {
			if s.curI >= len(s.ids) {
				s.done = true
				return core.SensorID{}, nil, io.EOF
			}
			s.cur = s.n.sensorStream(s.ids[s.curI], s.from, s.to, s.now)
		}
		chunk, err := s.cur.Next()
		if err == io.EOF {
			s.cur = nil
			s.curI++
			continue
		}
		if err != nil {
			s.Close()
			return core.SensorID{}, nil, err
		}
		return s.ids[s.curI], chunk, nil
	}
}

func (s *prefixStream) Close() error {
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
	s.done = true
	return nil
}

// QueryPrefixStream implements Backend. Sensors arrive in ascending SID
// order, each sensor's readings chunked in timestamp order.
func (n *Node) QueryPrefixStream(prefix core.SensorID, depth int, from, to int64) (KeyedReadingStream, error) {
	if err := n.Ping(); err != nil {
		return nil, err
	}
	if prefix.Prefix(depth) != prefix {
		return &prefixStream{done: true}, nil
	}
	n.prefixQueries.Add(1)
	return &prefixStream{
		n: n, ids: n.prefixSIDs(prefix, depth), from: from, to: to,
		now: time.Now().UnixNano(),
	}, nil
}
