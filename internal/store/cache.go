package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The block cache is how a durable node reads its run files: run data
// lives on disk behind per-series block indexes (always resident, a few
// bytes per 512 entries) and decoded blocks are cached node-wide with
// clock (second-chance) eviction. DiskOptions.CacheBytes > 0 bounds the
// cache; 0 leaves it unbounded, so a decoded block stays. Either way a
// node's run memory follows what is read, not what is stored — the
// ROADMAP's "resident-set bound" item.
//
// runFile is the refcounted read handle of one run file. The shard's
// file list holds the owning reference; queries, streams and compactions
// retain the file while they read it, so a compaction that retires the
// file (release of the owning reference) cannot close it under a
// concurrent cold read — the file descriptor outlives the unlink.
type runFile struct {
	path    string
	f       *os.File
	refs    atomic.Int32
	cache   *blockCache // purged of this file's blocks on final release
	dataLen int64       // bytes before the index section; block bounds check
	base    blockBase   // what the index says every block decodes against
}

// openRunFileHandle opens the file idx was read from for cold reads,
// with one owning reference.
func openRunFileHandle(path string, idx *runIndex, cache *blockCache) (*runFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rf := &runFile{path: path, f: f, cache: cache, dataLen: idx.dataLen, base: idx.base}
	rf.refs.Store(1)
	return rf, nil
}

func (rf *runFile) retain() { rf.refs.Add(1) }

// release drops one reference; the last one closes the descriptor and
// evicts the file's cached blocks (they can never be hit again).
func (rf *runFile) release() {
	if rf.refs.Add(-1) != 0 {
		return
	}
	rf.f.Close()
	if rf.cache != nil {
		rf.cache.purge(rf)
	}
}

// pageScratch pools the buffers cold reads fetch pages into: a page of
// small blocks is 1-2 KiB, a full block a page of its own.
var pageScratch = sync.Pool{New: func() any { b := make([]byte, 0, 2*pageMin); return &b }}

func getPageScratch() *[]byte { return pageScratch.Get().(*[]byte) }

func putPageScratch(b *[]byte) {
	if cap(*b) <= 16*pageMin { // don't pool oversized one-offs
		pageScratch.Put(b)
	}
}

// readBlock reads and CRC-checks the page holding block m and returns
// the page, in buf when it is large enough, and the block within it.
func (rf *runFile) readBlock(m blockMeta, buf []byte) (page, raw []byte, err error) {
	if int64(m.pageOff)+int64(m.pageLen) > rf.dataLen {
		return buf, nil, fmt.Errorf("store: %s: page at %d overflows data section", rf.path, m.pageOff)
	}
	if cap(buf) < int(m.pageLen) {
		buf = make([]byte, m.pageLen)
	}
	page = buf[:m.pageLen]
	if _, err := rf.f.ReadAt(page, int64(m.pageOff)); err != nil {
		return page, nil, fmt.Errorf("store: %s: reading page at %d: %w", rf.path, m.pageOff, err)
	}
	if crc32.ChecksumIEEE(page) != m.crc {
		return page, nil, fmt.Errorf("store: %s: page at %d CRC mismatch", rf.path, m.pageOff)
	}
	at := m.off - m.pageOff
	return page, page[at : at+uint64(m.length)], nil
}

// decodeBlockAt reads, checks and decodes one block of rf, appending
// the entries to out. It returns the page buffer for the next read.
func (rf *runFile) decodeBlockAt(m blockMeta, scratch []byte, out *[]entry) ([]byte, error) {
	page, raw, err := rf.readBlock(m, scratch)
	if err != nil {
		return page, err
	}
	if err := decodeBlock(raw, m, rf.base, out); err != nil {
		return page, fmt.Errorf("store: %s: block at %d: %w", rf.path, m.off, err)
	}
	return page, nil
}

// blockKey identifies one cached decoded block. The runFile pointer is
// the file's identity: a rewritten path is a new file object, so stale
// content can never be served for a reused name.
type blockKey struct {
	rf  *runFile
	off uint64
}

// cacheEntry is one decoded block resident in the cache.
type cacheEntry struct {
	key   blockKey
	es    []entry
	bytes int64
	ref   bool // clock reference bit: touched since the hand last passed
}

// entryOverhead approximates the bookkeeping bytes per cached block
// (map entry, struct, slice header) charged on top of the entry data.
const entryOverhead = 128

// blockCache is the node-wide decoded-block cache with clock
// (second-chance) eviction: a hit sets the entry's reference bit; the
// eviction hand clears bits until it finds an unreferenced victim, so
// one scan of cold data cannot flush the hot working set the way pure
// LRU insertion order would.
type blockCache struct {
	mu    sync.Mutex
	cap   int64
	used  int64
	m     map[blockKey]*cacheEntry
	clock []*cacheEntry
	hand  int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

func newBlockCache(capBytes int64) *blockCache {
	return &blockCache{cap: capBytes, m: make(map[blockKey]*cacheEntry)}
}

// get returns the cached decoded entries of a block, if resident. The
// returned slice is immutable and safe to read after the entry is
// evicted (eviction drops the reference; the GC frees it when the last
// reader is done).
func (c *blockCache) get(k blockKey) ([]entry, bool) {
	c.mu.Lock()
	e, ok := c.m[k]
	if ok {
		e.ref = true
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return e.es, true
	}
	c.misses.Add(1)
	return nil, false
}

// add inserts a decoded block, evicting with the clock hand until the
// budget holds (cap 0: no budget). A block larger than the whole budget
// is not cached. es must not be mutated after add.
func (c *blockCache) add(k blockKey, es []entry) {
	sz := int64(len(es))*int64(entrySize) + entryOverhead
	bounded := c.cap > 0
	if bounded && sz > c.cap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[k]; dup {
		return // raced decode of the same block; first one wins
	}
	for bounded && c.used+sz > c.cap && len(c.clock) > 0 {
		c.evictOneLocked()
	}
	e := &cacheEntry{key: k, es: es, bytes: sz, ref: true}
	c.m[k] = e
	c.clock = append(c.clock, e)
	c.used += sz
}

// evictOneLocked advances the clock hand past referenced entries
// (clearing their bits) and removes the first unreferenced one. Bounded:
// after one full revolution every bit is clear.
func (c *blockCache) evictOneLocked() {
	for {
		if c.hand >= len(c.clock) {
			c.hand = 0
		}
		e := c.clock[c.hand]
		if e.ref {
			e.ref = false
			c.hand++
			continue
		}
		last := len(c.clock) - 1
		c.clock[c.hand] = c.clock[last]
		c.clock[last] = nil
		c.clock = c.clock[:last]
		delete(c.m, e.key)
		c.used -= e.bytes
		c.evictions.Add(1)
		return
	}
}

// purge drops every cached block of one file (called when the file is
// retired by compaction — its blocks can never be requested again).
func (c *blockCache) purge(rf *runFile) {
	c.mu.Lock()
	kept := c.clock[:0]
	for _, e := range c.clock {
		if e.key.rf == rf {
			delete(c.m, e.key)
			c.used -= e.bytes
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(c.clock); i++ {
		c.clock[i] = nil
	}
	c.clock = kept
	c.hand = 0
	c.mu.Unlock()
}

// entrySize is the in-memory footprint of one entry (ts, val, expire,
// ver), used for cache accounting.
const entrySize = 32

// ParseByteSize parses a human-friendly byte count for the cache flags:
// a plain integer is bytes; K/M/G (or KB/MB/GB, case-insensitive)
// suffixes scale by 2^10/2^20/2^30.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	for _, suf := range []struct {
		s string
		m int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1}} {
		if strings.HasSuffix(t, suf.s) {
			t = strings.TrimSuffix(t, suf.s)
			mult = suf.m
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("store: bad byte size %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("store: negative byte size %q", s)
	}
	return v * mult, nil
}
