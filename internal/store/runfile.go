package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"dcdb/internal/core"
	"dcdb/internal/fsutil"
)

// Run-file format v3: block-indexed, compressed, cold-readable — and
// the only format written. Data comes first so the writer can stream
// blocks as a merge produces them; the index lives at the tail, closed
// by a fixed-size footer, so recovery reads O(index) bytes — not the
// data — and a cold query reads only the blocks whose [minTs,maxTs]
// overlap its window:
//
//	magic "DCDBRUN3"
//	data   : concatenated blocks (see block.go) in index order, no gaps
//	index  : minSeq uv | maxSeq-minSeq uv | baseTS zz | baseVer uv |
//	         tombCount uv | seriesCount uv
//	         tombs  : tombCount × (sid | cutoff zz), sorted by SID
//	         series : seriesCount × (sid | blockCount uv | blocks), sorted by SID
//	           block : len uv | count uv | min-prev uv | max-min uv | crc u32
//	         sid    : u8 (shared<<4 | n-1) | n bytes — the SID's first
//	                  `shared` bytes repeat the previous SID of the same
//	                  list (all zero before the first), n explicit bytes
//	                  follow, the rest are zero
//	footer : indexOff u64 | indexLen u32 | crc32(index) u32
//
// (uv = uvarint, zz = zigzag uvarint, fixed-width integers big-endian.)
// The index is delta-coded against what it already knows: a block's
// offset is the running sum of the lengths before it, its min counts
// from the previous block's max (the first block of a series from the
// file-level baseTS, the smallest timestamp in the file), a series'
// count and bounds are those of its blocks. The blocks in turn are
// anchored in the index — first timestamp = min, and with block flag
// bit 6 the last timestamp = max; first write version relative to
// baseVer — so a file of many tiny series, the fan-in shape, pays a few
// bytes per series instead of eighty, and no timestamp twice.
//
// Integrity is layered: the footer CRC covers the index, and every
// block carries its own CRC in the index, so a cold read verifies
// exactly what it touches.
//
// v3 is the only format a node opens. The two before it are refused
// with the way out (errRunFileV1, errRunFileV2), and their files are
// left as they are: the builds that read them rewrote them, one format
// forward, at a writable open.

var runMagic = []byte("DCDBRUN3")

// errRunFileV1 and errRunFileV2 refuse the formats whose decoders are
// gone: v1, the uncompressed whole-file format of the first durable
// builds, and v2, the fixed-width index with self-contained blocks.
// internal/store/README.md names the builds of the upgrade path.
var (
	errRunFileV1 = errors.New("run file is in format v1 (DCDBRUN1), which this build no longer reads: " +
		"open the directory once, writable, with a build that still reads v1, then once with a build " +
		"that still reads v2; each rewrites the files one format forward (see \"Upgrading old run files\" in internal/store/README.md)")
	errRunFileV2 = errors.New("run file is in format v2 (DCDBRUN2), which this build no longer reads: " +
		"open the directory once, writable, with a build that still reads v2; it rewrites the files as v3 " +
		"(see \"Upgrading old run files\" in internal/store/README.md)")
)

const (
	runMagicLen  = 8
	runFooterLen = 16

	// Smallest encodings, for validating counts before allocating.
	minTombLen      = 2 + 1                   // sid, cutoff
	minBlockMetaLen = 1 + 1 + 1 + 1 + 4       // len, count, min, span, crc
	minSeriesLen    = 2 + 1 + minBlockMetaLen // sid, blockCount, one block
)

// blockMeta locates one block inside a run file and carries the
// always-resident rejection data: entry count, [min,max] timestamp
// bounds, and the block's CRC.
type blockMeta struct {
	off      uint64
	length   uint32
	count    uint32
	min, max int64
	crc      uint32
}

// seriesIndex is one series' slice of a run file's index.
type seriesIndex struct {
	id       core.SensorID
	count    uint64
	min, max int64
	blocks   []blockMeta
}

// runIndex is a decoded index: everything recovery keeps resident for
// a cold file.
type runIndex struct {
	minSeq, maxSeq uint64
	tombs          map[core.SensorID]int64
	series         []seriesIndex // sorted by SID
	dataLen        int64         // bytes before the index (block bounds)
	base           blockBase     // what the file's blocks decode against
}

// runFileWriter streams a run file: blocks are written as the caller
// produces entries, the index accumulates in memory (a few bytes per
// block), and finish seals index + footer and commits by
// write-fsync-rename. Series must be added in ascending SID order with
// entries sorted by timestamp.
type runFileWriter struct {
	f          fsutil.File
	bw         *bufio.Writer
	tmp, final string
	dir        string
	off        uint64 // absolute file offset of the next byte

	minSeq, maxSeq uint64
	series         []seriesIndex
	// baseVer is fixed by the first block that carries a version
	// section (to that block's first non-zero version): blocks stream out
	// before the file's version range is known.
	baseVer uint64

	cur      seriesIndex
	open     bool
	buf      []entry // pending entries of the open series (≤ blockEntries)
	blockBuf []byte  // encode scratch, reused across blocks

	written runBytes    // so far
	met     *runMetrics // told of written once the file is committed; may be nil
}

// runBytes is where the bytes of a run file went, besides the magic,
// the footer and each block's flags byte.
type runBytes struct {
	streams blockSizes // summed over the blocks
	index   int
	blocks  [2][2]int // block count by [timestamps framed][values integer]
	stamped [3]int    // blocks with a stamp section by its coding: varints, runs, clock
}

// count adds one block with the given flags byte and stream sizes.
func (b *runBytes) count(flags byte, sz blockSizes) {
	b.streams.ts += sz.ts
	b.streams.stamps += sz.stamps
	b.streams.values += sz.values
	b.blocks[min(flags&blockFlagTSFrame, 1)][min(flags&blockFlagIntValues, 1)]++
	if flags&(blockFlagExpire|blockFlagVersion) != 0 {
		b.stamped[min(flags&blockFlagStampRuns, 1)+2*min(flags&blockFlagStampClock, 1)]++
	}
}

func newRunFileWriter(dir string, minSeq, maxSeq uint64, met *runMetrics) (*runFileWriter, error) {
	final := filepath.Join(dir, runFileName(minSeq, maxSeq))
	tmp := final + ".tmp"
	f, err := fsutil.Disk.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := &runFileWriter{
		f: f, bw: bufio.NewWriterSize(f, 1<<16), tmp: tmp, final: final, dir: dir,
		minSeq: minSeq, maxSeq: maxSeq,
		buf: make([]entry, 0, blockEntries),
		met: met,
	}
	if _, err := w.bw.Write(runMagic); err != nil {
		w.abort()
		return nil, err
	}
	w.off = runMagicLen
	return w, nil
}

// abort discards the temp file. Safe after any failure.
func (w *runFileWriter) abort() {
	w.f.Close()
	os.Remove(w.tmp)
}

// beginSeries starts a new series. IDs must arrive in ascending order.
func (w *runFileWriter) beginSeries(id core.SensorID) error {
	if w.open {
		return fmt.Errorf("store: beginSeries with a series open")
	}
	if len(w.series) > 0 && w.series[len(w.series)-1].id.Compare(id) >= 0 {
		return fmt.Errorf("store: run file series out of order")
	}
	w.cur = seriesIndex{id: id}
	w.open = true
	return nil
}

// add appends one entry (timestamp order within the series).
func (w *runFileWriter) add(e entry) error {
	w.buf = append(w.buf, e)
	if len(w.buf) >= blockEntries {
		return w.flushBlock()
	}
	return nil
}

func (w *runFileWriter) flushBlock() error {
	if len(w.buf) == 0 {
		return nil
	}
	if w.baseVer == 0 {
		for _, e := range w.buf {
			if e.ver != 0 {
				w.baseVer = e.ver
				break
			}
		}
	}
	var sz blockSizes
	w.blockBuf, sz = encodeBlock(w.blockBuf[:0], w.buf, w.baseVer)
	w.written.count(w.blockBuf[0], sz)
	m := blockMeta{
		off:    w.off,
		length: uint32(len(w.blockBuf)),
		count:  uint32(len(w.buf)),
		min:    w.buf[0].ts,
		max:    w.buf[len(w.buf)-1].ts,
		crc:    crc32.ChecksumIEEE(w.blockBuf),
	}
	if _, err := w.bw.Write(w.blockBuf); err != nil {
		return err
	}
	w.off += uint64(len(w.blockBuf))
	if w.cur.count == 0 {
		w.cur.min = m.min
	}
	w.cur.max = m.max
	w.cur.count += uint64(m.count)
	w.cur.blocks = append(w.cur.blocks, m)
	w.buf = w.buf[:0]
	return nil
}

// endSeries seals the open series into the index.
func (w *runFileWriter) endSeries() error {
	if !w.open {
		return fmt.Errorf("store: endSeries without beginSeries")
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	w.open = false
	if w.cur.count == 0 {
		return fmt.Errorf("store: run file series %v has no entries", w.cur.id)
	}
	w.series = append(w.series, w.cur)
	return nil
}

// addSeries writes one whole series from a sorted slice (the spill
// path's convenience over begin/add/end).
func (w *runFileWriter) addSeries(id core.SensorID, es []entry) error {
	if err := w.beginSeries(id); err != nil {
		return err
	}
	for _, e := range es {
		if err := w.add(e); err != nil {
			return err
		}
	}
	return w.endSeries()
}

// finish writes the index and footer, fsyncs, renames into place and
// fsyncs the directory. On success the returned meta and index describe
// the committed file.
func (w *runFileWriter) finish(tombs map[core.SensorID]int64) (runFileMeta, *runIndex, error) {
	if w.open {
		return runFileMeta{}, nil, fmt.Errorf("store: finish with a series open")
	}
	fail := func(err error) (runFileMeta, *runIndex, error) {
		w.abort()
		return runFileMeta{}, nil, err
	}
	idx := &runIndex{
		minSeq: w.minSeq, maxSeq: w.maxSeq, tombs: tombs, series: w.series,
		dataLen: int64(w.off), base: blockBase{ver: w.baseVer},
	}
	indexBytes := appendRunIndex(nil, idx)
	w.written.index = len(indexBytes)
	footer, err := runFooter(w.off, len(indexBytes), crc32.ChecksumIEEE(indexBytes))
	if err != nil {
		return fail(err)
	}
	if _, err := w.bw.Write(indexBytes); err != nil {
		return fail(err)
	}
	if _, err := w.bw.Write(footer[:]); err != nil {
		return fail(err)
	}
	if err := w.bw.Flush(); err != nil {
		return fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return fail(err)
	}
	st, err := w.f.Stat()
	if err != nil {
		return fail(err)
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return runFileMeta{}, nil, err
	}
	if err := os.Rename(w.tmp, w.final); err != nil {
		os.Remove(w.tmp)
		return runFileMeta{}, nil, err
	}
	syncDir(w.dir)
	w.met.add(&w.written)
	return runFileMeta{path: w.final, minSeq: w.minSeq, maxSeq: w.maxSeq, size: st.Size(), tombs: tombs}, idx, nil
}

// runFooter builds the footer for an index of indexLen bytes starting
// at indexOff. The length field is 32 bits wide: an index that does not
// fit is an error, never a silently truncated length that no reader
// could open.
func runFooter(indexOff uint64, indexLen int, indexCRC uint32) ([runFooterLen]byte, error) {
	var footer [runFooterLen]byte
	if uint64(indexLen) > math.MaxUint32 {
		return footer, fmt.Errorf("store: run index of %d bytes exceeds the footer's 32-bit length", indexLen)
	}
	binary.BigEndian.PutUint64(footer[0:], indexOff)
	binary.BigEndian.PutUint32(footer[8:], uint32(indexLen))
	binary.BigEndian.PutUint32(footer[12:], indexCRC)
	return footer, nil
}

// sidBytes is id in its sort order's byte form.
func sidBytes(id core.SensorID) (b [16]byte) {
	binary.BigEndian.PutUint64(b[0:], id.Hi)
	binary.BigEndian.PutUint64(b[8:], id.Lo)
	return b
}

// appendSID prefix-codes id against the previous SID of its list.
func appendSID(b []byte, prev, id core.SensorID) []byte {
	p, s := sidBytes(prev), sidBytes(id)
	shared := 0
	for shared < 15 && s[shared] == p[shared] {
		shared++
	}
	end := 16
	for end > shared+1 && s[end-1] == 0 {
		end--
	}
	b = append(b, byte(shared<<4|(end-shared-1)))
	return append(b, s[shared:end]...)
}

// appendRunIndex serialises an index section.
func appendRunIndex(b []byte, idx *runIndex) []byte {
	// The smallest first-block min is the smallest timestamp in the file.
	baseTS := int64(0)
	for i, se := range idx.series {
		if i == 0 || se.min < baseTS {
			baseTS = se.min
		}
	}
	b = binary.AppendUvarint(b, idx.minSeq)
	b = binary.AppendUvarint(b, idx.maxSeq-idx.minSeq)
	b = binary.AppendUvarint(b, zigzag(baseTS))
	b = binary.AppendUvarint(b, idx.base.ver)
	b = binary.AppendUvarint(b, uint64(len(idx.tombs)))
	b = binary.AppendUvarint(b, uint64(len(idx.series)))
	tombIDs := sortedIDs(len(idx.tombs), func(yield func(core.SensorID)) {
		for id := range idx.tombs {
			yield(id)
		}
	})
	var prev core.SensorID
	for _, id := range tombIDs {
		b = appendSID(b, prev, id)
		b = binary.AppendUvarint(b, zigzag(idx.tombs[id]))
		prev = id
	}
	prev = core.SensorID{}
	for _, se := range idx.series {
		b = appendSID(b, prev, se.id)
		prev = se.id
		b = binary.AppendUvarint(b, uint64(len(se.blocks)))
		last := baseTS
		for _, m := range se.blocks {
			b = binary.AppendUvarint(b, uint64(m.length))
			b = binary.AppendUvarint(b, uint64(m.count))
			b = binary.AppendUvarint(b, uint64(m.min)-uint64(last))
			b = binary.AppendUvarint(b, uint64(m.max)-uint64(m.min))
			b = binary.BigEndian.AppendUint32(b, m.crc)
			last = m.max
		}
	}
	return b
}

// indexReader walks an index section; the first malformed field sets
// err and every later read returns zero.
type indexReader struct {
	b   []byte
	off int
	err error
}

func (r *indexReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("store: run index "+format, args...)
	}
}

func (r *indexReader) rest() uint64 { return uint64(len(r.b) - r.off) }

func (r *indexReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated or malformed at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *indexReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.rest() < 4 {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// sid decodes one prefix-coded SID against prev.
func (r *indexReader) sid(prev core.SensorID) core.SensorID {
	if r.err != nil {
		return core.SensorID{}
	}
	if r.rest() < 1 {
		r.fail("truncated at byte %d", r.off)
		return core.SensorID{}
	}
	h := r.b[r.off]
	shared, n := int(h>>4), int(h&15)+1
	if shared+n > 16 || r.rest() < uint64(1+n) {
		r.fail("has a malformed sensor id at byte %d", r.off)
		return core.SensorID{}
	}
	s := sidBytes(prev)
	clear(s[shared:])
	copy(s[shared:], r.b[r.off+1:r.off+1+n])
	r.off += 1 + n
	return core.SensorID{Hi: binary.BigEndian.Uint64(s[0:]), Lo: binary.BigEndian.Uint64(s[8:])}
}

// addDelta returns base+d, reporting false when the sum leaves int64
// (the wrapped sum of a non-negative delta lands below base).
func addDelta(base int64, d uint64) (int64, bool) {
	v := int64(uint64(base) + d)
	return v, v >= base
}

// parseRunIndex decodes and validates a v3 index section. dataLen is
// the file offset where the index begins; the blocks must tile the data
// section exactly. Every count is checked against the bytes that remain
// before anything is sized from it.
func parseRunIndex(b []byte, dataLen int64) (*runIndex, error) {
	if dataLen < runMagicLen {
		return nil, fmt.Errorf("store: run index starts inside the magic")
	}
	r := &indexReader{b: b}
	idx := &runIndex{dataLen: dataLen}
	idx.minSeq = r.uvarint()
	span := r.uvarint()
	baseTS := unzigzag(r.uvarint())
	idx.base.ver = r.uvarint()
	tombCount := r.uvarint()
	seriesCount := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if idx.maxSeq = idx.minSeq + span; idx.maxSeq < idx.minSeq {
		return nil, fmt.Errorf("store: run index span overflows")
	}
	if tombCount > r.rest()/minTombLen {
		return nil, fmt.Errorf("store: run index tombstone count overflows index")
	}
	if tombCount > 0 {
		idx.tombs = make(map[core.SensorID]int64, tombCount)
		var prev core.SensorID
		for i := uint64(0); i < tombCount; i++ {
			id := r.sid(prev)
			cutoff := unzigzag(r.uvarint())
			if r.err != nil {
				return nil, r.err
			}
			if i > 0 && prev.Compare(id) >= 0 {
				return nil, fmt.Errorf("store: run index tombstones out of order")
			}
			idx.tombs[id], prev = cutoff, id
		}
	}
	if seriesCount > r.rest()/minSeriesLen {
		return nil, fmt.Errorf("store: run index series count overflows index")
	}
	idx.series = make([]seriesIndex, 0, seriesCount)
	var prev core.SensorID
	off := uint64(runMagicLen) // blocks tile the data section in index order
	for i := uint64(0); i < seriesCount; i++ {
		se := seriesIndex{id: r.sid(prev)}
		blockCount := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if i > 0 && prev.Compare(se.id) >= 0 {
			return nil, fmt.Errorf("store: run index series out of order")
		}
		prev = se.id
		if blockCount == 0 {
			return nil, fmt.Errorf("store: run index has empty series")
		}
		if blockCount > r.rest()/minBlockMetaLen {
			return nil, fmt.Errorf("store: run index block count overflows index")
		}
		se.blocks = make([]blockMeta, blockCount)
		last := baseTS
		for j := range se.blocks {
			length, count := r.uvarint(), r.uvarint()
			dMin, dMax := r.uvarint(), r.uvarint()
			crc := r.u32()
			if r.err != nil {
				return nil, r.err
			}
			// Subtraction form: off+length could wrap for a hostile length.
			if length > math.MaxUint32 || length > uint64(dataLen)-off {
				return nil, fmt.Errorf("store: run index block overflows data section")
			}
			if err := checkBlockCount(count, int(length)); err != nil {
				return nil, err
			}
			min, ok1 := addDelta(last, dMin)
			max, ok2 := addDelta(min, dMax)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("store: run index block bounds overflow")
			}
			se.blocks[j] = blockMeta{off: off, length: uint32(length), count: uint32(count), min: min, max: max, crc: crc}
			off += length
			se.count += count
			last = max
		}
		se.min, se.max = se.blocks[0].min, last
		idx.series = append(idx.series, se)
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("store: run index has %d trailing bytes", len(b)-r.off)
	}
	if off != uint64(dataLen) {
		return nil, fmt.Errorf("store: run index blocks cover %d of %d data bytes", off-runMagicLen, dataLen-runMagicLen)
	}
	return idx, nil
}

// runFormat accepts a v3 magic; a v1, v2 or foreign one is an error.
func runFormat(magic []byte) error {
	switch string(magic) {
	case string(runMagic):
		return nil
	case "DCDBRUN2":
		return errRunFileV2
	case "DCDBRUN1":
		return errRunFileV1
	}
	return fmt.Errorf("not a DCDB run file")
}

// parseRunFrame validates a run file's frame — magic, footer, index
// CRC — from the file's size, its first runMagicLen and its last
// runFooterLen bytes, and parses the index that readIndex fetches.
func parseRunFrame(size int64, magic, footer []byte, readIndex func(off int64, n uint32) ([]byte, error)) (*runIndex, error) {
	if err := runFormat(magic); err != nil {
		return nil, err
	}
	indexOff := binary.BigEndian.Uint64(footer[0:])
	indexLen := binary.BigEndian.Uint32(footer[8:])
	indexCRC := binary.BigEndian.Uint32(footer[12:])
	// Subtraction form: additive off+len would wrap for hostile
	// offsets and pass, then drive a giant allocation or bad ReadAt.
	if indexOff < runMagicLen || indexOff > uint64(size-runFooterLen) ||
		uint64(indexLen) != uint64(size-runFooterLen)-indexOff {
		return nil, fmt.Errorf("run file footer inconsistent")
	}
	indexBytes, err := readIndex(int64(indexOff), indexLen)
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(indexBytes) != indexCRC {
		return nil, fmt.Errorf("run index CRC mismatch")
	}
	return parseRunIndex(indexBytes, int64(indexOff))
}

// readRunIndexFile reads only a run file's footer and index — the cold
// open path. The data section is not touched.
func readRunIndexFile(path string) (*runIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < runMagicLen+runFooterLen {
		return nil, fmt.Errorf("store: %s: run file truncated", path)
	}
	var magic [runMagicLen]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, err
	}
	var footer [runFooterLen]byte
	if _, err := f.ReadAt(footer[:], size-runFooterLen); err != nil {
		return nil, err
	}
	idx, err := parseRunFrame(size, magic[:], footer[:], func(off int64, n uint32) ([]byte, error) {
		indexBytes := make([]byte, n)
		_, err := f.ReadAt(indexBytes, off)
		return indexBytes, err
	})
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return idx, nil
}

// decodeRunFile decodes a whole run file held in memory — the fuzz
// surface and the hot (cache-less) recovery path. Counts are validated
// against the remaining length before any allocation, so corrupt input
// errors out instead of panicking or OOMing; a CRC mismatch rejects the
// file.
func decodeRunFile(data []byte) (*runContents, error) {
	if len(data) < runMagicLen+runFooterLen {
		return nil, fmt.Errorf("store: run file truncated")
	}
	idx, err := parseRunFrame(int64(len(data)), data[:runMagicLen], data[len(data)-runFooterLen:],
		func(off int64, n uint32) ([]byte, error) { return data[off : off+int64(n)], nil })
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	rc := &runContents{
		minSeq: idx.minSeq, maxSeq: idx.maxSeq, tombs: idx.tombs,
		series: make(map[core.SensorID][]entry, len(idx.series)),
	}
	for _, se := range idx.series {
		// Grown block by block as each passes its CRC, not sized from
		// se.count: that is the index's claim, and a block of a dozen
		// bytes may claim blockEntries entries.
		var es []entry
		for _, m := range se.blocks {
			raw := data[m.off : m.off+uint64(m.length)]
			if crc32.ChecksumIEEE(raw) != m.crc {
				return nil, fmt.Errorf("store: block at %d CRC mismatch", m.off)
			}
			n := len(es)
			if err := decodeBlock(raw, m, idx.base, &es); err != nil {
				return nil, err
			}
			// The index's bounds are the always-resident rejection
			// data; they must agree with the decoded payload. The
			// decoder took the first timestamp from them, and the last
			// one of an anchored block, so what this checks is the last
			// timestamp of a block written without the anchor.
			if es[n].ts != m.min || es[len(es)-1].ts != m.max {
				return nil, fmt.Errorf("store: block at %d bounds contradict its index entry", m.off)
			}
		}
		rc.series[se.id] = es
	}
	return rc, nil
}

// writeRunFile persists a spill's series map (and the delete cutoffs
// accumulated while its memtable was live), returning the committed
// meta and index (the index lets the caller swap hot runs cold without
// re-reading the file). met, when not nil, is told where the bytes went.
func writeRunFile(dir string, minSeq, maxSeq uint64, series map[core.SensorID][]entry, tombs map[core.SensorID]int64, met *runMetrics) (runFileMeta, *runIndex, error) {
	w, err := newRunFileWriter(dir, minSeq, maxSeq, met)
	if err != nil {
		return runFileMeta{}, nil, err
	}
	ids := sortedIDs(len(series), func(yield func(core.SensorID)) {
		for id := range series {
			yield(id)
		}
	})
	for _, id := range ids {
		if len(series[id]) == 0 {
			continue
		}
		if err := w.addSeries(id, series[id]); err != nil {
			w.abort()
			return runFileMeta{}, nil, err
		}
	}
	return w.finish(tombs)
}
