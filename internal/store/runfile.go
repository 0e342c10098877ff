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
	"slices"

	"dcdb/internal/core"
	"dcdb/internal/fsutil"
)

// Run-file format v7: block-indexed, compressed, cold-readable — and
// the only format written or read. Data comes first so the writer can
// stream blocks as a merge produces them; the index lives at the tail,
// closed by a fixed-size footer, so recovery reads O(index) bytes — not
// the data — and a cold query reads only the pages holding the blocks
// whose [minTs,maxTs] overlap its window:
//
//	magic "DCDBRUN7"
//	data   : concatenated blocks (see block.go) in index order, no gaps
//	index  : minSeq uv | maxSeq-minSeq uv | baseTS zz | baseVer uv |
//	         period uv | stampPeriod zz | tsWidth u8 | stampWidth u8 |
//	         tombCount uv | seriesCount uv
//	         tombs  : tombCount × (sid | cutoff zz), sorted by SID
//	         heads  : frame of each series' SID head, shared<<4 | n
//	         steps  : frame of each series' first new level code (when
//	                  n ≥ 1) minus the previous SID's at that level
//	         counts : frame of each series' entry count
//	         lengths: frame of each block's length
//	         firsts : frame of each series' first block's min - baseTS
//	         gaps   : frame of each later block's (min - previous max)
//	                  - period
//	         spans  : frame of each block of two or more entries'
//	                  (max-min) - (count-1)·period
//	         levels : each series' other n-1 new level codes, uv each
//	         crcs   : crc32 u32 of each page, in page order
//	         sid    : u8 (shared<<4 | n) | n × level code uv — the SID's
//	                  first `shared` 16-bit levels repeat the previous SID
//	                  of the same list (all zero before the first), n
//	                  levels follow, the rest are zero
//	footer : indexOff u64 | indexLen u32 | crc32(index) u32
//
// (uv = uvarint, zz = zigzag uvarint, fixed-width integers big-endian,
// frame as in block.go; the series are sorted by SID, and the columns
// list their series or blocks in file order.) The index stores only
// what it cannot derive. A block's offset is the running sum of the
// lengths before it, its min counts from the previous block's max (the
// first block of a series from the file-level baseTS, the smallest
// timestamp in the file); a series' blocks and their counts follow from
// its count, because the writer cuts every series into blocks of
// blockEntries, and so do the columns' lengths; a series' bounds are
// those of its blocks; the pages follow from the lengths (closesPage).
// What a series and its blocks state is stored column by column, each
// column packed at the width the file's largest value needs, where
// varints rounded every field up to whole bytes: a fan-in series' SID
// is a head of a few bits and a step of one, its count and its block's
// length a few bits each. Only a SID's further new levels, those after
// the first that differs from the previous SID, stay varints; they
// follow the columns, whose heads say how many there are.
// Monitoring data is periodic, so a block's span and the gap to the
// block before it are coded as their distance from what the file's
// period predicts — the sensor's jitter, not its period. The blocks in
// turn are anchored in the index — first timestamp = min, the last one
// of a block of two or more entries = max, and the line through them is
// what the line codings store their residuals against; the first write
// version relative to baseVer, a clock-coded section's first step
// against stampPeriod (in ticks: the writer's round, see
// runFileWriter), the width codings' values at tsWidth and stampWidth
// bits — so a file of many tiny series, the fan-in shape, pays a few
// bytes per series, and no timestamp twice.
//
// Integrity is layered: the footer CRC covers the index, and every page
// carries its CRC in the index, so a cold read verifies exactly what it
// touches — the page of the block it wants. A page is a run of
// consecutive blocks in file order (pageMin, closesPage), so the many
// tiny blocks of a fan-in file share a CRC while a full block keeps its
// own.
//
// Every format before v7 is refused at open by name, with its way out
// (errRunFileOld, oldRunRoutes), and its file is left as it is: the
// builds that read it rewrite it forward or export it. A format newer
// than v7 is refused by name too (errRunFileNewer).

var runMagic = []byte("DCDBRUN7")

// errRunFileOld refuses a format before v7, whose reader is gone;
// errRunFileNewer one a newer build wrote.
var (
	errRunFileOld   = errors.New("run file is in a format this build no longer reads")
	errRunFileNewer = errors.New("run file is in a format newer than this build reads (v7)")
)

// exportRoute is the way out of format v, the last step out of every
// old format: no build rewrites v5 or v6 forward, so the readings move
// as CSV.
func exportRoute(v int) string {
	return fmt.Sprintf("export it with a build that reads v%d (dcdbquery -db DIR, to CSV) and load the CSV into a fresh directory "+
		"with this build's dcdbcsvimport (a dcdbnode directory can instead be started empty and refilled from its replicas by repair); "+
		"see \"Upgrading v%d run files\" in internal/store/README.md", v, v)
}

// compactRoute is the step out of v3 and v4 into v5.
var compactRoute = "open the directory once, writable, with a build that reads v3, v4 and v5, and compact it " +
	"(an agent data directory: dcdbconfig -db DIR compact); then " + exportRoute(5)

// oldRunRoutes[v] is the way out of format v: a writable open with each
// build that rewrites the files one format forward, then compactRoute,
// then exportRoute.
var oldRunRoutes = [...]string{
	1: "open the directory once, writable, with a build that still reads v1, then once with a build that still reads v2; then " + compactRoute,
	2: "open the directory once, writable, with a build that still reads v2; then " + compactRoute,
	3: compactRoute,
	4: compactRoute,
	5: exportRoute(5),
	6: exportRoute(6),
}

const (
	runMagicLen  = 8
	runFooterLen = 16

	// Smallest tombstone, for validating the count before allocating: a
	// SID may be its header byte alone.
	minTombLen = 1 + 1 // sid, cutoff

	// pageMin is the length at which a page closes (closesPage).
	pageMin = 1 << 10
)

// closesPage is the page rule: a page that starts at start closes at
// end, the end of one of its blocks, when end lies pageMin or more past
// start or the next block — of length next, 0 after the last — is
// pageMin or longer, and so a page of its own. The last page closes at
// the end of the data.
func closesPage(start, end, next uint64) bool {
	return end-start >= pageMin || next >= pageMin || next == 0
}

// blockMeta locates one block inside a run file and carries the
// always-resident rejection data: entry count and [min,max] timestamp
// bounds. A cold read fetches and checks the block's page, which it
// carries too: offset, length and CRC.
type blockMeta struct {
	off      uint64
	length   uint32
	count    uint32
	min, max int64
	pageOff  uint64
	pageLen  uint32
	crc      uint32 // of the page
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
	base           blockBase     // what the file's blocks decode against, and how
	period         uint64        // what block spans and gaps are coded against
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
	// The blocks stream out before the file's version range is known, so
	// base is fixed by the blocks as they come: its version by the first
	// block that carries a version section (to that block's first
	// non-zero version), its stamp period by the first block of two or
	// more entries that carries a stamp section (to the distance in ticks
	// between its first two versions — a round of the writer's loop on a
	// fan-in load — or 0 when either is off the tick). No block before
	// that one has a clock-coded section that takes a step. Each width by
	// the first block with two or more values to pack in its coding, to
	// what they need: the ts width by the first block of four or more
	// entries, the stamp width by the first of three or more that carries
	// a stamp section (0 when a stamp is off the tick). Until then it is
	// noWidth, which no block takes; a block with no value to pack never
	// takes a width coding, its sizes tied with the coding before it.
	base       blockBase
	stampFixed bool

	cur      seriesIndex
	open     bool
	buf      []entry // pending entries of the open series (≤ blockEntries)
	blockBuf []byte  // encode scratch, reused across blocks

	pageOff uint64        // where the open page starts
	pageCRC uint32        // of the open page's bytes so far
	pages   []writtenPage // the closed ones

	written runBytes    // so far
	met     *runMetrics // told of written once the file is committed; may be nil
}

// writtenPage is one closed page of the file being written.
type writtenPage struct {
	off      uint64
	len, crc uint32
}

// runBytes is where the bytes of a run file went, besides the magic,
// the footer and each block's flags byte.
type runBytes struct {
	streams blockSizes // summed over the blocks
	index   int
	blocks  [4][4]int // block count by [timestamp coding][value coding]
	stamped [4]int    // blocks with a stamp section by its coding
}

// count adds one block with the given flags byte (v7 layout) and stream
// sizes.
func (b *runBytes) count(flags byte, sz blockSizes) {
	b.streams.ts += sz.ts
	b.streams.stamps += sz.stamps
	b.streams.values += sz.values
	c := codingOf(flags)
	b.blocks[c.ts][c.values]++
	if c.sections != 0 {
		b.stamped[c.stamps]++
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
		buf:  make([]entry, 0, blockEntries),
		met:  met,
		base: blockBase{tsWidth: noWidth, stampWidth: noWidth},
	}
	if _, err := w.bw.Write(runMagic); err != nil {
		w.abort()
		return nil, err
	}
	w.off, w.pageOff = runMagicLen, runMagicLen
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
	w.fixBase()
	var sz blockSizes
	w.blockBuf, sz = encodeBlock(w.blockBuf[:0], w.buf, w.base)
	w.written.count(w.blockBuf[0], sz)
	if w.off > w.pageOff && closesPage(w.pageOff, w.off, uint64(len(w.blockBuf))) {
		w.closePage()
	}
	m := blockMeta{
		off:    w.off,
		length: uint32(len(w.blockBuf)),
		count:  uint32(len(w.buf)),
		min:    w.buf[0].ts,
		max:    w.buf[len(w.buf)-1].ts,
	}
	if _, err := w.bw.Write(w.blockBuf); err != nil {
		return err
	}
	w.pageCRC = crc32.Update(w.pageCRC, crc32.IEEETable, w.blockBuf)
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

// fixBase fixes what of the file's base the pending block is the first
// to decide (see runFileWriter.base).
func (w *runFileWriter) fixBase() {
	b, es := &w.base, w.buf
	if b.ver != 0 && w.stampFixed && b.stampWidth != noWidth && b.tsWidth != noWidth {
		return
	}
	if b.tsWidth == noWidth && len(es) > 3 {
		b.tsWidth = int8(scanTimestamps(es, 0).bits)
	}
	sections := stampSections(es)
	if sections == 0 {
		return
	}
	if b.ver == 0 && sections&blockFlagVersion != 0 {
		for _, e := range es {
			if e.ver != 0 {
				b.ver = e.ver
				break
			}
		}
	}
	if !w.stampFixed && len(es) > 1 {
		w.stampFixed = true
		if v0, v1 := es[0].ver, es[1].ver; v0%versionTick == 0 && v1%versionTick == 0 {
			b.stampPeriod = int64(v1/versionTick - v0/versionTick)
		}
	}
	if b.stampWidth == noWidth && len(es) > 2 {
		b.stampWidth = clockWidth(es, sections, *b)
	}
}

// closePage seals the open page, which ends where the next block will
// start.
func (w *runFileWriter) closePage() {
	w.pages = append(w.pages, writtenPage{off: w.pageOff, len: uint32(w.off - w.pageOff), crc: w.pageCRC})
	w.pageOff, w.pageCRC = w.off, 0
}

// placeBlocks tells every block of the file which page it lies in, once
// the last page is closed.
func (w *runFileWriter) placeBlocks() {
	p := 0
	for i := range w.series {
		for j := range w.series[i].blocks {
			m := &w.series[i].blocks[j]
			for m.off >= w.pages[p].off+uint64(w.pages[p].len) {
				p++
			}
			m.pageOff, m.pageLen, m.crc = w.pages[p].off, w.pages[p].len, w.pages[p].crc
		}
	}
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
// the committed file; a failed directory fsync is an error.
func (w *runFileWriter) finish(tombs map[core.SensorID]int64) (runFileMeta, *runIndex, error) {
	if w.open {
		return runFileMeta{}, nil, fmt.Errorf("store: finish with a series open")
	}
	fail := func(err error) (runFileMeta, *runIndex, error) {
		w.abort()
		return runFileMeta{}, nil, err
	}
	if w.off > w.pageOff {
		w.closePage()
	}
	w.placeBlocks()
	// A width no block fixed was taken by no block: the index states 0.
	w.base.tsWidth, w.base.stampWidth = max(w.base.tsWidth, 0), max(w.base.stampWidth, 0)
	idx := &runIndex{
		minSeq: w.minSeq, maxSeq: w.maxSeq, tombs: tombs, series: w.series,
		dataLen: int64(w.off), base: w.base, period: choosePeriod(w.series),
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
	if err := fsutil.SyncDir(w.dir); err != nil {
		// In place, but the name may not survive a crash: the caller
		// keeps what the file replaces and retries.
		return runFileMeta{}, nil, err
	}
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

// sidLevels is how id is level-coded against prev, the SID before it
// in its list: it repeats prev's first shared levels, and its levels
// from end on are zero.
func sidLevels(prev, id core.SensorID) (shared, end int) {
	for shared < core.MaxTopicLevels && id.Level(shared) == prev.Level(shared) {
		shared++
	}
	end = core.MaxTopicLevels
	for end > shared && id.Level(end-1) == 0 {
		end--
	}
	return shared, end
}

// appendSID level-codes id against the previous SID of its list.
func appendSID(b []byte, prev, id core.SensorID) []byte {
	shared, end := sidLevels(prev, id)
	b = append(b, byte(shared<<4|(end-shared)))
	for l := shared; l < end; l++ {
		b = binary.AppendUvarint(b, uint64(id.Level(l)))
	}
	return b
}

// predictedSpan is the span a block of count entries has at the given
// period, (count-1)·period; false when that leaves int64.
func predictedSpan(count, period uint64) (uint64, bool) {
	if count < 2 {
		return 0, true
	}
	if period > math.MaxInt64/(count-1) {
		return 0, false
	}
	return (count - 1) * period, true
}

// The columns of an index, in the order they are stored: what each
// series' record and each block's length and bounds are stored as, each
// column one frame over the file.
const (
	colHead   = iota // per series: its SID's head, shared<<4 | n
	colStep          // per series of n ≥ 1: its level shared minus the previous SID's
	colCount         // per series: its entry count
	colLength        // per block: its length
	colFirst         // per series: its first block's min - baseTS
	colGap           // per later block: (min - the previous block's max) - period
	colSpan          // per block of two or more entries: (max - min) - (count-1)·period
	indexCols
)

var indexColNames = [indexCols]string{"head", "step", "count", "length", "first-gap", "gap", "span"}

// boundColumns returns the bound columns of series with period, which
// predictedSpan takes for every block's count; the 64-bit differences,
// so any pair of bounds round-trips. The other columns are left empty.
func boundColumns(series []seriesIndex, baseTS int64, period uint64) (cols [indexCols][]int64) {
	for _, se := range series {
		for j, m := range se.blocks {
			if j == 0 {
				cols[colFirst] = append(cols[colFirst], int64(uint64(m.min)-uint64(baseTS)))
			} else {
				cols[colGap] = append(cols[colGap], int64(uint64(m.min)-uint64(se.blocks[j-1].max)-period))
			}
			if m.count > 1 {
				pred, _ := predictedSpan(uint64(m.count), period)
				cols[colSpan] = append(cols[colSpan], int64(uint64(m.max)-uint64(m.min)-pred))
			}
		}
	}
	return cols
}

// columnFrame returns the frame a column is stored in.
func columnFrame(vs []int64) frame {
	s := newFrameStats()
	for _, v := range vs {
		s.add(v)
	}
	return s.frame()
}

// appendColumn appends the frame of a column.
func appendColumn(b []byte, vs []int64) []byte {
	if len(vs) == 0 {
		return b // a frame of no values
	}
	f := columnFrame(vs)
	bw := f.begin(b)
	for i := 0; i < len(vs) && f.width > 0; i++ {
		f.pack(&bw, vs[i])
	}
	return bw.finish()
}

// choosePeriod picks the period an index codes its bounds against: the
// median step (max-min)/(count-1) over the blocks of two or more
// entries, or 0, whichever makes the index shorter. A period too long
// to predict a full block's span with is no candidate.
func choosePeriod(series []seriesIndex) uint64 {
	var steps []uint64
	for _, se := range series {
		for _, m := range se.blocks {
			if m.count > 1 {
				steps = append(steps, (uint64(m.max)-uint64(m.min))/uint64(m.count-1))
			}
		}
	}
	if len(steps) == 0 {
		return 0
	}
	slices.Sort(steps)
	p := steps[len(steps)/2]
	if _, ok := predictedSpan(blockEntries, p); !ok || boundsLen(series, p) >= boundsLen(series, 0) {
		return 0
	}
	return p
}

// boundsLen is what the fields that depend on the period take in an
// index with period p: the period and the gap and span columns.
func boundsLen(series []seriesIndex, p uint64) int {
	cols := boundColumns(series, 0, p)
	n := uvarintLen(p)
	for _, c := range []int{colGap, colSpan} {
		n += columnFrame(cols[c]).size(len(cols[c]))
	}
	return n
}

// pageCloses applies the page rule to the blocks of series in file
// order: whether each one closes its page.
func pageCloses(series []seriesIndex) []bool {
	var lens []uint64
	for _, se := range series {
		for _, m := range se.blocks {
			lens = append(lens, uint64(m.length))
		}
	}
	closes := make([]bool, len(lens))
	start, end := uint64(0), uint64(0)
	for i, n := range lens {
		end += n
		next := uint64(0)
		if i+1 < len(lens) {
			next = lens[i+1]
		}
		if closes[i] = closesPage(start, end, next); closes[i] {
			start = end
		}
	}
	return closes
}

// appendRunIndex serialises an index section in format v7. The block
// that closes a page states the page's CRC, which every block of the
// page carries.
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
	b = binary.AppendUvarint(b, idx.period)
	b = binary.AppendUvarint(b, zigzag(idx.base.stampPeriod))
	b = append(b, byte(idx.base.tsWidth), byte(idx.base.stampWidth))
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
	cols := boundColumns(idx.series, baseTS, idx.period)
	var levels []byte
	prev = core.SensorID{}
	for _, se := range idx.series {
		shared, end := sidLevels(prev, se.id)
		cols[colHead] = append(cols[colHead], int64(shared<<4|(end-shared)))
		if end > shared {
			cols[colStep] = append(cols[colStep], int64(se.id.Level(shared))-int64(prev.Level(shared)))
			for l := shared + 1; l < end; l++ {
				levels = binary.AppendUvarint(levels, uint64(se.id.Level(l)))
			}
		}
		prev = se.id
		cols[colCount] = append(cols[colCount], int64(se.count))
		for _, m := range se.blocks {
			cols[colLength] = append(cols[colLength], int64(m.length))
		}
	}
	for _, col := range cols {
		b = appendColumn(b, col)
	}
	b = append(b, levels...)
	closes := pageCloses(idx.series)
	for _, se := range idx.series {
		for _, m := range se.blocks {
			if closes[0] {
				b = binary.BigEndian.AppendUint32(b, m.crc)
			}
			closes = closes[1:]
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

func (r *indexReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.rest() < 1 {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// sid decodes one SID coded against prev.
func (r *indexReader) sid(prev core.SensorID) core.SensorID {
	if r.err != nil {
		return core.SensorID{}
	}
	if r.rest() < 1 {
		r.fail("truncated at byte %d", r.off)
		return core.SensorID{}
	}
	h := r.b[r.off]
	shared, n := int(h>>4), int(h&15)
	if shared+n > core.MaxTopicLevels {
		r.fail("has a malformed sensor id at byte %d", r.off)
		return core.SensorID{}
	}
	r.off++
	id := prev.Prefix(shared)
	for l := shared; l < shared+n; l++ {
		at := r.off
		code := r.uvarint()
		if code > math.MaxUint16 {
			r.fail("has a sensor id level code above 0xffff at byte %d", at)
		}
		id = id.WithLevel(l, uint16(code))
	}
	return id
}

// addDelta returns base+d, reporting false when the sum leaves int64
// (the wrapped sum of a non-negative delta lands below base).
func addDelta(base int64, d uint64) (int64, bool) {
	v := int64(uint64(base) + d)
	return v, v >= base
}

// parseRunIndex decodes and validates an index section. dataLen is the
// file offset where the index begins; the blocks must tile the data
// section exactly. Each column is read where it lies, its length
// derived from the columns before it — the steps' from the heads, the
// lengths' and the bounds' from the counts — and the pages from the
// lengths. A column of width 0 holds any number of values in no bytes,
// so no count is bounded by the index's bytes: the series and block
// counts are checked against the data section, where every block takes
// blockMinLen bytes or more, before anything is sized from them. Every
// product and bound is checked against overflow. A one-entry block has
// no span entry, its one timestamp being its min and its max, so the
// bounds a cold read rejects blocks by are those the block decodes to.
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
	idx.period = r.uvarint()
	idx.base.stampPeriod = unzigzag(r.uvarint())
	tsWidth, stampWidth := r.u8(), r.u8()
	tombCount := r.uvarint()
	seriesCount := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if idx.maxSeq = idx.minSeq + span; idx.maxSeq < idx.minSeq {
		return nil, fmt.Errorf("store: run index span overflows")
	}
	if idx.period > math.MaxInt64 {
		return nil, fmt.Errorf("store: run index period overflows")
	}
	if tsWidth > 64 || stampWidth > 64 {
		return nil, fmt.Errorf("store: run index widths %d and %d, above 64", tsWidth, stampWidth)
	}
	idx.base.tsWidth, idx.base.stampWidth = int8(tsWidth), int8(stampWidth)
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
	maxBlocks := uint64(dataLen-runMagicLen) / blockMinLen
	if seriesCount > maxBlocks {
		return nil, fmt.Errorf("store: run index series count overflows data section")
	}
	// open opens the next columns in order, of n values each.
	var cols [indexCols]frameReader
	rest, opened := b[r.off:], 0
	open := func(n ...uint64) (err error) {
		for _, n := range n {
			if rest, err = cols[opened].open(rest, int(n)); err != nil {
				return fmt.Errorf("store: run index %s column: %w", indexColNames[opened], err)
			}
			opened++
		}
		return nil
	}
	if err := open(seriesCount); err != nil {
		return nil, err
	}
	// A pass over a copy of the heads: how many series state a step.
	steps, heads := uint64(0), cols[colHead]
	for range seriesCount {
		h := heads.next()
		if h>>4+h&15 > core.MaxTopicLevels {
			return nil, fmt.Errorf("store: run index has a malformed sensor id head %#x", h)
		}
		if h&15 != 0 {
			steps++
		}
	}
	if err := open(steps, seriesCount); err != nil {
		return nil, err
	}
	// A pass over a copy of the counts: how many blocks there are, and
	// how many of them have two entries or more.
	blocks, spans, counts := uint64(0), uint64(0), cols[colCount]
	for range seriesCount {
		n := counts.next()
		if n == 0 {
			return nil, fmt.Errorf("store: run index has empty series")
		}
		k := (n-1)/blockEntries + 1
		if k > maxBlocks-blocks {
			return nil, fmt.Errorf("store: run index block count overflows data section")
		}
		blocks, spans = blocks+k, spans+k-1
		if n-(k-1)*blockEntries > 1 {
			spans++
		}
	}
	if err := open(blocks, seriesCount, blocks-seriesCount, spans); err != nil {
		return nil, err
	}
	levels := &indexReader{b: rest}
	read := uint64(0) // blocks whose length was read
	nextLength := func() uint64 {
		if read == blocks {
			return 0
		}
		read++
		return cols[colLength].next()
	}
	idx.series = make([]seriesIndex, seriesCount)
	var prev core.SensorID
	off := uint64(runMagicLen) // blocks tile the data section in index order
	pageStart, pages := off, 0
	next := nextLength()
	for i := range idx.series {
		se := &idx.series[i]
		h := cols[colHead].next()
		shared, n := int(h>>4), int(h&15)
		se.id = prev.Prefix(shared)
		for l := shared; l < shared+n; l++ {
			var code uint64
			if l == shared {
				code = uint64(prev.Level(l)) + cols[colStep].next()
			} else {
				code = levels.uvarint()
			}
			if code > math.MaxUint16 {
				return nil, fmt.Errorf("store: run index has a sensor id level code above 0xffff in series %d", i)
			}
			se.id = se.id.WithLevel(l, uint16(code))
		}
		if levels.err != nil {
			return nil, levels.err
		}
		if i > 0 && prev.Compare(se.id) >= 0 {
			return nil, fmt.Errorf("store: run index series out of order")
		}
		prev = se.id
		se.count = cols[colCount].next()
		se.blocks = make([]blockMeta, (se.count-1)/blockEntries+1)
		left, last := se.count, baseTS
		for j := range se.blocks {
			length := next
			next = nextLength()
			count := min(left, blockEntries)
			left -= count
			// Subtraction form: off+length could wrap for a hostile length.
			if length > math.MaxUint32 || length > uint64(dataLen)-off {
				return nil, fmt.Errorf("store: run index block overflows data section")
			}
			if err := checkBlockCount(count, int(length)); err != nil {
				return nil, err
			}
			var gap uint64
			if j == 0 {
				gap = cols[colFirst].next()
			} else {
				gap = idx.period + cols[colGap].next()
			}
			span, ok := predictedSpan(count, idx.period)
			if !ok {
				return nil, fmt.Errorf("store: run index block span prediction overflows")
			}
			if count > 1 {
				span += cols[colSpan].next()
			}
			lo, ok1 := addDelta(last, gap)
			hi, ok2 := addDelta(lo, span)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("store: run index block bounds overflow")
			}
			last = hi
			se.blocks[j] = blockMeta{off: off, length: uint32(length), count: uint32(count), min: lo, max: hi, pageOff: pageStart}
			if off += length; closesPage(pageStart, off, next) {
				pageStart = off
				pages++
			}
		}
		se.min, se.max = se.blocks[0].min, last
	}
	if off != uint64(dataLen) {
		return nil, fmt.Errorf("store: run index blocks cover %d of %d data bytes", off-runMagicLen, dataLen-runMagicLen)
	}
	for c := range cols {
		if err := cols[c].close(); err != nil {
			return nil, fmt.Errorf("store: run index %s column: %w", indexColNames[c], err)
		}
	}
	crcs := rest[levels.off:]
	if len(crcs) < 4*pages {
		return nil, fmt.Errorf("store: run index holds %d bytes of its %d pages' CRCs", len(crcs), pages)
	}
	if len(crcs) > 4*pages {
		return nil, fmt.Errorf("store: run index has %d trailing bytes", len(crcs)-4*pages)
	}
	// The pages, last to first: each ends where the one after it starts.
	start, end := uint64(dataLen), uint64(dataLen)
	for i := len(idx.series) - 1; i >= 0; i-- {
		bs := idx.series[i].blocks
		for j := len(bs) - 1; j >= 0; j-- {
			m := &bs[j]
			if m.pageOff != start {
				start, end = m.pageOff, start
				pages--
			}
			m.pageLen, m.crc = uint32(end-start), binary.BigEndian.Uint32(crcs[4*pages:])
		}
	}
	return idx, nil
}

// runFormat accepts the magic of format v7 and refuses any other: an
// older or a newer format by name, anything else as no run file.
func runFormat(magic []byte) error {
	if string(magic) == string(runMagic) {
		return nil
	}
	if string(magic[:runMagicLen-1]) == "DCDBRUN" {
		switch v := int(magic[runMagicLen-1]) - '0'; {
		case v >= 1 && v < len(oldRunRoutes):
			return fmt.Errorf("%w: it is format v%d (%s); %s", errRunFileOld, v, magic, oldRunRoutes[v])
		case v > 7 && v <= 9:
			return fmt.Errorf("%w: it is format v%d (%s); open it with the build that wrote it or a newer one", errRunFileNewer, v, magic)
		}
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
// surface and the reference decoder tests hold the run-file writer and
// a node's reads against. Counts are validated against the remaining
// length before any allocation, so corrupt input errors out instead of
// panicking or OOMing; a CRC mismatch rejects the file.
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
	checked := uint64(0) // the last page that passed its CRC; no page starts at 0
	for _, se := range idx.series {
		// Grown block by block as each passes its CRC, not sized from
		// se.count: that is the index's claim, and a block of a dozen
		// bytes may claim blockEntries entries.
		var es []entry
		for _, m := range se.blocks {
			if m.pageOff != checked {
				if crc32.ChecksumIEEE(data[m.pageOff:m.pageOff+uint64(m.pageLen)]) != m.crc {
					return nil, fmt.Errorf("store: page at %d CRC mismatch", m.pageOff)
				}
				checked = m.pageOff
			}
			if err := decodeBlock(data[m.off:m.off+uint64(m.length)], m, idx.base, &es); err != nil {
				return nil, err
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
