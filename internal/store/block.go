package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Block codec of run-file format v7, whose blocks are v6's byte for
// byte. A block holds up to blockEntries consecutive entries of one
// series, compressed so a cold read pays I/O and decode cost
// proportional to the queried window, not the retention. The block is
// anchored in the run file's index: its entry count, its first and last
// timestamps (the index entry's min and max) and the file-level base
// write version, stamp period and widths all live there, so the body
// starts at the second entry, stops before the last, and a block of a
// handful of readings carries no absolute header fields of its own.
//
// A block is a flags byte and three streams — timestamps, write stamps,
// values — each byte-aligned, each in one of four codings. The first
// coding of every stream costs whole bytes or control bits per entry
// and wins on blocks of a handful of entries; the others fit what
// monitoring data looks like: sensors sample on a period, so a series
// is a line plus jitter; a batch is stamped once; the coordinator
// stamps on a microsecond clock; readings are integers. The encoder
// sizes every coding and writes the shortest, per stream, per block
// (ties to the lower selector); the choice is recorded in the flags,
// never configured:
//
//	byte 0  : flags
//	          bit 0   : block carries a non-zero expire section
//	          bit 1   : block carries a non-zero write-version section
//	          bits 2-3: timestamps — 0 delta-of-delta varints, 1 line
//	                    at the file's width, 2 line varints, 3 line
//	                    frame
//	          bits 4-5: values — 0 XOR, 1 integer delta frame, 2
//	                    integer line varints, 3 integer line frame
//	          bits 6-7: stamps — 0 varints, 1 runs, 2 clock, 3 clock at
//	                    the file's width
//	          Every block of two or more entries is anchored: its last
//	          timestamp is the index entry's max.
//	ts      : entries 1..count-2 (none for a block of one entry), as
//	          varints: zigzag first delta (entry 1 - index min), then
//	            zigzag delta-of-deltas; or as residuals from the line
//	            through min and max (see line), r_i = ts_i - line_i,
//	          width : the residuals at the file's ts width, packed, no
//	            header — the jitter of a fan-in block's handful of
//	            readings in its bits, not in whole varint bytes; or as
//	          line  : one zigzag varint per residual; or as
//	          line frame: one frame of the residuals. Against its
//	            neighbour an entry's jitter counts twice, against the
//	            line once.
//	stamps  : the expire section (only with flag bit 0; counted from 0)
//	          and the version section (only with flag bit 1; counted
//	          from the file's base version), in that order, both as
//	          varints: one zigzag varint per entry, the delta from the
//	            previous entry's stamp; or both as
//	          runs  : run count uv | first stamp - base zz | frame of the
//	            run lengths | frame of the run-count-1 deltas between
//	            consecutive runs' stamps — a batch is stamped once, so
//	            a 64-reading message is one run; or both as
//	          clock : one zigzag varint per entry in units of
//	            versionTick: the first stamp's distance from the base,
//	            then delta-of-deltas, the first of them against the
//	            file's stamp period — a sensor written once a round
//	            costs its loop's jitter, not the round; or both as
//	          clock width: the same values, the first a zigzag varint,
//	            the rest at the file's stamp width, packed, no header.
//	            The clock codings only when every stamp and
//	            the base are whole multiples of the tick, each tested on
//	            its own: a stamp below the base wraps in uint64, so
//	            (v-base)%tick says nothing.
//	          A block without a section decodes as expire 0 / version 0.
//	values  : all count values, as
//	          XOR   : Gorilla-style bit stream, first value raw; or, only
//	            when every value of the block is integral — finite,
//	            |v| <= 2^53, and float64(int64(v)) has v's exact bits
//	            (so not -0.0, not NaN, not ±Inf), which is what makes
//	            the integer codings bit-identical — as
//	          ints  : first value zz | frame of the count-1 deltas; or as
//	          line  : first zz | last-first zz | one zigzag varint per
//	            residual of values 1..count-2 from the line through
//	            first and last; or as
//	          line frame: first zz | last-first zz | one frame of those
//	            residuals
//
// (uv = uvarint, zz = zigzag uvarint.) The frame is the primitive the
// framed codings share. It stores n integers as
//
//	min zz | divisor uv | width u8 | n × width bits, MSB-first, zero-
//	padded to a byte
//
// where min is the smallest value, divisor the gcd of the values'
// distances from it (1 when they are all equal) and every value is
// min + q·divisor with q below 2^width; width is at most 64. A frame of
// no values is no bytes. The width codings are a frame's packed bits
// alone, the header implied by a width the file states once: min
// -2^(width-1), divisor 1 (widthFrame). A frame header costs more than
// the bits it saves on the two to four values of a fan-in block, a
// varint rounds each 25-bit jitter up to 32. A value the width does
// not hold — one whose zigzag form is wider — rules the coding out for
// its block.
// Point i of the line through a first and a last point count-1 steps
// apart is first + ⌊i·|last-first|/(count-1)⌋, towards last.
// Arithmetic is modulo 2^64 throughout, so timestamps spanning the
// whole int64 range and falling versions survive.
//
// This is the only block layout read: run files of the formats before
// v7 are refused at open (runFormat), and a build before v7 refuses a
// v7 file's magic.
//
// Corruption is caught by the caller's CRC check first; the decoder
// itself must still survive arbitrary bytes (fuzzed) by erroring instead
// of panicking or over-reading.

// blockEntries is the target entry count per block. 512 entries keep a
// block a few KB — small enough that a point query decodes little,
// large enough that a frame header or an XOR window amortizes. The
// writer never exceeds it, so the decoders reject any larger count as
// forged.
const blockEntries = 512

const (
	blockFlagExpire  = 1 << 0
	blockFlagVersion = 1 << 1

	// Where the flags byte holds each stream's coding selector.
	blockTSShift     = 2
	blockValuesShift = 4
	blockStampsShift = 6

	// blockMinLen is the smallest block there is: the flags byte and one
	// integer value that fits a single varint byte.
	blockMinLen = 2
)

// The selectors of the timestamp and the value stream.
const (
	codingFirst     = 0 // ts: delta-of-delta varints; values: XOR
	codingWidth     = 1 // ts: residuals from the line through the ends at the file's ts width
	codingFrame     = 1 // values: a frame of the deltas (integers only)
	codingLine      = 2 // residuals from the line through the ends, varints
	codingLineFrame = 3 // the same residuals in a frame
)

// The selectors of the stamp sections.
const (
	stampVarints    = 0
	stampRuns       = 1
	stampClock      = 2
	stampClockWidth = 3
)

// blockBase is the file-level half of a block's anchor (the per-block
// half is the index entry: count, min and max).
type blockBase struct {
	ver         uint64 // base write version of the file
	stampPeriod int64  // in ticks: what a clock-coded section's first delta is coded against
	// The widths, in bits, of the width codings' zigzag values: of a
	// timestamp residual, of a stamp delta-of-delta. noWidth, which no
	// value fits, while the writer has not fixed them.
	tsWidth, stampWidth int8
}

// noWidth is the width of a width coding the writer has not fixed yet:
// no value fits it, so no block takes the coding.
const noWidth = -1

// packedSize is the length of n values packed at width bits.
func packedSize(n int, width int8) int { return (n*max(int(width), 0) + 7) / 8 }

// widthFrame is the frame a width coding packs its values in, whose
// header the file implies: divisor 1, the file's width, and the
// smallest value that width holds, -2^(width-1), for min — so a value
// fits exactly when its zigzag form has width bits or fewer, and the
// decoder reads the values as a frame's.
func widthFrame(width int8) frame {
	f := frame{div: 1, width: uint(max(width, 0))}
	if width > 0 {
		f.min = -1 << (width - 1)
	}
	return f
}

// blockCoding is what a flags byte says: the stamp sections a block
// carries and each stream's coding. Four fields at most, so the
// compiler keeps it in registers.
type blockCoding struct {
	sections           byte // blockFlagExpire | blockFlagVersion
	ts, values, stamps byte // selectors
}

// flags is c's flags byte.
func (c blockCoding) flags() byte {
	return c.sections | c.ts<<blockTSShift | c.values<<blockValuesShift | c.stamps<<blockStampsShift
}

// codingOf reads a flags byte as it is, unchecked.
func codingOf(flags byte) blockCoding {
	return blockCoding{
		sections: flags & (blockFlagExpire | blockFlagVersion),
		ts:       flags >> blockTSShift & 3,
		values:   flags >> blockValuesShift & 3,
		stamps:   flags >> blockStampsShift,
	}
}

// readFlags reads and checks the flags byte of a block of count entries.
// Every timestamp coding but the first is a line's.
func readFlags(flags byte, count int) (blockCoding, error) {
	c := codingOf(flags)
	if count < 2 && (c.ts != codingFirst || c.values >= codingLine) {
		return c, fmt.Errorf("store: one-entry block coded against a line")
	}
	return c, nil
}

// shortest returns the index of the smallest of sizes, the first of
// equals: the older coding wins a tie.
func shortest(sizes []int) byte {
	best := 0
	for i, n := range sizes {
		if n < sizes[best] {
			best = i
		}
	}
	return byte(best)
}

// zigzag encodes a signed delta so small magnitudes of either sign
// become small unsigned varints.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the length of v's uvarint encoding: seven bits a byte.
// A table, because the choosers size every varint they might write.
func uvarintLen(v uint64) int { return int(uvarintLens[bits.Len64(v)]) }

var uvarintLens = func() (t [65]uint8) {
	for bitLen := range t {
		t[bitLen] = uint8(max(bitLen+6, 7) / 7)
	}
	return t
}()

// bitWriter packs a bit stream MSB-first through a 64-bit accumulator
// flushed eight bytes at a time.
type bitWriter struct {
	buf  []byte
	acc  uint64 // pending bits, MSB-aligned
	used uint   // pending bit count, < 64
}

// writeBits appends the low n bits of v (n <= 64; v has no bits above n).
func (w *bitWriter) writeBits(v uint64, n uint) {
	free := 64 - w.used
	if n < free {
		w.acc |= v << (free - n)
		w.used += n
		return
	}
	over := n - free // bits that do not fit the accumulator
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc|v>>over)
	w.acc, w.used = v<<(64-over), over // a shift by 64 yields 0
}

// finish pads the tail with zero bits to a byte boundary.
func (w *bitWriter) finish() []byte {
	for ; w.used > 0; w.used -= min(w.used, 8) {
		w.buf = append(w.buf, byte(w.acc>>56))
		w.acc <<= 8
	}
	return w.buf
}

// bitReader consumes a bit stream through a 64-bit accumulator refilled
// eight bytes at a time. Reads past the end set err instead of
// panicking; the decoders check err once per entry or per frame.
type bitReader struct {
	buf  []byte
	pos  int    // next byte to load
	acc  uint64 // unconsumed bits, MSB-aligned
	have uint   // live bits in acc
	err  error
}

// refill tops the accumulator up with whole bytes. The word load may
// also OR in the leading bits of the next, not yet counted byte; they
// are that byte's true bits and are ORed in again, identically, when it
// is counted.
func (r *bitReader) refill() {
	if len(r.buf)-r.pos >= 8 {
		r.acc |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.have
		n := (64 - r.have) / 8
		r.pos += int(n)
		r.have += 8 * n
		return
	}
	for r.have <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.have)
		r.pos++
		r.have += 8
	}
}

// take reads n <= 56 bits (a refill guarantees only 57).
func (r *bitReader) take(n uint) uint64 {
	if r.have < n {
		r.refill()
		if r.have < n {
			if r.err == nil {
				r.err = fmt.Errorf("store: block bit stream truncated")
			}
			return 0
		}
	}
	v := r.acc >> (64 - n)
	r.acc <<= n
	r.have -= n
	return v
}

func (r *bitReader) readBits(n uint) uint64 {
	if n <= 32 {
		return r.take(n)
	}
	hi := r.take(n - 32)
	return hi<<32 | r.take(32)
}

func (r *bitReader) readBit() uint64 { return r.take(1) }

// drained reports whether only finish()'s padding remains: no unread
// byte, and fewer than eight bits, all zero.
func (r *bitReader) drained() error {
	if r.err != nil {
		return r.err
	}
	if unread := len(r.buf) - r.pos + int(r.have/8); unread > 0 {
		return fmt.Errorf("store: %d trailing bytes in block bit stream", unread)
	}
	if r.have > 0 && r.acc>>(64-r.have) != 0 {
		return fmt.Errorf("store: block padding bits not zero")
	}
	return nil
}

// frameStats gathers, in one pass over the values a frame is to hold,
// what its header is made of. Start from newFrameStats.
type frameStats struct {
	n        int
	min, max int64
	first    int64
	// gcd of the distances from first — equally the gcd of the
	// distances from min, or from any other member. 0 while every value
	// equals first.
	gcd uint64
}

func newFrameStats() frameStats { return frameStats{min: math.MaxInt64, max: math.MinInt64} }

func (s *frameStats) add(v int64) {
	if s.n++; s.gcd != 1 {
		s.refine(v)
	}
	s.min, s.max = min(s.min, v), max(s.max, v)
}

// refine folds v into the gcd; add stops calling it once that is 1.
func (s *frameStats) refine(v int64) {
	if s.n == 1 {
		s.first = v
	}
	// The true distance between two int64 always fits a uint64.
	d := uint64(v) - uint64(s.first)
	if v < s.first {
		d = -d
	}
	// d first: a value the gcd already divides costs one division.
	a, b := d, s.gcd
	for b != 0 {
		a, b = b, a%b
	}
	s.gcd = a
}

// frame is the header of a frame: each of its values is min + q·div
// with q below 2^width.
type frame struct {
	min   int64
	div   uint64
	width uint
}

func (s *frameStats) frame() frame {
	if s.n == 0 {
		return frame{div: 1}
	}
	f := frame{min: s.min, div: max(s.gcd, 1)}
	f.width = uint(bits.Len64((uint64(s.max) - uint64(s.min)) / f.div))
	return f
}

// size is the encoded length of the frame over n values.
func (f frame) size(n int) int {
	if n == 0 {
		return 0
	}
	return uvarintLen(zigzag(f.min)) + uvarintLen(f.div) + 1 + (n*int(f.width)+7)/8
}

// begin appends the header and returns the writer the n values are then
// packed into, in order, with pack; its finish closes the frame. Not for
// n == 0, which encodes as nothing. At width 0 — a periodic sensor's
// deltas, run lengths all alike — there is nothing to pack and callers
// skip the pass.
func (f frame) begin(dst []byte) bitWriter {
	dst = binary.AppendUvarint(dst, zigzag(f.min))
	dst = binary.AppendUvarint(dst, f.div)
	return bitWriter{buf: append(dst, byte(f.width))}
}

func (f frame) pack(w *bitWriter, v int64) {
	q := uint64(v) - uint64(f.min)
	if f.div != 1 {
		q /= f.div
	}
	w.writeBits(q, f.width)
}

// frameReader yields the values of one frame in order.
type frameReader struct {
	min, div uint64
	width    uint
	buf      []byte   // exactly the packed values
	bit      uint     // where in buf the next value starts
	padAt    uint     // where in buf pad starts: fewer than nine bytes remain from there
	pad      [16]byte // buf[padAt:], zero-padded
}

// open parses the frame of n values at the head of data into fr, a
// reader over it, and returns the bytes that follow it. (A method, not a
// constructor: the reader is filled where it lives.)
func (fr *frameReader) open(data []byte, n int) (rest []byte, err error) {
	if n == 0 {
		return data, nil
	}
	m, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, errFrameTruncated
	}
	off := k
	fr.min = uint64(unzigzag(m))
	if fr.div, k = binary.Uvarint(data[off:]); k <= 0 || off+k >= len(data) {
		return nil, errFrameTruncated
	}
	off += k
	fr.width = uint(data[off])
	off++
	if fr.div == 0 || fr.width > 64 {
		return nil, fmt.Errorf("store: block frame has divisor %d, width %d", fr.div, fr.width)
	}
	return fr.openPacked(data[off:], n)
}

// openPacked is open past the header: it makes fr, whose min, divisor
// and width are set, a reader over the n values packed at the head of
// data — a frame's or, at divisor 1 and min 0, a width coding's — and
// returns the bytes that follow them.
func (fr *frameReader) openPacked(data []byte, n int) (rest []byte, err error) {
	packed := (uint64(n)*uint64(fr.width) + 7) / 8 // width <= 64: cannot overflow
	if packed > uint64(len(data)) {
		return nil, errFrameTruncated
	}
	fr.buf = data[:packed]
	if packed >= 8 {
		fr.padAt = uint(packed - 8)
		binary.BigEndian.PutUint64(fr.pad[:], binary.BigEndian.Uint64(fr.buf[fr.padAt:]))
	} else {
		for i, b := range fr.buf {
			fr.pad[i] = b
		}
	}
	return data[packed:], nil
}

// openWidth opens a reader over the n values a width coding packed at
// width bits at the head of data (widthFrame).
func (fr *frameReader) openWidth(data []byte, n int, width int8) ([]byte, error) {
	if width < 0 || width > 64 {
		return nil, fmt.Errorf("store: block width coding at width %d", width)
	}
	f := widthFrame(width)
	*fr = frameReader{min: uint64(f.min), div: 1, width: f.width}
	return fr.openPacked(data, n)
}

var errFrameTruncated = errors.New("store: block frame truncated")

// next returns the frame's next value; the caller asks for no more than
// the n the frame was opened with. Fixed width makes this a load, a few
// shifts and a multiply — no per-value branch on the data — and small
// enough to inline into the decoders' loops. Nine bytes hold any value
// that starts in the first; near the frame's end they are read from
// its zero-padded copy.
func (f *frameReader) next() uint64 {
	at, shift := f.bit>>3, f.bit&7
	f.bit += f.width
	src := f.buf
	if at >= f.padAt {
		src, at = f.pad[:], at-f.padAt
	}
	w := binary.BigEndian.Uint64(src[at:])<<shift | uint64(src[at+8])>>(8-shift)
	return f.min + w>>(64-f.width)*f.div
}

// close checks, once every value has been read, that the padding after
// them is zero.
func (f *frameReader) close() error {
	if used := f.bit & 7; used != 0 && f.buf[len(f.buf)-1]<<used != 0 {
		return fmt.Errorf("store: block frame padding bits not zero")
	}
	return nil
}

// line walks the line through a first and a last point n-1 steps
// apart: point i is first + ⌊i·|span|/(n-1)⌋, towards last, modulo
// 2^64. |span| is divided by n-1 once, into a quotient and a remainder;
// the remainder's share, ⌊i·rem/(n-1)⌋, is carried as a fixed-point
// number with 32 fraction bits. Each step adds the quotient to the
// point and the fraction to the share — two adds and a shift, no
// division, no 128-bit product, and no compare for a decode loop to
// wait on.
//
// The fraction is rem·⌈2^32/(n-1)⌉, so i steps of it overshoot
// i·rem/(n-1) by less than 511·510/2^32 < 2^-13, while a share that is
// not a whole number lies at least 1/(n-1) >= 1/511 below the next
// one: for every n up to blockEntries the share floors to the exact
// integer. A falling line counts its share down from just below 1
// (2^32-1, see next), where the arithmetic shift floors it to -⌊share⌋.
type line struct {
	at, step  uint64 // i·quotient past the first point, signed towards last
	acc, frac int64  // the share in 32.32 fixed point, and its step, signed alike
}

// lineFracs[d] is ⌈2^32/d⌉ for every d a line divides by.
var lineFracs = func() (t [blockEntries]int64) {
	for d := int64(1); d < blockEntries; d++ {
		t[d] = (1<<32 + d - 1) / d
	}
	return t
}()

// newLine starts a line at from; span is last-first modulo 2^64, down
// says it is negative. n is at least 2 and at most blockEntries.
func newLine(from, span uint64, down bool, n int) line {
	n1 := uint64(n - 1)
	if down {
		span = -span
	}
	l := line{at: from, step: span / n1, frac: int64(span%n1) * lineFracs[n1]}
	if down {
		l.step, l.frac, l.acc = -l.step, -l.frac, 1<<32-1
	}
	return l
}

// tsLine is the line of a block's n timestamps: from the index min to
// the index max, never down — a max below min fails the sortedness
// checks.
func tsLine(lo, hi int64, n int) line {
	return newLine(uint64(lo), uint64(hi)-uint64(lo), false, n)
}

// valueLine is the line of a block's n integer values from first to
// first+span.
func valueLine(first, span int64, n int) line {
	return newLine(uint64(first), uint64(span), span < 0, n)
}

// next steps to the next point and returns it. The share's integer
// part is its arithmetic shift: ⌊share⌋ rising; falling, from
// 2^32-1-i·frac, exactly -⌊i·frac/2^32⌋.
func (l *line) next() uint64 {
	l.at += l.step
	l.acc += l.frac
	return l.at + uint64(l.acc>>32)
}

// residual steps to the next point and returns v's distance from it.
func (l *line) residual(v int64) int64 { return int64(uint64(v) - l.next()) }

// blockSizes is where an encoded block's bytes went, besides the one
// flags byte.
type blockSizes struct{ ts, stamps, values int }

// encodeBlock appends the encoded form of es (sorted by timestamp, at
// most blockEntries long) to dst and returns it with the lengths of its
// three streams. The caller records len(es) and the [minTs,maxTs] bounds
// in the block index — the decoder gets the first and the last
// timestamp back from there — and base in the file's index header.
func encodeBlock(dst []byte, es []entry, base blockBase) ([]byte, blockSizes) {
	c := blockCoding{sections: stampSections(es)}
	at := len(dst)
	dst = append(dst, 0) // the flags, once the codings are chosen
	var sz blockSizes

	// The index entry's max is the last timestamp: the stream stops one
	// entry short of it.
	if len(es) > 1 {
		ts := scanTimestamps(es, base.tsWidth)
		if ts.bits > int(base.tsWidth) {
			ts.sizes[codingWidth] = math.MaxInt
		}
		c.ts = shortest(ts.sizes[:])
		dst = appendTimestamps(dst, es, c.ts, base.tsWidth, &ts)
	}
	sz.ts = len(dst) - at - 1

	if c.sections != 0 {
		var exp, ver stampStats // a section left out costs nothing and is on the tick
		if c.sections&blockFlagExpire != 0 {
			exp = scanStamps(es, stampExpire, 0, base.stampPeriod, base.stampWidth)
		}
		if c.sections&blockFlagVersion != 0 {
			ver = scanStamps(es, stampVersion, base.ver, base.stampPeriod, base.stampWidth)
		}
		// One choice for both sections: they are stamped by the same
		// calls, so their runs coincide.
		var sizes [4]int
		for i := range sizes {
			sizes[i] = exp.sizes[i] + ver.sizes[i]
		}
		if exp.offTick || ver.offTick {
			sizes[stampClock], sizes[stampClockWidth] = math.MaxInt, math.MaxInt
		} else if max(exp.bits, ver.bits) > int(base.stampWidth) {
			sizes[stampClockWidth] = math.MaxInt
		}
		c.stamps = shortest(sizes[:])
		if c.sections&blockFlagExpire != 0 {
			dst = appendStamps(dst, es, stampExpire, 0, base.stampPeriod, base.stampWidth, c.stamps, &exp)
		}
		if c.sections&blockFlagVersion != 0 {
			dst = appendStamps(dst, es, stampVersion, base.ver, base.stampPeriod, base.stampWidth, c.stamps, &ver)
		}
	}
	sz.stamps = len(dst) - at - 1 - sz.ts

	vs := scanValues(es)
	dst, c.values = appendValues(dst, es, &vs)
	sz.values = len(dst) - at - 1 - sz.ts - sz.stamps
	dst[at] = c.flags()
	return dst, sz
}

// stampSections returns the stamp sections a block of es carries: the
// expire section when an expiry is not zero, the version section when
// a version is not.
func stampSections(es []entry) (sections byte) {
	for _, e := range es {
		if e.expire != 0 {
			sections |= blockFlagExpire
		}
		if e.ver != 0 {
			sections |= blockFlagVersion
		}
		if sections == blockFlagExpire|blockFlagVersion {
			break
		}
	}
	return sections
}

// clockWidth is the width the clock width coding's values of the stamp
// sections of es need against b, or 0 when a stamp or the base is off
// the tick.
func clockWidth(es []entry, sections byte, b blockBase) int8 {
	var exp, ver stampStats
	if sections&blockFlagExpire != 0 {
		exp = scanStamps(es, stampExpire, 0, b.stampPeriod, 0)
	}
	if sections&blockFlagVersion != 0 {
		ver = scanStamps(es, stampVersion, b.ver, b.stampPeriod, 0)
	}
	if exp.offTick || ver.offTick {
		return 0
	}
	return int8(max(exp.bits, ver.bits))
}

// tsStats sizes the timestamp stream under its four codings, in one
// pass.
type tsStats struct {
	sizes [4]int // by selector; the width coding's as if its values fit
	bits  int    // the width the residuals need
	resid frame
}

// scanTimestamps sizes the timestamp stream of es, two entries or more,
// the width coding at width: the deltas from es[0], the index min, to
// the entry before the last, the index max standing for the last, and
// the residuals from the line through the min and the max.
func scanTimestamps(es []entry, width int8) (s tsStats) {
	body, ln := tsBody(es)
	resid := newFrameStats()
	prev := int64(0)
	var or uint64
	for i := 1; i < len(body); i++ {
		d := body[i].ts - body[i-1].ts
		s.sizes[codingFirst] += uvarintLen(zigzag(d - prev))
		prev = d
		r := ln.residual(body[i].ts)
		resid.add(r)
		z := zigzag(r)
		or |= z
		s.sizes[codingLine] += uvarintLen(z)
	}
	s.bits, s.resid = bits.Len64(or), resid.frame()
	s.sizes[codingWidth] = packedSize(resid.n, width)
	s.sizes[codingLineFrame] = s.resid.size(resid.n)
	return s
}

// tsBody returns the entries of es, two or more, whose timestamps the
// stream carries — from the index min to the one before the index max —
// and the line through the min and the max.
func tsBody(es []entry) (body []entry, ln line) {
	n := len(es)
	return es[:n-1], tsLine(es[0].ts, es[n-1].ts, n)
}

// appendTimestamps writes the stream scanTimestamps sized in the given
// coding, the width coding at width.
func appendTimestamps(dst []byte, es []entry, coding byte, width int8, s *tsStats) []byte {
	body, ln := tsBody(es)
	switch coding {
	case codingFirst:
		prev := int64(0)
		for i := 1; i < len(body); i++ {
			d := body[i].ts - body[i-1].ts
			dst = binary.AppendUvarint(dst, zigzag(d-prev))
			prev = d
		}
		return dst
	case codingLine:
		for i := 1; i < len(body); i++ {
			dst = binary.AppendUvarint(dst, zigzag(ln.residual(body[i].ts)))
		}
		return dst
	}
	if len(body) < 2 {
		return dst // a frame of no values
	}
	f, bw := widthFrame(width), bitWriter{buf: dst}
	if coding == codingLineFrame {
		f = s.resid
		bw = f.begin(dst)
	}
	for i := 1; i < len(body) && f.width > 0; i++ {
		f.pack(&bw, ln.residual(body[i].ts))
	}
	return bw.finish()
}

// stampCol names one of an entry's two write stamps: both are set once
// per insert call, so both are coded by the same two functions.
type stampCol bool

const (
	stampExpire  stampCol = false
	stampVersion stampCol = true
)

func (c stampCol) of(e *entry) uint64 {
	if c == stampVersion {
		return e.ver
	}
	return uint64(e.expire)
}

// runEnd returns where the run of equal stamps that starts at i ends.
func (c stampCol) runEnd(es []entry, i int) int {
	v := c.of(&es[i])
	for i++; i < len(es) && c.of(&es[i]) == v; i++ {
	}
	return i
}

// stampStats sizes one stamp section under the four codings. Its zero
// value is an absent section: no bytes in any coding, on the tick, and
// no bits to fit.
type stampStats struct {
	sizes        [4]int // by selector; the clock width coding's as if its values fit
	offTick      bool   // the clock codings are out: a stamp or the base is off the tick
	bits         int    // the width the clock width coding's packed values need
	runs         int
	lens, deltas frame // of the run lengths, of the runs-1 steps between runs
}

// scanStamps sizes one stamp section of es, counted from base; period is
// the file's stamp period, in ticks, and width its stamp width.
func scanStamps(es []entry, col stampCol, base uint64, period int64, width int8) (s stampStats) {
	lens, deltas := newFrameStats(), newFrameStats()
	prev := base
	s.offTick = base%versionTick != 0
	step := period // the clock coding's previous delta, in ticks
	var or uint64  // of the clock values after the first
	for i := 0; i < len(es); {
		end := col.runEnd(es, i)
		v := col.of(&es[i])
		d := int64(v - prev)
		// A run costs the varint coding its step and a zero byte for
		// every further entry.
		s.sizes[stampVarints] += uvarintLen(zigzag(d)) + end - i - 1
		lens.add(int64(end - i))
		if i == 0 {
			s.sizes[stampRuns] = uvarintLen(zigzag(d))
		} else {
			deltas.add(d)
		}
		// The clock coding pays the run's delta-of-delta, then, within
		// the run, one for stopping and a zero byte for every further
		// entry. The first stamp's distance from the base is no delta.
		s.offTick = s.offTick || v%versionTick != 0
		dt := int64(v/versionTick - prev/versionTick)
		if i == 0 {
			z := uvarintLen(zigzag(dt))
			s.sizes[stampClock] += z
			s.sizes[stampClockWidth] = z + packedSize(len(es)-1, width)
		} else {
			z := zigzag(dt - step)
			s.sizes[stampClock] += uvarintLen(z)
			or |= z
			step = dt
		}
		if n := end - i; n > 1 {
			z := zigzag(-step)
			s.sizes[stampClock] += uvarintLen(z) + n - 2
			or |= z
			step = 0
		}
		prev, i = v, end
	}
	s.bits = bits.Len64(or)
	s.runs, s.lens, s.deltas = lens.n, lens.frame(), deltas.frame()
	s.sizes[stampRuns] += uvarintLen(uint64(s.runs)) + s.lens.size(s.runs) + s.deltas.size(s.runs-1)
	return s
}

// appendStamps writes one stamp section of es, counted from base, in
// the given coding; period is the file's stamp period, width its stamp
// width.
func appendStamps(dst []byte, es []entry, col stampCol, base uint64, period int64, width int8, coding byte, s *stampStats) []byte {
	switch coding {
	case stampVarints:
		prev := base
		for i := range es {
			v := col.of(&es[i])
			dst = binary.AppendUvarint(dst, zigzag(int64(v-prev)))
			prev = v
		}
		return dst
	case stampClock, stampClockWidth:
		prev, step := base/versionTick, period
		f, bw := widthFrame(width), bitWriter{}
		for i := range es {
			q := col.of(&es[i]) / versionTick
			d := int64(q - prev)
			switch {
			case i == 0:
				dst = binary.AppendUvarint(dst, zigzag(d))
				bw.buf = dst
			case coding == stampClock:
				dst = binary.AppendUvarint(dst, zigzag(d-step))
			case f.width > 0:
				f.pack(&bw, d-step)
			}
			if i > 0 {
				step = d
			}
			prev = q
		}
		if coding == stampClockWidth {
			return bw.finish()
		}
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(s.runs))
	dst = binary.AppendUvarint(dst, zigzag(int64(col.of(&es[0])-base)))
	lf, df := s.lens, s.deltas
	bw := lf.begin(dst)
	for i := 0; i < len(es) && lf.width > 0; {
		end := col.runEnd(es, i)
		lf.pack(&bw, int64(end-i))
		i = end
	}
	dst = bw.finish()
	if s.runs == 1 {
		return dst
	}
	bw = df.begin(dst)
	for i := col.runEnd(es, 0); i < len(es) && df.width > 0; i = col.runEnd(es, i) {
		df.pack(&bw, int64(col.of(&es[i])-col.of(&es[i-1])))
	}
	return bw.finish()
}

// integral reports whether v is an integer whose int64 form converts
// back to v's exact bits. The range is checked first: converting a NaN
// or an out-of-range float to int64 is implementation-defined.
func integral(v float64) (int64, bool) {
	if !(v >= -(1<<53) && v <= 1<<53) {
		return 0, false
	}
	n := int64(v)
	return n, math.Float64bits(float64(n)) == math.Float64bits(v)
}

// valueStats sizes the value stream under its four codings, in one
// pass. The integer codings exist only for an integral block, and what
// it has for XOR is a floor.
type valueStats struct {
	integral      bool
	first, last   int64
	sizes         [4]int // by selector; the XOR one a floor
	deltas, resid frame
}

// scanValues sizes the value stream of es. The floor under the XOR
// stream's bits lets the common case — an integral block — be known to
// take an integer coding without writing XOR too: a repeated value
// costs XOR one bit, any other at least two control bits and the bits
// its window must span.
func scanValues(es []entry) (s valueStats) {
	n := len(es)
	first, ok := integral(es[0].val)
	last, ok2 := integral(es[n-1].val)
	if !ok || !ok2 {
		return s
	}
	deltas, resid := newFrameStats(), newFrameStats()
	var ln line
	if n > 1 {
		ln = valueLine(first, last-first, n)
	}
	xorBits, lineLen := 64, 0
	prev, prevBits := first, math.Float64bits(es[0].val)
	for i := 1; i < n; i++ {
		v, ok := integral(es[i].val)
		if !ok {
			return valueStats{}
		}
		cur := math.Float64bits(es[i].val)
		if deltas.add(v - prev); v == prev {
			xorBits++
		} else {
			x := cur ^ prevBits
			xorBits += 2 + 64 - min(bits.LeadingZeros64(x), 31) - bits.TrailingZeros64(x)
		}
		if i < n-1 {
			r := ln.residual(v)
			resid.add(r)
			lineLen += uvarintLen(zigzag(r))
		}
		prev, prevBits = v, cur
	}
	s = valueStats{integral: true, first: first, last: last, deltas: deltas.frame(), resid: resid.frame()}
	s.sizes[codingFirst] = (xorBits + 7) / 8
	s.sizes[codingFrame] = uvarintLen(zigzag(first)) + s.deltas.size(deltas.n)
	if n == 1 {
		s.sizes[codingLine], s.sizes[codingLineFrame] = math.MaxInt, math.MaxInt // no line through one point
		return s
	}
	head := uvarintLen(zigzag(first)) + uvarintLen(zigzag(last-first))
	s.sizes[codingLine], s.sizes[codingLineFrame] = head+lineLen, head+s.resid.size(resid.n)
	return s
}

// appendValues writes the value stream scanValues sized and returns its
// coding: XOR, or the shortest integer coding of an integral block
// unless XOR comes out no longer. The integer sizes are exact, XOR's
// only a floor, so XOR is written — and measured — only when the floor
// lies below the integer coding.
func appendValues(dst []byte, es []entry, s *valueStats) ([]byte, byte) {
	if !s.integral {
		return appendXORValues(dst, es), codingFirst
	}
	coding := codingFrame + shortest(s.sizes[codingFrame:])
	if s.sizes[coding] > s.sizes[codingFirst] {
		at := len(dst)
		if dst = appendXORValues(dst, es); s.sizes[coding] >= len(dst)-at {
			return dst, codingFirst
		}
		dst = dst[:at]
	}
	return appendIntValues(dst, es, coding, s), coding
}

// appendIntValues writes the value stream of an integral block in one of
// the integer codings.
func appendIntValues(dst []byte, es []entry, coding byte, s *valueStats) []byte {
	n := len(es)
	dst = binary.AppendUvarint(dst, zigzag(s.first))
	if coding == codingFrame {
		if n == 1 {
			return dst // a frame of no deltas
		}
		f := s.deltas
		bw := f.begin(dst)
		for i := 1; i < n && f.width > 0; i++ {
			f.pack(&bw, int64(es[i].val)-int64(es[i-1].val))
		}
		return bw.finish()
	}
	// A line coding: the block has two entries or more.
	dst = binary.AppendUvarint(dst, zigzag(s.last-s.first))
	ln := valueLine(s.first, s.last-s.first, n)
	if coding == codingLine {
		for i := 1; i < n-1; i++ {
			dst = binary.AppendUvarint(dst, zigzag(ln.residual(int64(es[i].val))))
		}
		return dst
	}
	if n == 2 {
		return dst // a frame of no residuals
	}
	f := s.resid
	bw := f.begin(dst)
	for i := 1; i < n-1 && f.width > 0; i++ {
		f.pack(&bw, ln.residual(int64(es[i].val)))
	}
	return bw.finish()
}

// appendXORValues writes the Gorilla XOR stream. Control bit 0 = same
// value; 10 = meaningful bits fit the previous window; 11 = new window
// (5 bits leading zeros, 6 bits significant-bit count minus one).
func appendXORValues(dst []byte, es []entry) []byte {
	bw := bitWriter{buf: dst}
	var prevBits uint64
	prevLead, prevSig := uint(0xff), uint(0)
	for i, e := range es {
		cur := math.Float64bits(e.val)
		if i == 0 {
			bw.writeBits(cur, 64)
			prevBits = cur
			continue
		}
		xor := prevBits ^ cur
		prevBits = cur
		if xor == 0 {
			bw.writeBits(0, 1)
			continue
		}
		lead := uint(bits.LeadingZeros64(xor))
		if lead > 31 {
			lead = 31 // 5-bit field; extra leading zeros ride in the payload
		}
		trail := uint(bits.TrailingZeros64(xor))
		sig := 64 - lead - trail
		if prevLead != 0xff && lead >= prevLead && trail >= 64-prevLead-prevSig {
			// Reuse the previous window: cheaper than re-describing it
			// when the meaningful bits still fit inside it.
			bw.writeBits(0b10, 2)
			bw.writeBits(xor>>(64-prevLead-prevSig), prevSig)
			continue
		}
		bw.writeBits(0b11<<11|uint64(lead)<<6|uint64(sig-1), 13)
		bw.writeBits(xor>>trail, sig)
		prevLead, prevSig = lead, sig
	}
	return bw.finish()
}

// blockScratch pools decode output buffers: every cold block decode
// needs a []entry of up to blockEntries, which would otherwise be a
// fresh allocation per block on the query path.
var blockScratch = sync.Pool{
	New: func() any { s := make([]entry, 0, blockEntries); return &s },
}

func getBlockScratch() *[]entry { return blockScratch.Get().(*[]entry) }

func putBlockScratch(s *[]entry) {
	if cap(*s) <= 4*blockEntries { // don't pool oversized one-offs
		*s = (*s)[:0]
		blockScratch.Put(s)
	}
}

// checkBlockCount is the allocation guard shared by the index parser
// and the block decoder: a block never holds more than blockEntries
// entries, so nothing sized from a count exceeds that. The bytes do not
// bound the count: a block of a periodic, once-stamped, constant sensor
// is legitimately blockEntries entries in a dozen bytes — the index
// parser cannot see the flags — so the length need only reach the
// smallest block there is.
func checkBlockCount(count uint64, length int) error {
	if count == 0 || count > blockEntries {
		return fmt.Errorf("store: block entry count %d outside [1,%d]", count, blockEntries)
	}
	if length < blockMinLen {
		return fmt.Errorf("store: block of %d bytes is shorter than the shortest block", length)
	}
	return nil
}

// decodeBlock decodes the block described by the index entry m — its
// entry count, its first timestamp (min) and, for an anchored block,
// its last (max) — into out, appending. It validates that the encoding
// is fully consumed (only zero-bit padding may remain), that timestamps
// are sorted, and errors — never panics — on any malformed input,
// leaving out as it was. The caller is expected to have verified the
// block's CRC first, so an error here means either rot the CRC missed
// or a software bug; both must reject the block rather than serve wrong
// data.
func decodeBlock(raw []byte, m blockMeta, base blockBase, out *[]entry) error {
	if err := checkBlockCount(uint64(m.count), len(raw)); err != nil {
		return err
	}
	n := len(*out)
	*out = append(*out, make([]entry, m.count)...)
	if err := decodeBlockInto(raw, (*out)[n:], m.min, m.max, base); err != nil {
		*out = (*out)[:n]
		return err
	}
	return nil
}

func decodeBlockInto(raw []byte, es []entry, first, last int64, base blockBase) error {
	c, err := readFlags(raw[0], len(es))
	if err != nil {
		return err
	}
	anchored := len(es) > 1
	body := es
	if anchored {
		body = es[:len(es)-1]
	}
	data, err := decodeTimestamps(raw[1:], body, first, last, c.ts, base.tsWidth)
	if err != nil {
		return err
	}
	if anchored {
		// The index's max is covered by the index CRC; a negative last
		// delta is a forged or rotted one.
		if es[len(es)-1].ts = last; last < es[len(es)-2].ts {
			return fmt.Errorf("store: block max %d lies below its second-to-last timestamp %d", last, es[len(es)-2].ts)
		}
	}
	if c.sections&blockFlagExpire != 0 {
		if data, err = decodeStamps(data, es, stampExpire, 0, base, c.stamps); err != nil {
			return err
		}
	}
	if c.sections&blockFlagVersion != 0 {
		if data, err = decodeStamps(data, es, stampVersion, base.ver, base, c.stamps); err != nil {
			return err
		}
	}
	if c.values == codingFirst {
		return decodeXORValues(data, es)
	}
	return decodeIntValues(data, es, c.values)
}

var errTimestampsUnsorted = errors.New("store: block timestamps unsorted")

// decodeTimestamps fills in body[i].ts from the timestamp stream at the
// head of data and returns what follows it. The first timestamp is
// first, not in the stream; the line codings run to last, the entry
// after body; the width coding is at width.
func decodeTimestamps(data []byte, body []entry, first, last int64, coding byte, width int8) ([]byte, error) {
	body[0].ts = first
	var ln line
	if coding != codingFirst {
		ln = tsLine(first, last, len(body)+1)
	}
	if coding == codingWidth || coding == codingLineFrame {
		var fr frameReader
		var rest []byte
		var err error
		if coding == codingWidth {
			rest, err = fr.openWidth(data, len(body)-1, width)
		} else {
			rest, err = fr.open(data, len(body)-1)
		}
		if err != nil {
			return nil, err
		}
		// The sums are unsigned: one past MaxInt64 wraps below its
		// predecessor and fails the same test a forged order does.
		for i := 1; i < len(body); i++ {
			if body[i].ts = int64(ln.next() + fr.next()); body[i].ts < body[i-1].ts {
				return nil, errTimestampsUnsorted
			}
		}
		return rest, fr.close()
	}
	off, delta := 0, int64(0)
	for i := 1; i < len(body); i++ {
		u, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("store: block timestamp stream truncated")
		}
		off += n
		if coding == codingFirst {
			delta += unzigzag(u)
			body[i].ts = body[i-1].ts + delta
		} else {
			body[i].ts = int64(ln.next() + uint64(unzigzag(u)))
		}
		if body[i].ts < body[i-1].ts {
			return nil, errTimestampsUnsorted
		}
	}
	return data[off:], nil
}

// set sets e's stamp to v.
func (c stampCol) set(e *entry, v uint64) {
	if c == stampVersion {
		e.ver = v
	} else {
		e.expire = int64(v)
	}
}

// fill sets the stamp of every entry of es to v.
func (c stampCol) fill(es []entry, v uint64) {
	if c == stampVersion {
		for i := range es {
			es[i].ver = v
		}
		return
	}
	for i := range es {
		es[i].expire = int64(v)
	}
}

var errStampsTruncated = errors.New("store: block stamp section truncated")

// decodeStamps fills in one stamp column of es from the section at the
// head of data, counted from base, in the given coding against the
// file's stamp period and width, and returns what follows it.
func decodeStamps(data []byte, es []entry, col stampCol, base uint64, fb blockBase, coding byte) ([]byte, error) {
	switch coding {
	case stampVarints:
		off, prev := 0, base
		for i := range es {
			u, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return nil, errStampsTruncated
			}
			off += n
			prev += uint64(unzigzag(u))
			col.set(&es[i], prev)
		}
		return data[off:], nil
	case stampClock:
		if base%versionTick != 0 {
			return nil, fmt.Errorf("store: block stamps clock coded against base %d, off the tick", base)
		}
		off, q, step := 0, base/versionTick, fb.stampPeriod
		for i := range es {
			u, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return nil, errStampsTruncated
			}
			off += n
			if i == 0 {
				q += uint64(unzigzag(u))
			} else {
				step += unzigzag(u)
				q += uint64(step)
			}
			col.set(&es[i], q*versionTick)
		}
		return data[off:], nil
	case stampClockWidth:
		if base%versionTick != 0 {
			return nil, fmt.Errorf("store: block stamps clock coded against base %d, off the tick", base)
		}
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errStampsTruncated
		}
		var fr frameReader
		rest, err := fr.openWidth(data[n:], len(es)-1, fb.stampWidth)
		if err != nil {
			return nil, err
		}
		q, step := base/versionTick+uint64(unzigzag(u)), fb.stampPeriod
		col.set(&es[0], q*versionTick)
		for i := 1; i < len(es); i++ {
			step += int64(fr.next())
			q += uint64(step)
			col.set(&es[i], q*versionTick)
		}
		return rest, fr.close()
	}
	nRuns, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errStampsTruncated
	}
	if nRuns == 0 || nRuns > uint64(len(es)) {
		return nil, fmt.Errorf("store: block has %d stamp runs for %d entries", nRuns, len(es))
	}
	step, k := binary.Uvarint(data[n:])
	if k <= 0 {
		return nil, errStampsTruncated
	}
	var lens, deltas frameReader
	data, err := lens.open(data[n+k:], int(nRuns))
	if err != nil {
		return nil, err
	}
	if data, err = deltas.open(data, int(nRuns)-1); err != nil {
		return nil, err
	}
	// Run lengths are at least 1 and sum to exactly the entry count.
	v, i := base+uint64(unzigzag(step)), 0
	for r := uint64(0); r < nRuns; r++ {
		if r > 0 {
			v += deltas.next()
		}
		l := lens.next()
		if l == 0 || l > uint64(len(es)-i) {
			return nil, fmt.Errorf("store: block stamp run of %d entries with %d left", l, len(es)-i)
		}
		col.fill(es[i:i+int(l)], v)
		i += int(l)
	}
	if i != len(es) {
		return nil, fmt.Errorf("store: block stamp runs cover %d of %d entries", i, len(es))
	}
	if err := lens.close(); err != nil {
		return nil, err
	}
	return data, deltas.close()
}

// decodeIntValues decodes a value stream in one of the integer codings,
// which must end with the block.
func decodeIntValues(data []byte, es []entry, coding byte) error {
	n := len(es)
	first, k := binary.Uvarint(data)
	if k <= 0 {
		return errValuesTruncated
	}
	data = data[k:]
	v := unzigzag(first)
	es[0].val = float64(v)
	if coding == codingFrame {
		var fr frameReader
		rest, err := fr.open(data, n-1)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("store: %d trailing bytes after block values", len(rest))
		}
		for i := 1; i < n; i++ {
			v += int64(fr.next())
			es[i].val = float64(v)
		}
		return fr.close()
	}
	// A line coding: readFlags let it through only for two entries or
	// more.
	span, k := binary.Uvarint(data)
	if k <= 0 {
		return errValuesTruncated
	}
	data = data[k:]
	es[n-1].val = float64(v + unzigzag(span))
	ln := valueLine(v, unzigzag(span), n)
	if coding == codingLine {
		for i := 1; i < n-1; i++ {
			u, k := binary.Uvarint(data)
			if k <= 0 {
				return errValuesTruncated
			}
			data = data[k:]
			es[i].val = float64(int64(ln.next() + uint64(unzigzag(u))))
		}
		if len(data) != 0 {
			return fmt.Errorf("store: %d trailing bytes after block values", len(data))
		}
		return nil
	}
	var fr frameReader
	rest, err := fr.open(data, n-2)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("store: %d trailing bytes after block values", len(rest))
	}
	for i := 1; i < n-1; i++ {
		es[i].val = float64(int64(ln.next() + fr.next()))
	}
	return fr.close()
}

var errValuesTruncated = errors.New("store: block value stream truncated")

func decodeXORValues(data []byte, es []entry) error {
	br := bitReader{buf: data}
	var prevBits uint64
	prevLead, prevSig := uint(0xff), uint(0)
	for i := range es {
		if i == 0 {
			prevBits = br.readBits(64)
		} else if br.readBit() == 1 {
			if br.readBit() == 0 {
				if prevLead == 0xff {
					return fmt.Errorf("store: block value stream reuses window before defining one")
				}
				prevBits ^= br.readBits(prevSig) << (64 - prevLead - prevSig)
			} else {
				hdr := br.take(11)
				lead, sig := uint(hdr>>6), uint(hdr&63)+1
				if lead+sig > 64 {
					return fmt.Errorf("store: block value window overflows 64 bits")
				}
				prevBits ^= br.readBits(sig) << (64 - lead - sig)
				prevLead, prevSig = lead, sig
			}
		}
		if br.err != nil {
			return br.err
		}
		es[i].val = math.Float64frombits(prevBits)
	}
	return br.drained()
}
