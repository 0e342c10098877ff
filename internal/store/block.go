package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Block codec of run-file format v3. A block holds up to blockEntries
// consecutive entries of one series, compressed so a cold read pays I/O
// and decode cost proportional to the queried window, not the
// retention. The block is anchored in the run file's index: its entry
// count, its first and last timestamps (the index entry's min and max)
// and the file-level base write version all live there, so the body
// starts at the second entry, stops before the last, and a block of a
// handful of readings carries no absolute header fields of its own.
//
// A block is a flags byte and three streams — timestamps, write stamps,
// values — each byte-aligned, each in one of two or three codings. The
// first coding of every stream costs whole bytes or control bits per
// entry and wins on blocks of a handful of entries; the others fit what
// monitoring data looks like: sensors sample on a period, a batch is
// stamped once, the coordinator stamps on a microsecond clock, readings
// are integers. The encoder sizes every coding and writes the shortest,
// per stream, per block; the choice is recorded in the flags, never
// configured:
//
//	byte 0  : flags
//	          bit 0: block carries a non-zero expire section
//	          bit 1: block carries a non-zero write-version section
//	          bit 2: timestamps are a frame (else varints)
//	          bit 3: the stamp sections are run-length coded
//	          bit 4: values are integer deltas in a frame (else XOR)
//	          bit 5: the stamp sections are clock coded (bits 3 and 5
//	            clear: varints; both set is malformed)
//	          bit 6: the last timestamp is the index entry's max — set
//	            on every block of two or more entries this build writes
//	          bit 7: zero; a decoder refuses what it does not know
//	ts      : the deltas between consecutive timestamps — count-1 of
//	          them, or count-2 with bit 6, the last one following from
//	          the max — as
//	          varints: zigzag first delta (entry 1 - index min), then
//	            zigzag delta-of-deltas; or as
//	          frame : one frame of the deltas — a perfectly periodic
//	            sensor costs no bits per entry, a ms-quantised one
//	            divides its 10^6 out
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
//	            the first delta, then delta-of-deltas — a sensor written
//	            once a round costs its loop's jitter, not the round.
//	            Only when every stamp and the base are whole multiples
//	            of the tick, each tested on its own: a stamp below the
//	            base wraps in uint64, so (v-base)%tick says nothing.
//	          A block without a section decodes as expire 0 / version 0.
//	values  : all count values, as
//	          XOR   : Gorilla-style bit stream, first value raw; or as
//	          ints  : first value zz | frame of the count-1 deltas —
//	            only when every value of the block is integral: finite,
//	            |v| <= 2^53, and float64(int64(v)) has v's exact bits
//	            (so not -0.0, not NaN, not ±Inf), which is what makes
//	            the coding bit-identical
//
// (uv = uvarint, zz = zigzag uvarint.) The frame is the one primitive
// the three second codings share. It stores n integers as
//
//	min zz | divisor uv | width u8 | n × width bits, MSB-first, zero-
//	padded to a byte
//
// where min is the smallest value, divisor the gcd of the values'
// distances from it (1 when they are all equal) and every value is
// min + q·divisor with q below 2^width; width is at most 64. A frame of
// no values is no bytes. Arithmetic is modulo 2^64 throughout, so
// timestamps spanning the whole int64 range and falling versions
// survive.
//
// A block with bits 2-6 clear is exactly what builds before the frame
// codings wrote, one with bits 5-6 clear what builds before the clock
// and the anchored last timestamp wrote; both read unchanged, and an
// older build refuses a block with a bit it does not know ("unknown
// flags").
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
	blockFlagExpire     = 1 << 0
	blockFlagVersion    = 1 << 1
	blockFlagTSFrame    = 1 << 2
	blockFlagStampRuns  = 1 << 3
	blockFlagIntValues  = 1 << 4
	blockFlagStampClock = 1 << 5
	blockFlagLastTS     = 1 << 6

	blockFlagsKnown = blockFlagExpire | blockFlagVersion | blockFlagTSFrame | blockFlagStampRuns | blockFlagIntValues |
		blockFlagStampClock | blockFlagLastTS

	// blockMinLen is the smallest block there is: the flags byte and one
	// integer value that fits a single varint byte.
	blockMinLen = 2
)

// blockBase is the file-level half of a block's anchor (the per-block
// half is the index entry: count, min and max).
type blockBase struct {
	ver uint64 // base write version of the file
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
	buf      []byte // exactly the packed values
	bit      uint   // where in buf the next value starts
}

// openFrame parses the frame of n values at the head of data and
// returns a reader over it and the bytes that follow it.
func openFrame(data []byte, n int) (fr frameReader, rest []byte, err error) {
	if n == 0 {
		return fr, data, nil
	}
	m, k := binary.Uvarint(data)
	if k <= 0 {
		return fr, nil, errFrameTruncated
	}
	off := k
	fr.min = uint64(unzigzag(m))
	if fr.div, k = binary.Uvarint(data[off:]); k <= 0 || off+k >= len(data) {
		return fr, nil, errFrameTruncated
	}
	off += k
	fr.width = uint(data[off])
	off++
	if fr.div == 0 || fr.width > 64 {
		return fr, nil, fmt.Errorf("store: block frame has divisor %d, width %d", fr.div, fr.width)
	}
	packed := (n*int(fr.width) + 7) / 8 // n <= blockEntries: cannot overflow
	if packed > len(data)-off {
		return fr, nil, errFrameTruncated
	}
	fr.buf = data[off : off+packed]
	return fr, data[off+packed:], nil
}

var errFrameTruncated = errors.New("store: block frame truncated")

// next returns the frame's next value; the caller asks for no more than
// the n the frame was opened with. Fixed width makes this a load, two
// shifts and a multiply — no per-value branch on the data.
func (f *frameReader) next() uint64 {
	at, shift := f.bit>>3, f.bit&7
	f.bit += f.width
	var w uint64
	if at+8 <= uint(len(f.buf)) {
		w = binary.BigEndian.Uint64(f.buf[at:]) << shift
		if shift+f.width > 64 { // the value ends in a ninth byte
			w |= uint64(f.buf[at+8]) >> (8 - shift)
		}
	} else {
		for i, b := range f.buf[at:] {
			w |= uint64(b) << (56 - 8*uint(i))
		}
		w <<= shift
	}
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

// blockSizes is where an encoded block's bytes went, besides the one
// flags byte.
type blockSizes struct{ ts, stamps, values int }

// encodeBlock appends the encoded form of es (sorted by timestamp, at
// most blockEntries long) to dst and returns it with the lengths of its
// three streams. The caller records len(es) and the [minTs,maxTs] bounds
// in the block index — the decoder gets the first and the last
// timestamp back from there — and baseVer in the file's index header.
func encodeBlock(dst []byte, es []entry, baseVer uint64) ([]byte, blockSizes) {
	var flags byte
	for _, e := range es {
		if e.expire != 0 {
			flags |= blockFlagExpire
		}
		if e.ver != 0 {
			flags |= blockFlagVersion
		}
		if flags == blockFlagExpire|blockFlagVersion {
			break
		}
	}
	at := len(dst)
	dst = append(dst, 0) // the flags, once the codings are chosen
	var sz blockSizes

	// The index entry's max is the last timestamp: the stream stops one
	// entry short of it.
	body := es
	if len(es) > 1 {
		flags |= blockFlagLastTS
		body = es[:len(es)-1]
	}
	dst, framed := appendTimestamps(dst, body)
	if framed {
		flags |= blockFlagTSFrame
	}
	sz.ts = len(dst) - at - 1

	if flags&(blockFlagExpire|blockFlagVersion) != 0 {
		var exp, ver stampStats // a section left out costs nothing and is on the tick
		if flags&blockFlagExpire != 0 {
			exp = scanStamps(es, stampExpire, 0)
		}
		if flags&blockFlagVersion != 0 {
			ver = scanStamps(es, stampVersion, baseVer)
		}
		// One choice for both sections: they are stamped by the same
		// calls, so their runs coincide.
		coding, best := byte(0), exp.varintLen+ver.varintLen
		if n := exp.runsLen + ver.runsLen; n < best {
			coding, best = blockFlagStampRuns, n
		}
		if n := exp.clockLen + ver.clockLen; n < best && !exp.offTick && !ver.offTick {
			coding = blockFlagStampClock
		}
		flags |= coding
		if flags&blockFlagExpire != 0 {
			dst = appendStamps(dst, es, stampExpire, 0, coding, &exp)
		}
		if flags&blockFlagVersion != 0 {
			dst = appendStamps(dst, es, stampVersion, baseVer, coding, &ver)
		}
	}
	sz.stamps = len(dst) - at - 1 - sz.ts

	dst, ints := appendValues(dst, es)
	if ints {
		flags |= blockFlagIntValues
	}
	sz.values = len(dst) - at - 1 - sz.ts - sz.stamps
	dst[at] = flags
	return dst, sz
}

// appendTimestamps writes the timestamp stream — the deltas from the
// second entry on — as a frame when that is shorter than the varint
// delta-of-deltas, and reports which it wrote.
func appendTimestamps(dst []byte, es []entry) (_ []byte, framed bool) {
	st := newFrameStats()
	varintLen, prev := 0, int64(0)
	for i := 1; i < len(es); i++ {
		d := es[i].ts - es[i-1].ts
		st.add(d)
		varintLen += uvarintLen(zigzag(d - prev))
		prev = d
	}
	if f := st.frame(); f.size(st.n) < varintLen {
		bw := f.begin(dst)
		for i := 1; i < len(es) && f.width > 0; i++ {
			f.pack(&bw, es[i].ts-es[i-1].ts)
		}
		return bw.finish(), true
	}
	prev = 0
	for i := 1; i < len(es); i++ {
		d := es[i].ts - es[i-1].ts
		dst = binary.AppendUvarint(dst, zigzag(d-prev))
		prev = d
	}
	return dst, false
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

// stampStats sizes one stamp section under the three codings. Its zero
// value is an absent section: no bytes in any coding, and on the tick.
type stampStats struct {
	varintLen, runsLen, clockLen int
	offTick                      bool // the clock coding is out: a stamp or the base is off the tick
	runs                         int
	lens, deltas                 frame // of the run lengths, of the runs-1 steps between runs
}

func scanStamps(es []entry, col stampCol, base uint64) (s stampStats) {
	lens, deltas := newFrameStats(), newFrameStats()
	prev := base
	s.offTick = base%versionTick != 0
	step := int64(0) // the clock coding's previous delta, in ticks
	for i := 0; i < len(es); {
		end := col.runEnd(es, i)
		v := col.of(&es[i])
		d := int64(v - prev)
		// A run costs the varint coding its step and a zero byte for
		// every further entry.
		s.varintLen += uvarintLen(zigzag(d)) + end - i - 1
		lens.add(int64(end - i))
		if i == 0 {
			s.runsLen = uvarintLen(zigzag(d))
		} else {
			deltas.add(d)
		}
		// The clock coding pays the run's delta-of-delta, then, within
		// the run, one for stopping and a zero byte for every further
		// entry. The first stamp's distance from the base is no delta.
		s.offTick = s.offTick || v%versionTick != 0
		dt := int64(v/versionTick - prev/versionTick)
		s.clockLen += uvarintLen(zigzag(dt - step))
		if step = dt; i == 0 {
			step = 0
		}
		if n := end - i; n > 1 {
			s.clockLen += uvarintLen(zigzag(-step)) + n - 2
			step = 0
		}
		prev, i = v, end
	}
	s.runs, s.lens, s.deltas = lens.n, lens.frame(), deltas.frame()
	s.runsLen += uvarintLen(uint64(s.runs)) + s.lens.size(s.runs) + s.deltas.size(s.runs-1)
	return s
}

// appendStamps writes one stamp section of es, counted from base, in
// the coding named by its flag bit (0 for the varints).
func appendStamps(dst []byte, es []entry, col stampCol, base uint64, coding byte, s *stampStats) []byte {
	switch coding {
	case 0:
		prev := base
		for i := range es {
			v := col.of(&es[i])
			dst = binary.AppendUvarint(dst, zigzag(int64(v-prev)))
			prev = v
		}
		return dst
	case blockFlagStampClock:
		prev, step := base/versionTick, int64(0)
		for i := range es {
			q := col.of(&es[i]) / versionTick
			d := int64(q - prev)
			dst = binary.AppendUvarint(dst, zigzag(d-step))
			if i > 0 {
				step = d
			}
			prev = q
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

// appendValues writes the value stream: Gorilla XOR, or — when every
// value is integral and it comes out shorter — integer deltas in a
// frame. It reports which.
func appendValues(dst []byte, es []entry) (_ []byte, ints bool) {
	st := newFrameStats() // of the deltas
	first, prev := int64(0), int64(0)
	// A floor under the XOR stream's bits, so that in the common case
	// the integer coding is known to win without writing both: a
	// repeated value costs XOR one bit, any other at least two control
	// bits and the bits its window must span.
	xorBits, prevBits := 64, uint64(0)
	for i := range es {
		n, ok := integral(es[i].val)
		if !ok {
			return appendXORValues(dst, es), false
		}
		cur := math.Float64bits(es[i].val)
		if i == 0 {
			first = n
		} else if st.add(n - prev); n == prev {
			xorBits++
		} else {
			x := cur ^ prevBits
			xorBits += 2 + 64 - min(bits.LeadingZeros64(x), 31) - bits.TrailingZeros64(x)
		}
		prev, prevBits = n, cur
	}
	f, at := st.frame(), len(dst)
	size := uvarintLen(zigzag(first)) + f.size(st.n)
	if size > (xorBits+7)/8 {
		if dst = appendXORValues(dst, es); size >= len(dst)-at {
			return dst, false
		}
		dst = dst[:at]
	}
	dst = binary.AppendUvarint(dst, zigzag(first))
	if st.n == 0 {
		return dst, true
	}
	bw := f.begin(dst)
	prev = first
	for i := 1; i < len(es) && f.width > 0; i++ {
		n := int64(es[i].val)
		f.pack(&bw, n-prev)
		prev = n
	}
	return bw.finish(), true
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
// entry count, its first timestamp (min) and, for a block with the
// anchored last timestamp, its last (max) — into out, appending. It
// validates that the encoding is fully consumed (only zero-bit padding
// may remain), that timestamps are sorted, and errors — never panics —
// on any malformed input, leaving out as it was. The caller is expected
// to have verified the block's CRC first, so an error here means either
// rot the CRC missed or a software bug; both must reject the block
// rather than serve wrong data.
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
	flags := raw[0]
	if flags&^blockFlagsKnown != 0 {
		return fmt.Errorf("store: block has unknown flags %#x", flags)
	}
	coding := flags & (blockFlagStampRuns | blockFlagStampClock)
	if coding == blockFlagStampRuns|blockFlagStampClock {
		return fmt.Errorf("store: block stamps are both run-length and clock coded")
	}
	body := es
	if flags&blockFlagLastTS != 0 {
		if len(es) < 2 {
			return fmt.Errorf("store: one-entry block anchors its last timestamp")
		}
		body = es[:len(es)-1]
	}
	data, err := decodeTimestamps(raw[1:], body, first, flags&blockFlagTSFrame != 0)
	if err != nil {
		return err
	}
	if len(body) < len(es) {
		// The index's max is covered by the index CRC; a negative last
		// delta is a forged or rotted one.
		if es[len(es)-1].ts = last; last < es[len(es)-2].ts {
			return fmt.Errorf("store: block max %d lies below its second-to-last timestamp %d", last, es[len(es)-2].ts)
		}
	}
	if flags&blockFlagExpire != 0 {
		if data, err = decodeStamps(data, es, stampExpire, 0, coding); err != nil {
			return err
		}
	}
	if flags&blockFlagVersion != 0 {
		if data, err = decodeStamps(data, es, stampVersion, base.ver, coding); err != nil {
			return err
		}
	}
	if flags&blockFlagIntValues != 0 {
		return decodeIntValues(data, es)
	}
	return decodeXORValues(data, es)
}

// decodeTimestamps fills in es[i].ts from the timestamp stream at the
// head of data and returns what follows it. The first timestamp is
// first, not in the stream.
func decodeTimestamps(data []byte, es []entry, first int64, framed bool) ([]byte, error) {
	es[0].ts = first
	if framed {
		fr, rest, err := openFrame(data, len(es)-1)
		if err != nil {
			return nil, err
		}
		for i := 1; i < len(es); i++ {
			// The delta is unsigned: a sum past MaxInt64 wraps below its
			// predecessor and fails the same test a forged order does.
			if es[i].ts = es[i-1].ts + int64(fr.next()); es[i].ts < es[i-1].ts {
				return nil, fmt.Errorf("store: block timestamps unsorted")
			}
		}
		return rest, fr.close()
	}
	off, delta := 0, int64(0)
	for i := 1; i < len(es); i++ {
		u, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("store: block timestamp stream truncated")
		}
		off += n
		delta += unzigzag(u)
		if es[i].ts = es[i-1].ts + delta; es[i].ts < es[i-1].ts {
			return nil, fmt.Errorf("store: block timestamps unsorted")
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
// head of data, in the coding named by its flag bit (0 for the
// varints), and returns what follows it.
func decodeStamps(data []byte, es []entry, col stampCol, base uint64, coding byte) ([]byte, error) {
	switch coding {
	case 0:
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
	case blockFlagStampClock:
		if base%versionTick != 0 {
			return nil, fmt.Errorf("store: block stamps clock coded against base %d, off the tick", base)
		}
		off, q, step := 0, base/versionTick, int64(0)
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
	lens, data, err := openFrame(data[n+k:], int(nRuns))
	if err != nil {
		return nil, err
	}
	deltas, data, err := openFrame(data, int(nRuns)-1)
	if err != nil {
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

func decodeIntValues(data []byte, es []entry) error {
	u, n := binary.Uvarint(data)
	if n <= 0 {
		return fmt.Errorf("store: block value stream truncated")
	}
	fr, rest, err := openFrame(data[n:], len(es)-1)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("store: %d trailing bytes after block values", len(rest))
	}
	v := unzigzag(u)
	es[0].val = float64(v)
	for i := 1; i < len(es); i++ {
		v += int64(fr.next())
		es[i].val = float64(v)
	}
	return fr.close()
}

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
