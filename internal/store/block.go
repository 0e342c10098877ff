package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Block codec of run-file format v3 (and, for reading only, of the
// legacy format v2). A block holds up to blockEntries consecutive
// entries of one series, compressed so a cold read pays I/O and decode
// cost proportional to the queried window, not the retention. The block
// is anchored in the run file's index: its entry count, its first
// timestamp (the index entry's min) and the file-level base write
// version all live there, so the body starts at the second entry and a
// block of a handful of readings carries no absolute 9-byte header
// fields of its own:
//
//	byte 0  : flags (bit 0: block carries a non-zero expire section,
//	          bit 1: block carries a non-zero write-version section)
//	ts      : count-1 varints — zigzag first delta (entry 1 - index
//	          min), then zigzag delta-of-deltas (monitoring sensors
//	          sample on a fixed period, so almost every dod is 0 = 1 byte)
//	expires : (only with flag bit 0) zigzag-varint first expire, then
//	          zigzag-varint deltas — omitted entirely for the common
//	          "keep forever" block
//	versions: (only with flag bit 1) zigzag-varint of the first version
//	          minus the file's base version, then zigzag-varint deltas —
//	          omitted entirely for unversioned blocks, which decode as
//	          version 0
//	values  : Gorilla-style XOR bit stream of all count values, starting
//	          byte-aligned after the version section and padded with
//	          zero bits to a byte boundary at the end
//
// A legacy v2 block differs only in where the first entry comes from:
// its timestamp stream opens with the zigzag-varint first timestamp and
// its version section with the absolute uvarint first version
// (blockBase.legacy). Nothing writes that form any more.
//
// Corruption is caught by the caller's CRC check first; the decoder
// itself must still survive arbitrary bytes (fuzzed) by erroring instead
// of panicking or over-reading.

// blockEntries is the target entry count per block. 512 entries keep a
// block a few KB — small enough that a point query decodes little,
// large enough that varint/XOR compression amortizes. The writer never
// exceeds it, so the decoders reject any larger count as forged.
const blockEntries = 512

const (
	blockFlagExpire  = 1
	blockFlagVersion = 2

	// blockFixedLen is what every block costs besides its timestamp
	// stream: the flags byte and the first value's 64 raw bits.
	blockFixedLen = 1 + 8
)

// blockBase is the file-level half of a block's anchor (the per-block
// half is the index entry's count and min).
type blockBase struct {
	ver    uint64 // base write version of the file (v3)
	legacy bool   // format v2: first timestamp and version sit in the block, absolute
}

// zigzag encodes a signed delta so small magnitudes of either sign
// become small unsigned varints.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// bitWriter packs the XOR value stream MSB-first through a 64-bit
// accumulator flushed eight bytes at a time.
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

// bitReader consumes the XOR value stream through a 64-bit accumulator
// refilled eight bytes at a time. Reads past the end set err instead of
// panicking; the decoder checks err once per entry.
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
				r.err = fmt.Errorf("store: block value stream truncated")
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
	if unread := len(r.buf) - r.pos + int(r.have/8); unread > 0 {
		return fmt.Errorf("store: %d trailing bytes after block values", unread)
	}
	if r.have > 0 && r.acc>>(64-r.have) != 0 {
		return fmt.Errorf("store: block value padding bits not zero")
	}
	return nil
}

// encodeBlock appends the encoded form of es (sorted by timestamp, at
// most blockEntries long) to dst and returns it. The caller records
// len(es) and the [minTs,maxTs] bounds in the block index — the decoder
// gets the first timestamp back from there — and baseVer in the file's
// index header.
func encodeBlock(dst []byte, es []entry, baseVer uint64) []byte {
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
	dst = append(dst, flags)

	// Timestamps from the second entry on: first delta, then
	// delta-of-deltas.
	put := func(v uint64) { dst = binary.AppendUvarint(dst, v) }
	prevTS, prevDelta := es[0].ts, int64(0)
	for i, e := range es[1:] {
		d := e.ts - prevTS
		if i == 0 {
			put(zigzag(d))
		} else {
			put(zigzag(d - prevDelta))
		}
		prevTS, prevDelta = e.ts, d
	}

	if flags&blockFlagExpire != 0 {
		prev := int64(0)
		for _, e := range es {
			put(zigzag(e.expire - prev))
			prev = e.expire
		}
	}

	if flags&blockFlagVersion != 0 {
		// Versions within one block are near-monotonic (a run holds a
		// short time window of coordinated writes), and the first one is
		// near the file's base for the same reason, so deltas stay small.
		prev := baseVer
		for _, e := range es {
			put(zigzag(int64(e.ver - prev)))
			prev = e.ver
		}
	}

	// Values: Gorilla XOR. Control bit 0 = same value; 10 = meaningful
	// bits fit the previous window; 11 = new window (5 bits leading
	// zeros, 6 bits significant-bit count minus one).
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

// checkBlockCount is the allocation guard shared by the index parsers
// and the block decoder: a block never holds more than blockEntries
// entries, and every entry after the anchored first one (every entry, in
// a legacy block) costs at least one timestamp-varint byte on top of
// the flags byte and the first value — so a forged count is rejected
// before anything is sized from it. Subtraction form: count is at most
// blockEntries by the time it is compared.
func checkBlockCount(count uint64, length int, legacy bool) error {
	if count == 0 || count > blockEntries {
		return fmt.Errorf("store: block entry count %d outside [1,%d]", count, blockEntries)
	}
	inStream := int(count) - 1
	if legacy {
		inStream++
	}
	if length < blockFixedLen || inStream > length-blockFixedLen {
		return fmt.Errorf("store: block entry count %d exceeds what %d payload bytes can hold", count, length)
	}
	return nil
}

// decodeBlock decodes a block of exactly count entries whose first
// timestamp is first (the index entry's min; a legacy block restates it
// and the argument is ignored) into out, appending. It validates that
// the encoding is fully consumed (only zero-bit padding may remain),
// that timestamps are sorted, and errors — never panics — on any
// malformed input, leaving out as it was. The caller is expected to have
// verified the block's CRC first, so an error here means either rot the
// CRC missed or a software bug; both must reject the block rather than
// serve wrong data.
func decodeBlock(raw []byte, count int, first int64, base blockBase, out *[]entry) error {
	// A negative count converts to one far beyond blockEntries.
	if err := checkBlockCount(uint64(count), len(raw), base.legacy); err != nil {
		return err
	}
	n := len(*out)
	*out = append(*out, make([]entry, count)...)
	if err := decodeBlockInto(raw, (*out)[n:], first, base); err != nil {
		*out = (*out)[:n]
		return err
	}
	return nil
}

func decodeBlockInto(raw []byte, es []entry, first int64, base blockBase) error {
	flags := raw[0]
	if flags&^byte(blockFlagExpire|blockFlagVersion) != 0 {
		return fmt.Errorf("store: block has unknown flags %#x", flags)
	}
	data := raw[1:]
	off := 0
	get := func() (uint64, bool) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}

	i := 0
	prevTS, prevDelta := first, int64(0)
	if !base.legacy {
		es[0].ts = first
		i = 1
	}
	for ; i < len(es); i++ {
		u, ok := get()
		if !ok {
			return fmt.Errorf("store: block timestamp stream truncated")
		}
		switch i {
		case 0:
			prevTS = unzigzag(u)
		case 1:
			prevDelta = unzigzag(u)
			prevTS += prevDelta
		default:
			prevDelta += unzigzag(u)
			prevTS += prevDelta
		}
		es[i].ts = prevTS
		if i > 0 && prevTS < es[i-1].ts {
			return fmt.Errorf("store: block timestamps unsorted")
		}
	}

	if flags&blockFlagExpire != 0 {
		prev := int64(0)
		for i := range es {
			u, ok := get()
			if !ok {
				return fmt.Errorf("store: block expire stream truncated")
			}
			prev += unzigzag(u)
			es[i].expire = prev
		}
	}

	if flags&blockFlagVersion != 0 {
		prev := base.ver
		for i := range es {
			u, ok := get()
			if !ok {
				return fmt.Errorf("store: block version stream truncated")
			}
			if i == 0 && base.legacy {
				prev = u
			} else {
				prev += uint64(unzigzag(u))
			}
			es[i].ver = prev
		}
	}

	br := bitReader{buf: data[off:]}
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
