package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dcdb/internal/core"
)

// Tests of run-file format v7 itself: round trips over block shapes
// (hot whole-file decode and cold index + block-at-a-time reads must
// both return the input), and the allocation guards that keep a forged
// index or block from sizing anything before it is proven plausible.

// coldSeriesEqual reads every series of the run file at path the way a
// cold query does — index resident, blocks fetched, CRC-checked and
// decoded one at a time — and compares it to want.
func coldSeriesEqual(path string, idx *runIndex, want map[core.SensorID][]entry) error {
	rf, err := openRunFileHandle(path, idx, nil)
	if err != nil {
		return err
	}
	defer rf.release()
	if len(idx.series) != len(want) {
		return fmt.Errorf("index lists %d series, want %d", len(idx.series), len(want))
	}
	for _, se := range idx.series {
		es := want[se.id]
		it := makeColdIter(&coldRun{rf: rf, blocks: se.blocks, count: int(se.count)}, nil, math.MinInt64, math.MaxInt64)
		for i := 0; ; i++ {
			e, ok := it.next()
			if !ok {
				if it.err != nil {
					return it.err
				}
				if i != len(es) {
					return fmt.Errorf("series %v: cold read ends after %d of %d entries", se.id, i, len(es))
				}
				break
			}
			if i >= len(es) || !sameEntry(e, es[i]) {
				return fmt.Errorf("series %v entry %d: cold read %+v diverges from input", se.id, i, e)
			}
		}
		it.close()
	}
	return nil
}

// encodeBlockFirstCodings is the block encoder as it stood before the
// frame codings, verbatim: varint delta-of-delta timestamps from the
// first to the last, one varint per stamp, Gorilla XOR values. It is
// the bound the chooser is held to — a block is never longer than this
// makes it — and is compared by size only: its blocks are in a layout
// this build no longer reads.
func encodeBlockFirstCodings(dst []byte, es []entry, baseVer uint64) []byte {
	var flags byte
	for _, e := range es {
		if e.expire != 0 {
			flags |= blockFlagExpire
		}
		if e.ver != 0 {
			flags |= blockFlagVersion
		}
	}
	dst = append(dst, flags)
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
		prev := baseVer
		for _, e := range es {
			put(zigzag(int64(e.ver - prev)))
			prev = e.ver
		}
	}
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
			lead = 31
		}
		trail := uint(bits.TrailingZeros64(xor))
		sig := 64 - lead - trail
		if prevLead != 0xff && lead >= prevLead && trail >= 64-prevLead-prevSig {
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

func entriesEqual(got, want []entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		if !sameEntry(got[i], w) {
			return fmt.Errorf("entry %d: %+v, want %+v", i, got[i], w)
		}
	}
	return nil
}

// blockShape is one way a series can look to the block codec: apply
// dresses entry i of a series that is otherwise periodic (1 s), without
// stamps, stepping through quarter values.
type blockShape struct {
	name  string
	apply func(i int, e *entry)
}

const shapeT0, shapeV0 = int64(1_560_000_000_000_000_000), uint64(1_700_000_000_000_000_000)

// blockShapes lists the shapes on the edges of the three streams' two
// codings each: what makes a frame free, what makes it lose, where its
// arithmetic wraps, and the values that must not pass for integers.
func blockShapes() []blockShape {
	rng := rand.New(rand.NewSource(9))
	jitter := func(i int, e *entry) { e.ts += int64(rng.Intn(20_000_001)) - 10_000_000 }
	// A fan-in sensor's write stamps: one reading a write, a round of
	// the loop 2.9 s, ms jitter, on the coordinator's tick.
	clock := func(i int) uint64 { return shapeV0 + uint64(i)*2_900_000_000 + uint64(rng.Intn(3000))*versionTick }
	const hour = 3_600_000_000_000
	shapes := []blockShape{
		// Timestamps.
		{"exact period", func(i int, e *entry) {}},
		{"jitter", jitter},
		{"one gap in a periodic block", func(i int, e *entry) {
			if i >= 300 {
				e.ts += 100_000_000_000
			}
		}},
		{"an outage in a jittered block", func(i int, e *entry) {
			if jitter(i, e); i >= 300 {
				e.ts += 1_000_000_000_000_000
			}
		}},
		{"ms-quantised", func(i int, e *entry) { e.ts += int64(rng.Intn(21)-10) * 1_000_000 }},
		{"duplicate timestamps", func(i int, e *entry) { e.ts = shapeT0 + int64(i/3)*1000 }},
		{"whole int64 range", func(i int, e *entry) {
			if e.ts = math.MinInt64 + int64(i); i >= 2 {
				e.ts = math.MaxInt64 - 600 + int64(i)
			}
		}},
		// Write stamps.
		{"versions all equal", func(i int, e *entry) { e.ver = shapeV0 }},
		{"64-entry version runs, short last", func(i int, e *entry) { e.ver = shapeV0 + uint64((i+40)/64)*1_000_000_123 }},
		{"versions all distinct", func(i int, e *entry) { e.ver = shapeV0 + uint64(i)*999 + uint64(rng.Intn(500)) }},
		{"versions falling below the base", func(i int, e *entry) { e.ver = shapeV0 - uint64(i)*12345 }},
		{"versions mixed zero and non-zero", func(i int, e *entry) { e.ver = uint64(i%3) * shapeV0 }},
		{"versions at the range ends", func(i int, e *entry) { e.ver = math.MaxUint64 - uint64(i%2)*(math.MaxUint64-1) }},
		{"expiries in runs", func(i int, e *entry) { e.expire = shapeT0 + int64(i/64)*64_000_000_000 }},
		{"expiries and versions in the same runs, outage", func(i int, e *entry) {
			e.ver, e.expire = shapeV0+uint64(i/64)*977, int64(i/64%2)*1e12
			if jitter(i, e); i >= 100 {
				e.ts += 1_000_000_000_000_000
			}
		}},
		{"scattered expiries", func(i int, e *entry) { e.expire = int64(i%5) * 1e12 }},
		// Write stamps on the clock.
		{"clock stamps, ms jitter", func(i int, e *entry) { e.ver = clock(i) }},
		{"clock stamps, an outage", func(i int, e *entry) {
			if e.ver = clock(i); i >= 300 {
				e.ts, e.ver = e.ts+hour, e.ver+hour
			}
		}},
		// Below shapeV0, a base the round trip tries: v-base wraps.
		{"clock stamps below the base", func(i int, e *entry) { e.ver = clock(i) - 300*2_900_000_000 }},
		{"clock stamps, one off the tick", func(i int, e *entry) {
			if e.ver = clock(i); i == 200 {
				e.ver++
			}
		}},
		{"clock stamps and expiries, integer counter, an outage", func(i int, e *entry) {
			e.ver, e.val = clock(i), float64(1_000_003+i*1977+rng.Intn(900))
			if i >= 300 {
				e.ts, e.ver = e.ts+hour, e.ver+hour
			}
			e.expire = int64(e.ver) + 720*hour
		}},
		// Values.
		{"integer counter", func(i int, e *entry) { e.val = float64(1_000_003 + i*1977 + rng.Intn(900)) }},
		{"integer counter, once-stamped, outage", func(i int, e *entry) {
			e.val, e.ver = float64(7*i), shapeV0
			if jitter(i, e); i >= 100 {
				e.ts += 1_000_000_000_000_000
			}
		}},
		{"integer counter in 64-entry version runs", func(i int, e *entry) {
			jitter(i, e)
			e.val, e.ver = float64(1_000_003+i*1977+rng.Intn(900)), shapeV0+uint64(i/64)*1_000_000_123
		}},
		{"integer set-point with rare steps", func(i int, e *entry) { e.val = float64(40 + i/200) }},
		{"constant integer", func(i int, e *entry) { e.val = 18 }},
		{"2^53", func(i int, e *entry) { e.val = float64(int64(1<<53) * int64(1-i%3)) }},
		{"2^53 and 2^53+2", func(i int, e *entry) { e.val = float64(int64(1<<53) + int64(i%2)*2) }},
		{"-0.0 among integers", func(i int, e *entry) {
			if e.val = float64(i % 4); i%4 == 0 {
				e.val = math.Copysign(0, -1)
			}
		}},
		{"NaN among integers", func(i int, e *entry) {
			if e.val = float64(i); i%100 == 1 {
				e.val = math.Float64frombits(0x7ff8_0000_dead_beef)
			}
		}},
		{"±Inf among integers", func(i int, e *entry) {
			if e.val = float64(i); i%100 == 1 {
				e.val = math.Inf(i%200 - 100)
			}
		}},
		{"multiples of 4096", func(i int, e *entry) { e.val = float64((9000 + rng.Intn(40)) * 4096) }},
		{"negative integers", func(i int, e *entry) { e.val = float64(-1_000_000 - i*i) }},
		// Everything at once, far from the other series in time.
		{"everything random", func(i int, e *entry) {
			e.ts -= 1 << 50
			e.val = rng.NormFloat64()
			e.ver = shapeV0 + uint64(rng.Intn(1<<30))
			e.expire = int64(rng.Intn(1 << 40))
		}},
	}
	return append(shapes, codingShapes()...)
}

// codingShapes returns one shape for each of the 64 combinations of the
// three streams' codings: each stream dressed the way that makes the
// encoder choose one of its codings at 64 entries, against the widths
// the block itself needs (ownWidths).
func codingShapes() []blockShape {
	// hash is a fixed pseudo-random function of the entry (splitmix64's
	// finaliser): a shape's entries do not depend on how many were made
	// before.
	hash := func(i int) int {
		x := uint64(i+1) * 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return int((x ^ x>>31) >> 33)
	}
	ts := []struct {
		name  string
		apply func(i int, e *entry)
	}{
		// The period grows 50 ns a reading: only the delta-of-deltas
		// stay small.
		{"chirp", func(i int, e *entry) { e.ts += int64(25*i*(i-1) + hash(i)%4) }},
		// Three readings a µs: against the line a frame of ten bits each,
		// which the width coding's zigzag takes eleven for.
		{"duplicates", func(i int, e *entry) { e.ts = shapeT0 + int64(i/3)*1000 }},
		// On the line but for rare spikes: residuals mostly zero.
		{"spiked", func(i int, e *entry) {
			if i%7 == 3 {
				e.ts += 1_000_000 - int64(i)
			}
		}},
		// ±10 ms: twice that against a neighbour, once against the line —
		// whose ends at 64 entries lie on the grid, so the residuals are
		// centred and the width coding needs no more bits than a frame,
		// nor its header.
		{"jitter", func(i int, e *entry) {
			if i%63 != 0 {
				e.ts += int64(hash(i)%20_000_001) - 10_000_000
			}
		}},
	}
	values := []struct {
		name  string
		apply func(i int, e *entry)
	}{
		{"quarters", func(i int, e *entry) {}},
		// A counter stepping by one of two increments: a frame of one bit
		// each of the deltas, a random walk away from the line.
		{"two steps", func(i int, e *entry) {
			e.val = float64(1000 + 1977*i)
			for k := 0; k < i; k++ {
				e.val += float64(900 * (hash(k) % 2))
			}
		}},
		// On the line but for two outliers.
		{"outliers", func(i int, e *entry) {
			switch e.val = float64(1000 + 7*i); i {
			case 7:
				e.val += 5000
			case 40:
				e.val -= 3001
			}
		}},
		// A counter with noise that does not accumulate.
		{"noisy counter", func(i int, e *entry) { e.val = float64(1_000_003 + 1977*i + hash(i)%900) }},
	}
	stamps := []struct {
		name  string
		apply func(i int, e *entry)
	}{
		// A few ns apart but for rare jumps no frame can afford.
		{"jumping", func(i int, e *entry) {
			e.ver = shapeV0 + uint64(3*i)
			for k := 1; k <= i/16; k++ {
				e.ver += 1_000_000_000_000 + uint64(hash(-k))
			}
		}},
		// Runs of 16 entries a stamp, the runs a second apart off the
		// tick: no clock coding.
		{"runs", func(i int, e *entry) { e.ver = shapeV0 + uint64(i/16)*1_000_000_123 }},
		// On the tick, a round of 2.9 s that drifts 40 µs a round: a few
		// bits a delta-of-delta, at the width they need.
		{"drifting round", func(i int, e *entry) {
			e.ver = shapeV0 + uint64(i*2_900_000+20*i*i+hash(i)%10)*versionTick
		}},
		// The same round, steady but for one stall of a second: a varint
		// byte a delta-of-delta, where the stall sets the width.
		{"stalled round", func(i int, e *entry) {
			e.ver = shapeV0 + uint64(i*2_900_000+hash(i)%10)*versionTick
			if i >= 40 {
				e.ver += 1_000_000 * versionTick
			}
		}},
	}
	var shapes []blockShape
	for _, t := range ts {
		for _, v := range values {
			for _, s := range stamps {
				shapes = append(shapes, blockShape{fmt.Sprintf("%s ts, %s values, %s stamps", t.name, v.name, s.name), func(i int, e *entry) {
					t.apply(i, e)
					v.apply(i, e)
					s.apply(i, e)
				}})
			}
		}
	}
	return shapes
}

func (sh blockShape) entries(n int) []entry {
	es := make([]entry, n)
	for i := range es {
		es[i] = entry{ts: shapeT0 + int64(i)*1_000_000_000, val: float64(i%50) * 0.25}
		sh.apply(i, &es[i])
	}
	return es
}

// blockCodings are the flag bits of the coding selectors: four codings
// a stream — 64 combinations.
const blockCodings = 0xff &^ (blockFlagExpire | blockFlagVersion)

// everyCoding calls f with each of the 64 combinations.
func everyCoding(f func(c byte)) {
	for ts := byte(0); ts < 4; ts++ {
		for values := byte(0); values < 4; values++ {
			for stamps := byte(0); stamps <= stampClockWidth; stamps++ {
				f(blockCoding{ts: ts, values: values, stamps: stamps}.flags())
			}
		}
	}
}

// ownWidths returns b with the widths the values of es need in the
// width codings: what a writer fixes when es is the first block of its
// file with two or more of them (runFileWriter.fixBase).
func ownWidths(es []entry, b blockBase) blockBase {
	b.tsWidth = 0
	if len(es) > 1 {
		b.tsWidth = int8(scanTimestamps(es, 0).bits)
	}
	b.stampWidth = clockWidth(es, stampSections(es), b)
	return b
}

// seedBase is the base a coding seed is encoded against: the one a
// writer fixes when es is the first block of its file.
func seedBase(es []entry) blockBase {
	w := runFileWriter{base: blockBase{tsWidth: noWidth, stampWidth: noWidth}, buf: es}
	w.fixBase()
	w.base.tsWidth, w.base.stampWidth = max(w.base.tsWidth, 0), max(w.base.stampWidth, 0)
	return w.base
}

// codingSeeds returns, for each of the 64 combinations of the three
// coding choices, the smallest shaped series that makes the encoder
// choose it against seedBase — the fuzz corpora's way into every
// decoder arm.
func codingSeeds(t interface{ Fatal(...any) }) map[byte][]entry {
	seeds := map[byte][]entry{}
	for _, n := range []int{1, 2, 3, 64, 130, blockEntries - 1} {
		for _, sh := range blockShapes() {
			es := sh.entries(n)
			enc, _ := encodeBlock(nil, es, seedBase(es))
			if _, ok := seeds[enc[0]&blockCodings]; !ok {
				seeds[enc[0]&blockCodings] = es
			}
		}
	}
	if len(seeds) != 64 {
		t.Fatal("shapes reach only", len(seeds), "of the 64 coding combinations")
	}
	return seeds
}

// TestBlockCodingsRoundTripAndNeverGrow holds every block the encoder
// emits to the codec's promises, over every shape at 1, 2, 3, 64, 511
// and 512 entries, against bases on, off and above the stamps, with and
// without a stamp period, and at widths of 0, of one bit short of what
// the block needs and of what it needs: it decodes to exactly what went
// in — timestamp, value bits, expire, version — its stream sizes add up
// to it, and it is never longer than the same entries in the first
// codings alone (encodeBlockFirstCodings): each stream is the shortest
// of codings whose sizes are exact (TestBlockStreamSizesAreExact,
// TestBlockStampSizesAreExact), the first codings among them. All 64
// combinations of the three choices must turn up.
func TestBlockCodingsRoundTripAndNeverGrow(t *testing.T) {
	seen := map[byte]string{}
	for _, sh := range blockShapes() {
		for _, n := range []int{1, 2, 3, 64, blockEntries - 1, blockEntries} {
			es := sh.entries(n)
			for _, baseVer := range []uint64{0, es[0].ver, shapeV0, shapeV0 + 5} {
				for _, period := range []int64{0, 2_900_000} {
					own := ownWidths(es, blockBase{ver: baseVer, stampPeriod: period})
					zero, narrow := own, own
					zero.tsWidth, zero.stampWidth = 0, 0
					narrow.tsWidth, narrow.stampWidth = max(own.tsWidth-1, 0), max(own.stampWidth-1, 0)
					for _, base := range []blockBase{zero, narrow, own} {
						enc, sz := encodeBlock(nil, es, base)
						if 1+sz.ts+sz.stamps+sz.values != len(enc) {
							t.Fatalf("%s/%d: stream sizes %+v do not add up to the block's %d bytes", sh.name, n, sz, len(enc))
						}
						var got []entry
						if err := decodeBlock(enc, metaOf(es), base, &got); err != nil {
							t.Fatalf("%s/%d (flags %#x): %v", sh.name, n, enc[0], err)
						}
						if err := entriesEqual(got, es); err != nil {
							t.Fatalf("%s/%d (flags %#x): %v", sh.name, n, enc[0], err)
						}
						if first := len(encodeBlockFirstCodings(nil, es, baseVer)); len(enc) > first {
							t.Errorf("%s/%d: %d bytes with flags %#x, %d in the first codings", sh.name, n, len(enc), enc[0], first)
						}
						if _, ok := seen[enc[0]&blockCodings]; !ok {
							seen[enc[0]&blockCodings] = fmt.Sprintf("%s/%d", sh.name, n)
						}
					}
				}
			}
		}
	}
	everyCoding(func(c byte) {
		if _, ok := seen[c]; !ok {
			t.Errorf("no shape chose coding combination %#x", c)
		}
	})
	t.Logf("first shape per combination: %v", seen)
}

// TestBlockStampSizesAreExact holds the stamp chooser to its inputs:
// the size scanStamps predicts for each coding is the size appendStamps
// writes, with and without a stamp period, the clock width coding at
// every width its values fit — the width they need, one more, 64 — and
// the width scanStamps says they need is the widest value the clock
// coding writes. The clock codings are ruled out exactly when the base
// or a stamp, each tested on its own, is off the tick.
func TestBlockStampSizesAreExact(t *testing.T) {
	for _, sh := range blockShapes() {
		for _, n := range []int{1, 2, 5, blockEntries} {
			es := sh.entries(n)
			for _, base := range []uint64{0, es[0].ver, shapeV0, shapeV0 + 5} {
				for _, col := range []stampCol{stampExpire, stampVersion} {
					for _, period := range []int64{0, 2_900_000, -7} {
						need := scanStamps(es, col, base, period, 0).bits
						for _, width := range []int8{int8(need), int8(need) + 1, 64} {
							s := scanStamps(es, col, base, period, width)
							offTick := base%versionTick != 0
							for i := range es {
								offTick = offTick || col.of(&es[i])%versionTick != 0
							}
							if s.offTick != offTick {
								t.Fatalf("%s/%d, base %d: offTick %v, want %v", sh.name, n, base, s.offTick, offTick)
							}
							if s.bits != need || clockBits(es, col, base, period) != need {
								t.Fatalf("%s/%d, base %d, period %d: the clock values need %d bits, scanned %d", sh.name, n, base, period, clockBits(es, col, base, period), s.bits)
							}
							for coding, want := range s.sizes {
								if coding >= stampClock && offTick || coding == stampClockWidth && width > 64 {
									continue
								}
								if got := len(appendStamps(nil, es, col, base, period, width, byte(coding), &s)); got != want {
									t.Fatalf("%s/%d, base %d, period %d, width %d, coding %d: %d bytes written, %d predicted", sh.name, n, base, period, width, coding, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// clockBits is the width of the widest zigzag value after the first the
// clock coding writes for one stamp section of es, read back from its
// varints.
func clockBits(es []entry, col stampCol, base uint64, period int64) int {
	var s stampStats
	b := appendStamps(nil, es, col, base, period, 0, stampClock, &s)
	need := 0
	for i := 0; len(b) > 0; i++ {
		u, k := binary.Uvarint(b)
		if i > 0 {
			need = max(need, bits.Len64(u))
		}
		b = b[k:]
	}
	return need
}

// TestBlockStreamSizesAreExact holds the timestamp and the value
// chooser to their inputs, as TestBlockStampSizesAreExact does the stamp
// one: over every shape at 1, 2, 5 and 512 entries, the size
// scanTimestamps predicts for each coding is the size appendTimestamps
// writes — the width coding at every width the residuals fit, and the
// width they need is the widest residual the line varints write — and
// the sizes scanValues predicts for the integer codings of an integral
// block are the sizes appendIntValues writes — the XOR one a floor
// under what appendXORValues writes.
func TestBlockStreamSizesAreExact(t *testing.T) {
	integral := 0
	for _, sh := range blockShapes() {
		for _, n := range []int{1, 2, 5, blockEntries} {
			es := sh.entries(n)
			if n > 1 { // a one-entry block has no timestamp stream
				need := scanTimestamps(es, 0).bits
				lineBits := 0 // the widest residual the line varints write
				for b := appendTimestamps(nil, es, codingLine, 0, nil); len(b) > 0; {
					u, k := binary.Uvarint(b)
					lineBits, b = max(lineBits, bits.Len64(u)), b[k:]
				}
				if need != lineBits {
					t.Fatalf("%s/%d: the residuals need %d bits, scanned %d", sh.name, n, lineBits, need)
				}
				for _, width := range []int8{int8(need), int8(need) + 1, 64} {
					s := scanTimestamps(es, width)
					for coding, want := range s.sizes {
						if coding == codingWidth && width > 64 {
							continue
						}
						if got := len(appendTimestamps(nil, es, byte(coding), width, &s)); got != want {
							t.Fatalf("%s/%d, width %d, timestamp coding %d: %d bytes written, %d predicted", sh.name, n, width, coding, got, want)
						}
					}
				}
			}
			s := scanValues(es)
			if !s.integral {
				continue
			}
			integral++
			if xor := len(appendXORValues(nil, es)); s.sizes[codingFirst] > xor {
				t.Fatalf("%s/%d: XOR floor of %d bytes above the %d written", sh.name, n, s.sizes[codingFirst], xor)
			}
			for coding := codingFrame; coding < len(s.sizes); coding++ {
				if n == 1 && coding >= codingLine {
					continue // no line through one point
				}
				if got := len(appendIntValues(nil, es, byte(coding), &s)); got != s.sizes[coding] {
					t.Fatalf("%s/%d, value coding %d: %d bytes written, %d predicted", sh.name, n, coding, got, s.sizes[coding])
				}
			}
		}
	}
	if integral < 100 {
		t.Fatalf("only %d integral blocks among the shapes", integral)
	}
}

// TestBlockDecodeSurvivesDamage feeds the block decoder — behind the
// per-block CRC in production, bare here — every prefix and every
// single-byte corruption of a block of each coding combination. It may
// accept damage the CRC exists to catch, but must never panic, read past
// the block, or hand back a different count or unsorted timestamps; and
// a block cut short must not pass for whole.
func TestBlockDecodeSurvivesDamage(t *testing.T) {
	for coding, es := range codingSeeds(t) {
		base := seedBase(es)
		enc, _ := encodeBlock(nil, es, base)
		check := func(what string, raw []byte) bool {
			var out []entry
			if err := decodeBlock(raw, metaOf(es), base, &out); err != nil {
				if len(out) != 0 {
					t.Fatalf("coding %#x, %s: failed decode left %d entries", coding, what, len(out))
				}
				return false
			}
			if len(out) != len(es) {
				t.Fatalf("coding %#x, %s: %d entries, want %d", coding, what, len(out), len(es))
			}
			for i := 1; i < len(out); i++ {
				if out[i].ts < out[i-1].ts {
					t.Fatalf("coding %#x, %s: accepted unsorted timestamps", coding, what)
				}
			}
			return true
		}
		if !check("intact", enc) {
			t.Fatalf("coding %#x: intact block rejected", coding)
		}
		for n := 0; n < len(enc); n++ {
			if check(fmt.Sprintf("cut to %d of %d bytes", n, len(enc)), enc[:n:n]) {
				t.Errorf("coding %#x: block cut to %d of %d bytes accepted", coding, n, len(enc))
			}
		}
		if check("one byte appended", append(enc[:len(enc):len(enc)], 0)) {
			t.Errorf("coding %#x: trailing byte accepted", coding)
		}
		for i := range enc {
			for _, flip := range []byte{0x01, 0x10, 0x80, 0xff} {
				damaged := append([]byte(nil), enc...)
				damaged[i] ^= flip
				check(fmt.Sprintf("byte %d ^ %#x", i, flip), damaged)
			}
		}
	}
}

// TestBlockCodingsPickTheObvious pins the chooser on the cases the
// design is argued from.
func TestBlockCodingsPickTheObvious(t *testing.T) {
	flat := make([]entry, blockEntries) // periodic, stamped once, constant integer
	for i := range flat {
		flat[i] = entry{ts: shapeT0 + int64(i)*1_000_000_000, val: 42, ver: shapeV0, expire: 7}
	}
	// On its line a periodic sensor's residuals are all zero: a frame of
	// them is its three header bytes, and at a file width of 0 — the
	// width this block would fix, were it its file's first — nothing.
	for width, ts := range map[int8]int{noWidth: 3, 0: 0} {
		enc, sz := encodeBlock(nil, flat, blockBase{ver: shapeV0, tsWidth: width})
		want := blockCoding{sections: blockFlagExpire | blockFlagVersion, ts: codingLineFrame, values: codingFrame, stamps: stampRuns}
		if ts == 0 {
			want.ts = codingWidth
		}
		if enc[0] != want.flags() || len(enc) > 28 || sz.ts != ts {
			t.Errorf("flat block, ts width %d: flags %#x, %d bytes, streams %+v; want %#x, %d bytes of timestamps and two dozen in all", width, enc[0], len(enc), sz, want.flags(), ts)
		}
	}
	// Quantised to the ms, timestamps keep their jitter against the line,
	// which is not on the ms grid: 25 bits a residual in a line frame. No
	// block coding since v6 divides the 10^6 out (the delta frame of v5
	// took 6 bits a delta).
	ms := make([]entry, blockEntries)
	rng := rand.New(rand.NewSource(3))
	for i := range ms {
		ms[i] = entry{ts: shapeT0 + int64(i)*1_000_000_000 + int64(rng.Intn(21))*1_000_000, val: 0.5}
	}
	if enc, sz := encodeBlock(nil, ms, blockBase{}); enc[0]>>blockTSShift&3 != codingLineFrame || sz.ts > 10+((blockEntries-2)*25+7)/8 {
		t.Errorf("ms-quantised timestamps: flags %#x, %d bytes, want a line frame of 25 bits a residual", enc[0], sz.ts)
	}
	// A 0/1 state that flips rarely: against its line a bit a reading,
	// which XOR spends too, on top of its raw first value; the deltas take
	// two bits each.
	binary := make([]entry, blockEntries)
	for i := range binary {
		binary[i] = entry{ts: int64(i), val: float64(i / 170 % 2)}
	}
	if enc, sz := encodeBlock(nil, binary, blockBase{}); enc[0]>>blockValuesShift&3 != codingLineFrame || sz.values > 2+3+(blockEntries-2+7)/8 {
		t.Errorf("rarely flipping 0/1 values: flags %#x, %d value bytes; want a line frame of a bit a reading", enc[0], sz.values)
	}
	few := []entry{{ts: shapeT0, val: 1.5, ver: shapeV0}, {ts: shapeT0 + 999_999_999, val: 2.5, ver: shapeV0 + 31_337}}
	if enc, sz := encodeBlock(nil, few, blockBase{ver: shapeV0}); enc[0] != blockFlagVersion || sz.ts != 0 {
		t.Errorf("two-entry block: flags %#x, %d timestamp bytes; want the first codings throughout and both timestamps from the index", enc[0], sz.ts)
	}
	// Five readings of a fan-in sensor, ±10 ms on a 1 s period, and of an
	// integer counter with noise that does not accumulate: against the
	// line through their ends, neither stream pays a first delta.
	fan := make([]entry, 5)
	for i := range fan {
		fan[i] = entry{ts: shapeT0 + int64(i)*1_000_000_000 + int64(rng.Intn(20_000_001)) - 10_000_000, val: float64(1_000_003 + 1977*i + rng.Intn(40))}
	}
	enc, sz := encodeBlock(nil, fan, blockBase{})
	if want := (blockCoding{ts: codingLine, values: codingLine}).flags(); enc[0] != want || sz.ts > 3*4 || sz.values > 3+3+3 {
		t.Errorf("fan-in block: flags %#x, streams %+v; want %#x: line varints, four bytes a timestamp, a byte a value", enc[0], sz, want)
	}
	// At the width its jitter needs, the same block packs its three
	// residuals in 25 bits each.
	base := ownWidths(fan, blockBase{})
	enc, sz = encodeBlock(nil, fan, base)
	if want := (blockCoding{ts: codingWidth, values: codingLine}).flags(); base.tsWidth > 25 || enc[0] != want || sz.ts != (3*int(base.tsWidth)+7)/8 {
		t.Errorf("fan-in block at ts width %d: flags %#x, streams %+v; want %#x: the width coding, %d bits a timestamp", base.tsWidth, enc[0], sz, want, base.tsWidth)
	}
}

// TestBlockClockCodesFanInStamps pins the clock coding on the block it
// exists for: five readings of one sensor, one a round of the writer's
// loop, stamped on the clock against a base another sensor set, which
// lies above the first two stamps (where (v-base)%tick would wrongly
// say off the tick). The clock coding wins there, and nowhere the tick
// is missed: a stamp or the base off it. Against the file's stamp period
// — the round — the first delta is jitter too.
func TestBlockClockCodesFanInStamps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fan := make([]entry, 5)
	for i := range fan {
		fan[i] = entry{
			ts:  shapeT0 + int64(i)*1_000_000_000 + int64(rng.Intn(20_000_001)) - 10_000_000,
			val: float64(500 + 7*i),
			ver: shapeV0 - 5_000_000_000 + uint64(i)*2_900_000_000 + uint64(rng.Intn(3000))*versionTick,
		}
	}
	// Four bytes for the first stamp, four for the first delta — two
	// against the period — and two for each ms of jitter: 14, or 12, where
	// nanosecond varints spend 25. At the width the jitter needs, 14 bits,
	// the four values after the first take seven bytes.
	for period, most := range map[int64]int{0: 4 + 4 + 3*2, 2_900_000: 4 + 2 + 3*2} {
		enc, sz := encodeBlock(nil, fan, blockBase{ver: shapeV0, stampPeriod: period})
		if c, _ := readFlags(enc[0], len(fan)); c.sections != blockFlagVersion || c.stamps != stampClock || sz.stamps > most {
			t.Errorf("fan-in block, stamp period %d: flags %#x, %d stamp bytes; want the version section clock coded in at most %d", period, enc[0], sz.stamps, most)
		}
	}
	base := ownWidths(fan, blockBase{ver: shapeV0, stampPeriod: 2_900_000})
	enc, sz := encodeBlock(nil, fan, base)
	if c, _ := readFlags(enc[0], len(fan)); c.stamps != stampClockWidth || base.stampWidth > 14 || sz.stamps > 4+7 {
		t.Errorf("fan-in block at stamp width %d: flags %#x, %d stamp bytes; want the clock width coding in at most 11", base.stampWidth, enc[0], sz.stamps)
	}
	if enc, _ := encodeBlock(nil, fan, blockBase{ver: shapeV0 + 1, stampWidth: 64}); enc[0]>>blockStampsShift >= stampClock {
		t.Error("fan-in block against a base off the tick: clock coded")
	}
	fan[3].ver++
	if enc, _ := encodeBlock(nil, fan, blockBase{ver: shapeV0, stampWidth: 64}); enc[0]>>blockStampsShift >= stampClock {
		t.Error("fan-in block with a stamp off the tick: clock coded")
	}
}

// TestBlockAnchorRejectsForgedMax: the last timestamp of a block of two
// or more entries is the index entry's max. A max below the
// second-to-last timestamp — a negative last delta — is refused, one
// equal to it (a duplicate timestamp) served, in the coding that takes
// no line through it. A line-coded block decodes its body against the
// max, so under any forged max it is refused or served sorted, ending at
// that max — never unsorted, the line's wrapped span (a max below the
// min) included. A one-entry block may not claim a line. One- and
// two-entry blocks carry no timestamp bytes at all
// (TestRunFileRoundTripShapes round-trips them through a file, hot and
// cold).
func TestBlockAnchorRejectsForgedMax(t *testing.T) {
	for _, sh := range blockShapes() {
		for _, n := range []int{2, 5, blockEntries} {
			es := sh.entries(n)
			base := seedBase(es)
			enc, _ := encodeBlock(nil, es, base)
			m := metaOf(es)
			var out []entry
			if enc[0]>>blockTSShift&3 == codingFirst {
				if m.max = es[n-2].ts - 1; es[n-2].ts > math.MinInt64 && (decodeBlock(enc, m, base, &out) == nil || len(out) != 0) {
					t.Fatalf("%s/%d: a max below the second-to-last timestamp accepted", sh.name, n)
				}
				if m.max = es[n-2].ts; decodeBlock(enc, m, base, &out) != nil || out[n-1].ts != m.max {
					t.Fatalf("%s/%d: a max equal to the second-to-last timestamp not served as the last", sh.name, n)
				}
				continue
			}
			for _, forged := range []int64{es[0].ts - 1, math.MinInt64, es[n-2].ts - 1, es[n-2].ts, es[n-1].ts + 1, math.MaxInt64} {
				out, m.max = out[:0], forged
				if err := decodeBlock(enc, m, base, &out); err != nil {
					continue
				}
				if len(out) != n || out[0].ts != m.min || out[n-1].ts != forged {
					t.Fatalf("%s/%d: forged max %d served %d entries over [%d, %d]", sh.name, n, forged, len(out), out[0].ts, out[len(out)-1].ts)
				}
				for i := 1; i < n; i++ {
					if out[i].ts < out[i-1].ts {
						t.Fatalf("%s/%d: forged max %d served unsorted at %d", sh.name, n, forged, i)
					}
				}
				if forged < m.min {
					t.Fatalf("%s/%d: a max below the min served", sh.name, n)
				}
			}
		}
		one := sh.entries(1)
		base := blockBase{ver: one[0].ver}
		enc, sz := encodeBlock(nil, one, base)
		if sz.ts != 0 || enc[0]>>blockTSShift&3 != codingFirst {
			t.Fatalf("%s/1: flags %#x, %d timestamp bytes", sh.name, enc[0], sz.ts)
		}
		var out []entry
		for _, forged := range [][]byte{
			append([]byte{enc[0] | codingWidth<<blockTSShift}, enc[1:]...),
			append([]byte{enc[0] | codingLine<<blockTSShift}, enc[1:]...),
			append([]byte{enc[0] | codingLineFrame<<blockValuesShift}, enc[1:]...),
		} {
			if err := decodeBlock(forged, metaOf(one), base, &out); err == nil {
				t.Fatalf("%s/1: a one-entry block with flags %#x accepted", sh.name, forged[0])
			}
		}
	}
}

// TestLineStepsExactly holds the line's incremental steps — two adds and
// a shift each — to the exact 128-bit point first + ⌊i·|span|/(n-1)⌋, in
// both directions, modulo 2^64, over spans that fill 64 bits, and at
// every n a block can have over a span whose remainder is the largest
// (|span| ≡ -1 mod n-1): where the fixed-point share comes closest to the
// next whole number.
func TestLineStepsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	spans := []uint64{0, 1, 2, 510, 511, 1 << 54, 1<<63 - 1, 1 << 63, math.MaxUint64}
	for len(spans) < 40 {
		spans = append(spans, rng.Uint64()>>rng.Intn(64))
	}
	check := func(n int, span uint64) {
		for _, down := range []bool{false, true} {
			from := rng.Uint64()
			signed := span
			if down {
				signed = -span
			}
			ln := newLine(from, signed, down, n)
			var got uint64
			for i := 1; i < n; i++ {
				hi, lo := bits.Mul64(uint64(i), span)
				q, _ := bits.Div64(hi, lo, uint64(n-1))
				want := from + q
				if down {
					want = from - q
				}
				if got = ln.next(); got != want {
					t.Fatalf("n %d, span %d, down %v: point %d is %d, want %d", n, span, down, i, got, want)
				}
			}
			if got != from+signed {
				t.Fatalf("n %d, span %d, down %v: the line ends at %d, not at its last point", n, span, down, got)
			}
		}
	}
	for _, n := range []int{2, 3, 5, blockEntries - 1, blockEntries} {
		for _, span := range spans {
			check(n, span)
		}
	}
	for n := 3; n <= blockEntries; n++ {
		n1 := uint64(n - 1)
		check(n, rng.Uint64()>>1/n1*n1+n1-1)
		check(n, n1-1)
	}
}

// TestBlockLineCodingsRoundTrip: blocks coded against their lines come
// back exactly at 3, 511 and 512 entries — timestamps spanning the whole
// int64 range, integer values spanning ±2^54 in both directions, and
// ends that are equal. A forged index max below the min makes the line's
// span wrap modulo 2^64, and so every residual sum: the block is
// refused, never served unsorted.
func TestBlockLineCodingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	noise := func(k int) int64 { return int64(rng.Intn(2*k+1) - k) }
	for _, n := range []int{3, blockEntries - 1, blockEntries} {
		cases := map[string][]entry{}
		whole := make([]entry, n) // timestamps from MinInt64 to MaxInt64
		ln := tsLine(math.MinInt64, math.MaxInt64, n)
		for i := range whole {
			whole[i] = entry{ts: math.MinInt64, val: 0.5}
			if i > 0 {
				whole[i].ts = int64(ln.next())
			}
			if i > 0 && i < n-1 {
				whole[i].ts += noise(1000)
			}
		}
		cases["whole int64 range"] = whole
		for _, dir := range []int64{1, -1} {
			es := make([]entry, n) // values from ∓2^53 to ±2^53
			ln := valueLine(-dir<<53, dir<<54, n)
			for i := range es {
				v := -dir << 53
				if i > 0 {
					v = int64(ln.next())
				}
				if i > 0 && i < n-1 {
					v += noise(500)
				}
				es[i] = entry{ts: shapeT0 + int64(i)*1_000_000_000, val: float64(v)}
			}
			cases[fmt.Sprintf("values spanning %+d·2^54", dir)] = es
		}
		equal := make([]entry, n) // the same first and last value and timestamp
		for i := range equal {
			equal[i] = entry{ts: shapeT0, val: float64(100 + noise(50))}
		}
		equal[0].val, equal[n-1].val = 100, 100
		cases["equal ends"] = equal
		for name, es := range cases {
			base := blockBase{}
			enc, got, err := codecRoundTrip(es, base)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, n, err)
			}
			if err := entriesEqual(got, es); err != nil {
				t.Fatalf("%s/%d: %v", name, n, err)
			}
			c, _ := readFlags(enc[0], n)
			if name != "equal ends" && c.ts == codingFirst && c.values < codingLine {
				t.Errorf("%s/%d: flags %#x, no stream coded against its line", name, n, enc[0])
			}
			m := metaOf(es)
			if m.max = m.min - 1; m.min > math.MinInt64 {
				var out []entry
				if err := decodeBlock(enc, m, base, &out); err == nil || len(out) != 0 {
					t.Errorf("%s/%d: a max below the min served", name, n)
				}
			}
		}
	}
}

// TestRunFileRoundTripShapes is the format's round-trip property over
// every block shape at 1, 2, 511, 512 and 513 entries (no body, one
// delta, one short of a block, exactly one, one over): whatever goes in
// must come out entry for entry, hot (whole-file decode) and cold (index
// + block at a time) alike.
func TestRunFileRoundTripShapes(t *testing.T) {
	series := map[core.SensorID][]entry{}
	next := uint64(0)
	for _, sh := range blockShapes() {
		for _, n := range []int{1, 2, blockEntries - 1, blockEntries, blockEntries + 1} {
			// Spread the ids so prefix coding sees long and short shared
			// prefixes, and trailing zero bytes.
			next++
			series[sid(next<<40, (next%3)<<56)] = sh.entries(n)
		}
	}
	// A series reaching the top of the timestamp range, so the index's
	// delta chain ends at MaxInt64 without overflowing.
	series[sid(math.MaxUint64, math.MaxUint64)] = []entry{{ts: math.MaxInt64 - 1, val: 1}, {ts: math.MaxInt64, val: 2}}
	tombs := map[core.SensorID]int64{sid(1, 0): math.MinInt64, sid(1, 1): math.MaxInt64, {}: -1}

	dir := t.TempDir()
	meta, idx, err := writeRunFile(dir, 7, 1<<40, series, tombs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := &runContents{minSeq: 7, maxSeq: 1 << 40, tombs: tombs, series: series}
	hot, err := readRunFile(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := runContentsEqual(want, hot); err != nil {
		t.Fatalf("hot decode diverges from input: %v", err)
	}
	reread, err := readRunIndexFile(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []*runIndex{idx, reread} { // the writer's index and the one read back
		if ix.minSeq != 7 || ix.maxSeq != 1<<40 || len(ix.tombs) != len(tombs) {
			t.Fatalf("index header %+v", ix)
		}
		if err := coldSeriesEqual(meta.path, ix, series); err != nil {
			t.Fatalf("cold read diverges from input: %v", err)
		}
	}
	for i, se := range reread.series {
		es := series[se.id]
		if se.count != uint64(len(es)) || se.min != es[0].ts || se.max != es[len(es)-1].ts ||
			len(se.blocks) != (len(es)+blockEntries-1)/blockEntries {
			t.Fatalf("series %d: derived header %+v contradicts its %d entries", i, se, len(es))
		}
	}
}

// TestRunIndexRoundTrip is the index's round-trip property. Series of 1,
// 2, 3, 5, 511, 512, 513 and 1025 entries — no body, one delta, a
// fan-in block, a block but one, a block, one over, two and one over —
// under every kind of SID — the zero SID, whose head states no level;
// level codes of one, two and three varint bytes; zero levels inside and
// at the end; a SID that differs from the one before it at level 0, at
// its last level and in a middle level by a step of thousands; random
// 128-bit SIDs — beside tombstones on the same kinds of SID, come back
// hot and cold as they went in. The index the writer keeps and the one
// read back agree field for field, pages included, and a periodic file
// codes its bounds against its period.
func TestRunIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	lv := func(codes ...uint16) (id core.SensorID) {
		for l, c := range codes {
			id = id.WithLevel(l, c)
		}
		return id
	}
	ids := []core.SensorID{
		{}, lv(1), lv(1, 127), lv(1, 127, 128), lv(1, 128, 16383), lv(1, 128, 16384, 0xffff),
		lv(1, 0, 0, 5), lv(1, 0, 0, 5, 0, 0, 0, 1), lv(2, 0xffff, 0, 0, 0, 0, 0, 0xffff), lv(0xffff),
		lv(3, 1, 7, 2, 1), lv(3, 1, 7, 2, 2), lv(3, 1, 7004, 1, 1), lv(3, 1, 7004, 1, 2),
	}
	for len(ids) < 40 {
		ids = append(ids, core.SensorID{Hi: rng.Uint64(), Lo: rng.Uint64()})
	}
	sizes := []int{1, 2, 3, 5, blockEntries - 1, blockEntries, blockEntries + 1, 2*blockEntries + 1}
	series := map[core.SensorID][]entry{}
	tombs := map[core.SensorID]int64{{}: -1, lv(1, 0, 3): 1 << 62}
	for i, id := range ids {
		es := make([]entry, sizes[i%len(sizes)])
		for j := range es {
			es[j] = entry{
				ts:  shapeT0 + int64(j)*2_900_000_000 + int64(rng.Intn(6_000_001)) - 3_000_000,
				val: float64(i*1_000_003 + j*977),
				ver: shapeV0 + uint64(j)*2_900_000_000 + uint64(rng.Intn(3000))*versionTick,
			}
		}
		series[id] = es
		if i%4 == 0 {
			tombs[id] = int64(i) * 1e15
		}
	}
	meta, idx, err := writeRunFile(t.TempDir(), 3, 9, series, tombs, nil)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := readRunFile(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := runContentsEqual(&runContents{minSeq: 3, maxSeq: 9, tombs: tombs, series: series}, hot); err != nil {
		t.Fatalf("hot decode diverges from input: %v", err)
	}
	reread, err := readRunIndexFile(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, reread) {
		t.Fatalf("the index read back differs from the writer's:\n%+v\n%+v", reread, idx)
	}
	if err := coldSeriesEqual(meta.path, reread, series); err != nil {
		t.Fatalf("cold read diverges from input: %v", err)
	}
	if err := blocksInBounds(reread); err != nil {
		t.Fatal(err)
	}
	if reread.period < 2_899_000_000 || reread.period > 2_901_000_000 {
		t.Errorf("period %d, want the series' 2.9 s", reread.period)
	}
	// The widths are those of the first block of four entries or more,
	// in SID order, and of the first stamped one of three or more.
	var tsFrom, stampFrom []entry
	for _, se := range reread.series {
		es := series[se.id][:min(len(series[se.id]), blockEntries)]
		if tsFrom == nil && len(es) > 3 {
			tsFrom = es
		}
		if stampFrom == nil && len(es) > 2 {
			stampFrom = es
		}
	}
	own := blockBase{ver: reread.base.ver, stampPeriod: reread.base.stampPeriod}
	if want := ownWidths(tsFrom, own).tsWidth; reread.base.tsWidth != want {
		t.Errorf("ts width %d, want the %d its first block of four entries needs", reread.base.tsWidth, want)
	}
	if want := ownWidths(stampFrom, own).stampWidth; reread.base.stampWidth != want || want == 0 {
		t.Errorf("stamp width %d, want the %d its first stamped block of three entries needs", reread.base.stampWidth, want)
	}
}

// TestRunFileWidthsFixedByFirstEligibleBlock: the writer fixes each
// width from the first block, in SID order, with two or more values to
// pack in its coding — the ts width from the first of four entries or
// more, the stamp width from the first stamped one of three or more —
// to what that block needs, and no block before it takes the coding:
// here the first series has one entry (no timestamp body), the second
// two (no residual, one stamp value), the third three (one residual,
// two stamp values). A later block whose jitter is wider than the width
// keeps its varints. A file with no such block states widths of 0.
func TestRunFileWidthsFixedByFirstEligibleBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	fan := func(n int, jitter int) []entry {
		es := make([]entry, n)
		for i := range es {
			es[i] = entry{
				ts:  shapeT0 + int64(i)*2_900_000_000 + int64(rng.Intn(2*jitter+1)-jitter),
				val: float64(1000 + 7*i),
				ver: shapeV0 + uint64(i)*2_900_000_000 + uint64(rng.Intn(3000))*versionTick,
			}
		}
		return es
	}
	series := map[core.SensorID][]entry{
		faninID(0): fan(1, 1_000_000),
		faninID(1): fan(2, 1_000_000),
		faninID(2): fan(3, 1_000_000),
		faninID(3): fan(5, 1_000_000),
		faninID(4): fan(5, 1_000_000),
		faninID(5): fan(5, 1_000_000_000), // a thousand times the jitter
	}
	meta, idx, err := writeRunFile(t.TempDir(), 1, 1, series, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := goldenBytes(t, meta.path)
	got, err := decodeRunFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := runContentsEqual(&runContents{minSeq: 1, maxSeq: 1, series: series}, got); err != nil {
		t.Fatal(err)
	}
	if err := coldSeriesEqual(meta.path, idx, series); err != nil {
		t.Fatal(err)
	}
	own := blockBase{ver: idx.base.ver, stampPeriod: idx.base.stampPeriod}
	if want := ownWidths(series[faninID(3)], own).tsWidth; idx.base.tsWidth != want {
		t.Errorf("ts width %d, want the fourth series' %d", idx.base.tsWidth, want)
	}
	if want := ownWidths(series[faninID(2)], own).stampWidth; idx.base.stampWidth != want || want == 0 {
		t.Errorf("stamp width %d, want the third series' %d", idx.base.stampWidth, want)
	}
	if p := int64(series[faninID(1)][1].ver/versionTick - series[faninID(1)][0].ver/versionTick); idx.base.stampPeriod != p {
		t.Errorf("stamp period %d, want the second series' %d", idx.base.stampPeriod, p)
	}
	// Before its width is fixed no block takes a width coding; the blocks
	// that fix them take them; after, a block takes one only where its
	// values fit, and the wide jitter does not.
	for s, se := range idx.series {
		es, c := series[se.id], codingOf(data[se.blocks[0].off])
		if c.ts == codingWidth && (s < 3 || scanTimestamps(es, 0).bits > int(idx.base.tsWidth)) ||
			c.stamps == stampClockWidth && (s < 2 || ownWidths(es, own).stampWidth > idx.base.stampWidth) {
			t.Errorf("series %d coded %+v at widths %d and %d", s, c, idx.base.tsWidth, idx.base.stampWidth)
		}
		if s == 3 && c.ts != codingWidth || s == 2 && c.stamps != stampClockWidth || s == 5 && c.ts == codingWidth {
			t.Errorf("series %d coded %+v", s, c)
		}
	}

	short := map[core.SensorID][]entry{faninID(0): series[faninID(0)], faninID(1): series[faninID(1)]}
	_, idx, err = writeRunFile(t.TempDir(), 1, 1, short, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx.base.tsWidth != 0 || idx.base.stampWidth != 0 {
		t.Errorf("a file of a one- and a two-entry block states widths %d and %d, want 0", idx.base.tsWidth, idx.base.stampWidth)
	}
}

// TestBlockWiderThanWidthNeverTakesIt: a block one of whose values
// needs a bit more than the file's width never takes that width coding,
// so no block outgrows its varints for a width another block fixed; at
// the width its values need, the coding's size is what it writes.
func TestBlockWiderThanWidthNeverTakesIt(t *testing.T) {
	narrow := 0
	for _, sh := range blockShapes() {
		for _, n := range []int{3, 5, 64, blockEntries} {
			es := sh.entries(n)
			fits := ownWidths(es, seedBase(es))
			ts := scanTimestamps(es, fits.tsWidth)
			if ts.bits != int(fits.tsWidth) {
				t.Fatalf("%s/%d: ts width %d, the residuals need %d", sh.name, n, fits.tsWidth, ts.bits)
			}
			below := fits
			below.tsWidth, below.stampWidth = fits.tsWidth-1, fits.stampWidth-1
			if fits.tsWidth == 0 {
				below.tsWidth = noWidth
			}
			if fits.stampWidth == 0 {
				below.stampWidth = noWidth
			}
			enc, _ := encodeBlock(nil, es, below)
			c := codingOf(enc[0])
			if c.ts == codingWidth || c.stamps == stampClockWidth {
				t.Fatalf("%s/%d: coded %+v at widths %d and %d, a bit below what the block needs", sh.name, n, c, below.tsWidth, below.stampWidth)
			}
			if _, got, err := codecRoundTrip(es, below); err != nil || entriesEqual(got, es) != nil {
				t.Fatalf("%s/%d at widths a bit below its own: %v", sh.name, n, err)
			}
			if enc, _ := encodeBlock(nil, es, fits); codingOf(enc[0]).ts == codingWidth {
				narrow++
			}
		}
	}
	if narrow == 0 {
		t.Fatal("no shape takes the ts width coding at the width it needs")
	}
}

// TestRunIndexPeriodChoice: the writer codes bounds against the median
// step of the file's blocks only where that makes the index shorter, and
// never against a period a full block's span cannot be predicted with.
func TestRunIndexPeriodChoice(t *testing.T) {
	block := func(count uint32, span int64) blockMeta { return blockMeta{count: count, min: 0, max: span} }
	for _, c := range []struct {
		name   string
		blocks []blockMeta
		want   uint64
	}{
		{"no block of two entries", []blockMeta{block(1, 0)}, 0},
		{"periodic", []blockMeta{block(5, 4_000_000_123), block(5, 3_999_999_000), block(2, 1_000_000_321)}, 1_000_000_030},
		{"the median would lengthen the index", []blockMeta{block(2, 3), block(2, 1e9)}, 0},
		{"a step too long for a full block", []blockMeta{block(2, math.MaxInt64/400), block(2, math.MaxInt64/400)}, 0},
	} {
		var series []seriesIndex
		for _, m := range c.blocks {
			series = append(series, seriesIndex{blocks: []blockMeta{m}})
		}
		if got := choosePeriod(series); got != c.want {
			t.Errorf("%s: period %d, want %d", c.name, got, c.want)
		}
	}
}

// indexHeader is an index header: minSeq 1, span, baseTS and baseVer 0,
// the given period, stampPeriod and both widths 0.
func indexHeader(period, tombs, series uint64) []byte {
	b := binary.AppendUvarint(nil, 1)
	b = append(b, 0, 0, 0)
	b = append(binary.AppendUvarint(b, period), 0, 0, 0)
	return binary.AppendUvarint(binary.AppendUvarint(b, tombs), series)
}

// zeroColumn is a column whose values are all 0: min 0, divisor 1,
// width 0, no packed bits.
var zeroColumn = []byte{0, 1, 0}

// column is the frame of a column of vs.
func column(vs ...int64) []byte { return appendColumn(nil, vs) }

// TestRunFilePages holds pages to their rule: a page closes at the first
// block end 1 KiB or more past its start — exactly at 1 KiB too — and
// before a block of 1 KiB or more, which stands alone; the last closes
// at the end of the data. The index states no page: the parser derives
// them from the lengths, and hands every block of a page the CRC the
// index lists for that page, in page order. In a written file, flipping
// any byte of a page fails the reads of that page's blocks and of no
// other block.
func TestRunFilePages(t *testing.T) {
	for _, c := range []struct {
		name  string
		lens  []uint32
		pages [][2]uint64 // offset in the data section, length
	}{
		{"closes exactly at 1 KiB", []uint32{1000, 24, 5}, [][2]uint64{{0, 1024}, {1024, 5}}},
		{"a byte short of 1 KiB", []uint32{1000, 23, 5}, [][2]uint64{{0, 1028}}},
		{"a block over 1 KiB stands alone", []uint32{5, 2000, 5}, [][2]uint64{{0, 5}, {5, 2000}, {2005, 5}}},
		{"blocks of 1 KiB back to back", []uint32{5, 1024, 1024, 3}, [][2]uint64{{0, 5}, {5, 1024}, {1029, 1024}, {2053, 3}}},
		{"one block", []uint32{7}, [][2]uint64{{0, 7}}},
	} {
		got, err := forgedIndex(oneBlockSeries(c.lens...))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var pages [][2]uint64
		for _, se := range got.series {
			m := se.blocks[0]
			if p := [2]uint64{m.pageOff - runMagicLen, uint64(m.pageLen)}; len(pages) == 0 || pages[len(pages)-1] != p {
				pages = append(pages, p)
			}
		}
		if !reflect.DeepEqual(pages, c.pages) {
			t.Errorf("%s: pages %v, want %v", c.name, pages, c.pages)
		}
	}

	// Each page's CRC, stated by the block that closes it, reaches every
	// block of the page: here blocks 0–2 make the first page and block 3,
	// over 1 KiB, the second.
	idx, dataLen := oneBlockSeries(1000, 23, 5, 2000)
	for i := range idx.series {
		idx.series[i].blocks[0].crc = 0xc0 + uint32(i)
	}
	got, err := forgedIndex(idx, dataLen)
	if err != nil {
		t.Fatal(err)
	}
	for i, se := range got.series {
		if want := []uint32{0xc2, 0xc2, 0xc2, 0xc3}[i]; se.blocks[0].crc != want {
			t.Errorf("block %d carries CRC %#x, want its page's %#x", i, se.blocks[0].crc, want)
		}
	}

	// A fan-in file: forty five-reading series around a full block of a
	// gauge, which is over 1 KiB.
	rng := rand.New(rand.NewSource(11))
	series := map[core.SensorID][]entry{}
	for s := 0; s < 41; s++ {
		es := blockShape{"fan-in", func(i int, e *entry) {
			e.ts += int64(i)*1_900_000_000 + int64(rng.Intn(3_000_000))
			e.val, e.ver = float64(s*1000+i), shapeV0+uint64(i)*2_900_000_000+uint64(rng.Intn(3000))*versionTick
		}}.entries(5)
		if s == 20 {
			es = blockShapes()[1].entries(blockEntries) // jittered XOR gauge
		}
		series[faninID(s)] = es
	}
	meta, idx, err := writeRunFile(t.TempDir(), 1, 1, series, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	shared, alone := 0, 0
	for _, se := range idx.series {
		for _, m := range se.blocks {
			if m.length >= pageMin && (m.pageOff != m.off || m.pageLen != m.length) {
				t.Fatalf("block of %d bytes shares its page [%d,+%d)", m.length, m.pageOff, m.pageLen)
			}
			if m.pageLen > m.length {
				shared++
			} else if m.length >= pageMin {
				alone++
			}
		}
	}
	if shared < 30 || alone != 1 {
		t.Fatalf("%d blocks share a page, %d of 1 KiB or more stand alone", shared, alone)
	}
	rf, err := openRunFileHandle(meta.path, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.release()
	f, err := os.OpenFile(meta.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	for off := int64(runMagicLen); off < idx.dataLen; off++ {
		f.ReadAt(b, off)
		b[0] ^= 0x20
		f.WriteAt(b, off)
		for _, se := range idx.series {
			for _, m := range se.blocks {
				var out []entry
				_, err := rf.decodeBlockAt(m, nil, &out)
				if inPage := uint64(off) >= m.pageOff && uint64(off) < m.pageOff+uint64(m.pageLen); (err != nil) != inPage {
					t.Fatalf("byte %d flipped: read of the block at %d (page [%d,+%d)): %v", off, m.off, m.pageOff, m.pageLen, err)
				}
			}
		}
		b[0] ^= 0x20
		f.WriteAt(b, off)
	}
}

// oneBlockSeries is an index of one-entry series, a block each, of the
// given lengths, and the end of their data section.
func oneBlockSeries(lens ...uint32) (*runIndex, int64) {
	idx := &runIndex{minSeq: 1, maxSeq: 1}
	dataLen := int64(runMagicLen)
	for i, n := range lens {
		idx.series = append(idx.series, seriesIndex{id: sid(1, uint64(i)), count: 1, blocks: []blockMeta{{length: n, count: 1}}})
		dataLen += int64(n)
	}
	return idx, dataLen
}

// forgedIndex serialises idx as it stands — appendRunIndex does not
// validate — and parses it back against a data section of dataLen.
func forgedIndex(idx *runIndex, dataLen int64) (*runIndex, error) {
	return parseRunIndex(appendRunIndex(nil, idx), dataLen)
}

// TestRunIndexAllocationGuards forges the counts and lengths a parser
// sizes allocations from. No block exceeds blockEntries, which caps
// anything sized from a count; the bytes no longer bound the count — a
// periodic, once-stamped, constant sensor is 512 entries in a dozen
// bytes, and the index cannot see a block's flags — so a length need
// only reach the shortest block there is. Nor do the index's bytes: a
// column of width 0 holds any number of values in none. What bounds the
// series and block counts is the data section, where every block takes
// the shortest block's bytes or more. Lengths, deltas and the period's
// predictions are checked in subtraction or division form so they
// cannot wrap past the check. A column is read where it lies, its
// length derived from the columns before it: a forged width or length
// fails with nothing sized from it. The other half of the guard is
// decodeRunFile's: nothing is sized from the index's summed claim, only
// from blocks that passed their page's CRC.
func TestRunIndexAllocationGuards(t *testing.T) {
	one := func(m blockMeta) *runIndex {
		return &runIndex{minSeq: 1, maxSeq: 1, series: []seriesIndex{{id: sid(1, 1), count: uint64(m.count), blocks: []blockMeta{m}}}}
	}
	periodic := func(period uint64) *runIndex {
		idx := one(blockMeta{length: 12, count: blockEntries, min: 0, max: blockEntries - 1})
		idx.period = period
		return idx
	}
	cases := []struct {
		name    string
		idx     *runIndex
		dataLen int64
		wantErr string
	}{
		{"smallest block", one(blockMeta{length: blockMinLen, count: 1}), 8 + blockMinLen, ""},
		{"full block in a dozen bytes", one(blockMeta{length: 12, count: blockEntries}), 8 + 12, ""},
		{"series count beyond its blocks", one(blockMeta{length: 4096, count: blockEntries + 1}), 8 + 4096, "column"},
		{"zero count", one(blockMeta{length: 9, count: 0}), 8 + 9, "empty series"},
		{"no room for a block", one(blockMeta{length: 1, count: 1}), 8 + 1, "series count overflows data section"},
		{"block too short for a value", &runIndex{series: []seriesIndex{
			{id: sid(1, 1), count: 1, blocks: []blockMeta{{length: 1, count: 1}}},
			{id: sid(1, 2), count: 1, blocks: []blockMeta{{length: 3, count: 1}}},
		}}, 8 + 4, "shorter than the shortest block"},
		{"length beyond the data", one(blockMeta{length: 100, count: 1}), 8 + 99, "overflows data section"},
		{"blocks leave a gap", one(blockMeta{length: 9, count: 1}), 8 + 10, "cover 9 of 10 data bytes"},
		{"max below min wraps", one(blockMeta{length: 9, count: 2, min: 5, max: 4}), 8 + 9, "bounds overflow"},
		{"min below base wraps", &runIndex{series: []seriesIndex{
			{id: sid(1, 1), count: 1, min: math.MaxInt64, blocks: []blockMeta{{length: 9, count: 1, min: math.MaxInt64, max: math.MaxInt64}}},
			{id: sid(1, 2), count: 1, min: math.MaxInt64, blocks: []blockMeta{{length: 9, count: 1, min: 0, max: 0}}},
		}}, 8 + 18, "bounds overflow"},
		{"series out of order", &runIndex{series: []seriesIndex{
			{id: sid(1, 2), count: 1, blocks: []blockMeta{{length: 9, count: 1}}},
			{id: sid(1, 1), count: 1, blocks: []blockMeta{{length: 9, count: 1}}},
		}}, 8 + 18, "series out of order"},
		{"index inside the magic", one(blockMeta{length: 9, count: 1}), 7, "inside the magic"},
		{"a period a full block's span can take", periodic(math.MaxInt64 / (blockEntries - 1)), 8 + 12, ""},
		{"(count-1)·period beyond int64", periodic(math.MaxInt64/(blockEntries-1) + 1), 8 + 12, "prediction overflows"},
		{"period beyond int64", periodic(math.MaxInt64 + 1), 8 + 12, "period overflows"},
		{"period at 2^64-1", periodic(math.MaxUint64), 8 + 12, "period overflows"},
	}
	for _, c := range cases {
		_, err := forgedIndex(c.idx, c.dataLen)
		if c.wantErr == "" && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.wantErr)
		}
	}

	// Counts no data section of that size could back up, lengths and
	// spans near 2^64 that an additive bound check would wrap past,
	// SIDs no writer codes, and columns whose width, divisor, length or
	// padding no writer gives them — parsed against a data section of
	// one 2-byte block.
	uv := binary.AppendUvarint
	crc := []byte{0, 0, 0, 0}
	two := column(2) // the length of a 2-byte block
	// forge is an index of one series at period: its head, step and
	// count columns, then rest.
	forge := func(period uint64, head, step, count int64, rest ...[]byte) []byte {
		b := indexHeader(period, 0, 1)
		for _, r := range append([][]byte{column(head), column(step), column(count)}, rest...) {
			b = append(b, r...)
		}
		return b
	}
	// series is such an index of SID /1, of count entries.
	series := func(period, count uint64, rest ...[]byte) []byte {
		return forge(period, 0x01, 1, int64(count), rest...)
	}
	// widths is an index of one one-entry series at the given widths.
	widths := func(ts, stamp byte) []byte {
		b := series(0, 1, two, zeroColumn, crc)
		b[6], b[7] = ts, stamp
		return b
	}
	type forgery struct {
		name    string
		index   []byte
		wantErr string
	}
	forgeries := []forgery{
		{"tombstone count", indexHeader(0, 1<<40, 0), "tombstone count overflows"},
		{"span", append(uv(uv(nil, 2), math.MaxUint64), 0, 0, 0, 0, 0, 0, 0, 0), "span overflows"},
		{"block length", series(0, 1, column(-1), zeroColumn, crc), "overflows data section"},
		{"lengths past the data section", series(0, 1, column(3), zeroColumn, crc), "overflows data section"},
		{"block span past int64", series(0, 2, two, column(1), column(math.MaxInt64), crc), "bounds overflow"},
		{"gap past int64", series(0, 1, two, column(-1), crc), "bounds overflow"},
		{"(count-1)·period beyond int64", series(math.MaxInt64/7, 9, two, zeroColumn, zeroColumn, crc), "prediction overflows"},
		{"period beyond int64", series(1<<63, 1, two, zeroColumn, crc), "period overflows"},
		{"ts width above 64", widths(65, 0), "above 64"},
		{"stamp width above 64", widths(0, 65), "above 64"},
		{"first new level code above 0xffff", forge(0, 0x01, 1<<16, 1, two, zeroColumn, crc), "above 0xffff"},
		{"later level code above 0xffff", forge(0, 0x02, 1, 1, two, zeroColumn, uv(nil, 1<<16), crc), "above 0xffff"},
		{"more levels than a SID has", forge(0, 0x54, 1, 1, two, zeroColumn, crc), "malformed sensor id"},
		{"level codes missing", forge(0, 0x03, 1, 1, two, zeroColumn, []byte{1}), "truncated"},
	}
	// Each of these is refused having allocated next to nothing.
	columns := []forgery{
		{"2^32 series in a width-0 head column", append(indexHeader(0, 0, 1<<32), column(1)...), "series count overflows data section"},
		{"2^32 blocks in a width-0 count column", series(0, 1<<32*blockEntries, two, zeroColumn, crc), "block count overflows data section"},
		{"2^32 blocks in a width-0 length column", series(0, 1<<32*blockEntries, column(2, 2), zeroColumn, zeroColumn, zeroColumn, crc), "block count overflows data section"},
		{"entry count 2^64-1", series(0, math.MaxUint64, two, zeroColumn, crc), "block count overflows data section"},
		{"lengths short of the data section", series(0, 1, column(1), zeroColumn, crc), "shorter than the shortest block"},
		{"column width above 64", series(0, 1, two, []byte{0, 1, 65, 0, 0, 0, 0, 0, 0, 0, 0, 0}, crc), "first-gap column"},
		{"column divisor 0", series(0, 1, two, []byte{0, 0, 0}, crc), "first-gap column"},
		{"column cut short", series(0, 1, two, []byte{0, 1, 64, 0, 0, 0, 0, 0, 0, 0}), "first-gap column"},
		{"column missing", series(0, 2, two, zeroColumn), "span column"},
		{"column padding not zero", series(0, 1, two, []byte{0, 1, 1, 0x40}, crc), "first-gap column: store: block frame padding"},
		{"CRC list short", series(0, 1, two, zeroColumn, crc[:3]), "holds 3 bytes of its 1 pages' CRCs"},
		{"trailing bytes", series(0, 1, two, zeroColumn, crc, []byte{0}), "1 trailing bytes"},
	}
	for _, c := range append(forgeries, columns...) {
		if _, err := parseRunIndex(c.index, 8+2); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("forged %s: %v, want an error containing %q", c.name, err, c.wantErr)
		}
	}
	// The layout above is what the parser reads: unforged, it passes —
	// with a first gap of 0 and of 7, at widths up to 64, with a span
	// where the block has two entries, and with a SID of two new levels.
	for _, index := range [][]byte{series(0, 1, two, zeroColumn, crc), series(0, 1, two, column(7), crc), widths(64, 64),
		series(0, 2, two, zeroColumn, column(3), crc), forge(0, 0x02, 1, 1, two, zeroColumn, uv(nil, 0xffff), crc)} {
		if _, err := parseRunIndex(index, 8+2); err != nil {
			t.Fatalf("the forged cases' well-formed base %x rejected: %v", index, err)
		}
	}
	// A column is read where it lies and a count is checked against the
	// data section before anything is sized from it, so these forgeries
	// cost what an error costs to report.
	for _, c := range columns {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parseRunIndex(c.index, 8+2)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<10 {
			t.Errorf("forged %s: parsing allocated %d bytes", c.name, grew)
		}
	}
	// A CRC list one short and one long, under an index of three pages.
	idx, _ := oneBlockSeries(5, 2000, 5)
	three := appendRunIndex(nil, idx)
	for _, c := range []forgery{
		{"one CRC short", three[:len(three)-4], "holds 8 bytes of its 3 pages' CRCs"},
		{"one CRC long", append(three[:len(three):len(three)], crc...), "4 trailing bytes"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := parseRunIndex(c.index, 8+2010)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: %v, want an error containing %q", c.name, err, c.wantErr)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<10 {
			t.Errorf("%s: parsing allocated %d bytes", c.name, grew)
		}
	}
	// The last forgery claims 512 entries a block for 2^16 two-byte
	// blocks, so the columns' lengths — derived from the counts — are
	// 2^16 spans, at width 64 half a MiB that the index does not hold.
	const many = 1 << 16
	pages := make([]byte, 4*many/512) // a page closes every 512 blocks, at 1 KiB
	long := series(0, many*blockEntries, two, zeroColumn, zeroColumn, []byte{0, 1, 64}, pages)
	if _, err := parseRunIndex(long, 8+2*many); err == nil || !strings.Contains(err.Error(), "span column") {
		t.Errorf("a span column of %d values in no bytes: %v, want it refused", many, err)
	}
	if _, err := parseRunIndex(series(0, many*blockEntries, two, zeroColumn, zeroColumn, zeroColumn, pages), 8+2*many); err != nil {
		t.Errorf("the same index at span width 0: %v", err)
	}

	// A 64 KB file whose index claims 512 entries for each of a few
	// thousand two-byte blocks — 100 MB of entries — none of whose pages
	// passes its CRC: the decode must fail having allocated next to
	// nothing.
	const blocks = 5000
	forged := &runIndex{minSeq: 1, maxSeq: 1, series: []seriesIndex{{id: sid(1, 1), count: blocks * blockEntries, blocks: make([]blockMeta, blocks)}}}
	for i := range forged.series[0].blocks {
		forged.series[0].blocks[i] = blockMeta{length: blockMinLen, count: blockEntries, crc: 0xdeadbeef}
	}
	file := append([]byte(nil), runMagic...)
	file = append(file, make([]byte, blocks*blockMinLen)...)
	index := appendRunIndex(nil, forged)
	footer, err := runFooter(uint64(len(file)), len(index), crc32.ChecksumIEEE(index))
	if err != nil {
		t.Fatal(err)
	}
	file = append(append(file, index...), footer[:]...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeRunFile(file)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("forged %d-byte file claiming %d entries: %v, want a page CRC mismatch", len(file), blocks*blockEntries, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("decoding a forged %d-byte file allocated %d bytes before failing", len(file), grew)
	}
}

// oneEntrySpanFile is a run file whose index gives its one block, of
// one entry, a span of 5 ns — a span column of one value after the
// first-gap column, where a file without a block of two entries has
// none — the index CRC made to match: only the index parser can tell.
func oneEntrySpanFile(t interface{ Fatal(...any) }) []byte {
	id := goldenShardIDs(1)[0]
	file := writtenRunFileBytes(t, &runContents{minSeq: 1, maxSeq: 2, series: map[core.SensorID][]entry{
		id: {{ts: shapeT0, val: 21.5, ver: shapeV0}},
	}})
	idx := fileIndex(t, file)
	index := file[idx.dataLen : len(file)-runFooterLen]
	// The columns end before the SID's further levels and the one page's
	// CRC.
	tail := 4
	shared, end := sidLevels(core.SensorID{}, id)
	for l := shared + 1; l < end; l++ {
		tail += uvarintLen(uint64(id.Level(l)))
	}
	cols := len(index) - tail
	index = slices.Concat(index[:cols], appendColumn(nil, []int64{5}), index[cols:])
	footer, err := runFooter(uint64(idx.dataLen), len(index), crc32.ChecksumIEEE(index))
	if err != nil {
		t.Fatal(err)
	}
	return slices.Concat(file[:idx.dataLen], index, footer[:])
}

// TestRunFileOneEntrySpanRefused: a block of one entry has no span, its
// one timestamp being both its bounds, and the span column no entry for
// it. A file whose index gives it one fails the hot (cache-less) and
// the cold open alike — the cold one never decodes the block, so it is
// the parser that refuses it.
func TestRunFileOneEntrySpanRefused(t *testing.T) {
	dir := t.TempDir()
	placeRunFile(t, dir, oneEntrySpanFile(t))
	for _, o := range []DiskOptions{noCompact, coldOptions} {
		n := NewNode(0)
		err := n.OpenOptions(dir, o)
		if err == nil {
			n.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "run index has 3 trailing bytes") {
			t.Errorf("open %+v over a one-entry block with a span: %v", o, err)
		}
	}
}

// TestBlockDecodeCountGuard covers the decoder's own copy of the bound
// (it is fuzzed without an index in front of it): the shortest blocks
// of both value codings, a block whose entries cost no bits, and counts
// the block cannot be.
func TestBlockDecodeCountGuard(t *testing.T) {
	single, _ := encodeBlock(nil, []entry{{ts: 42, val: 1.5}}, blockBase{})
	if len(single) != 1+8 {
		t.Fatalf("one-entry block is %d bytes, want 9: nothing but flags and the raw value", len(single))
	}
	at42 := blockMeta{count: 1, min: 42, max: 42}
	var out []entry
	if err := decodeBlock(single, at42, blockBase{}, &out); err != nil || len(out) != 1 || out[0] != (entry{ts: 42, val: 1.5}) {
		t.Fatalf("one-entry block: %+v, %v", out, err)
	}
	for _, count := range []uint32{0, 2, blockEntries + 1, math.MaxUint32} {
		out = out[:0]
		if err := decodeBlock(single, blockMeta{count: count, min: 42, max: 42}, blockBase{}, &out); err == nil || len(out) != 0 {
			t.Errorf("count %d over a one-entry block: %+v, %v", count, out, err)
		}
	}
	// Stamp coding 3, the clock at the file's width, reads its width from
	// the base: one above 64 is refused, as a frame's is.
	clockWidth := []byte{blockFlagVersion | stampClockWidth<<blockStampsShift, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if err := decodeBlock(clockWidth, at42, blockBase{stampWidth: 64}, &out); err != nil || len(out) != 1 {
		t.Errorf("flags %#x at stamp width 64: %v", clockWidth[0], err)
	}
	out = out[:0]
	if err := decodeBlock(clockWidth, at42, blockBase{stampWidth: 65}, &out); err == nil || !strings.Contains(err.Error(), "width 65") || len(out) != 0 {
		t.Errorf("flags %#x at stamp width 65: %v, want the width refused", clockWidth[0], err)
	}
	// Bit 7 alone is stamp coding 2, the clock, of no section here.
	if err := decodeBlock([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0}, at42, blockBase{}, &out); err != nil || len(out) != 1 {
		t.Errorf("flags 0x80: %v", err)
	}
	out = out[:0]

	small, _ := encodeBlock(nil, []entry{{ts: 42, val: 3}}, blockBase{})
	if len(small) != blockMinLen {
		t.Fatalf("one-entry integer block is %d bytes, want %d", len(small), blockMinLen)
	}
	out = out[:0]
	if err := decodeBlock(small, at42, blockBase{}, &out); err != nil || len(out) != 1 || out[0] != (entry{ts: 42, val: 3}) {
		t.Fatalf("one-entry integer block: %+v, %v", out, err)
	}
	if err := decodeBlock(small[:1], at42, blockBase{}, &out); err == nil {
		t.Error("a lone flags byte accepted as a block")
	}

	// 512 entries in a dozen bytes: legitimate, and only as many as the
	// index says — but never more than a block holds.
	flat := make([]entry, blockEntries)
	for i := range flat {
		flat[i] = entry{ts: int64(i) * 1_000_000_000, val: 7}
	}
	dozen, _ := encodeBlock(nil, flat, blockBase{})
	if len(dozen) > 12 {
		t.Fatalf("periodic constant block is %d bytes, want at most 12", len(dozen))
	}
	out = out[:0]
	if err := decodeBlock(dozen, metaOf(flat), blockBase{}, &out); err != nil || entriesEqual(out, flat) != nil {
		t.Fatalf("periodic constant block: %v, %v", err, entriesEqual(out, flat))
	}
	big := make([]byte, 1<<16)
	over := metaOf(flat)
	over.count++
	for _, raw := range [][]byte{dozen, big} {
		if err := decodeBlock(raw, over, blockBase{}, &out); err == nil {
			t.Error("count beyond blockEntries accepted")
		}
	}
}

// TestRunFooterRejectsOversizedIndex: the footer's length field is 32
// bits; the writer must fail rather than commit a truncated length.
func TestRunFooterRejectsOversizedIndex(t *testing.T) {
	if _, err := runFooter(8, math.MaxUint32, 0); err != nil {
		t.Fatalf("largest representable index rejected: %v", err)
	}
	if _, err := runFooter(8, math.MaxUint32+1, 0); err == nil {
		t.Fatal("index longer than the footer's length field accepted")
	}
}

// benchBlocks returns full blocks of the three value shapes monitoring
// data takes — a monotone integer counter, a quantised gauge walking in
// quarter steps, a set-point that never moves — each written one
// reading per call, and the burst shape: the integer counter forwarded
// 64 readings a message, so 64 consecutive entries share a version. All
// carry versions and ns-jittered timestamps, as every write since PR 9
// does. The fan-in shape is the block a file holds of one of very many
// sensors: five readings of an integer counter, one a round of the
// writer's loop, stamped on the coordinator's clock. The line shape is a
// full block coded against its line in both streams: the counter with
// noise that does not accumulate, sampled with ±1 ms of jitter, its two
// ends on the grid. Each is coded against the widths it needs, as the
// first block of its file fixes them (seedBase).
func benchBlocks() map[string][]entry {
	rng := rand.New(rand.NewSource(5))
	const t0, v0 = int64(1_560_000_000_000_000_000), uint64(1_700_000_000_000_000_000)
	shapes := map[string][]entry{}
	for _, name := range []string{"counter", "gauge", "setpoint", "burst"} {
		es := make([]entry, blockEntries)
		walk := 48.0
		for i := range es {
			es[i] = entry{
				ts:  t0 + int64(i)*1_000_000_000 + int64(rng.Intn(20_000_001)) - 10_000_000,
				ver: v0 + uint64(i)*1_000_000_000 + uint64(rng.Intn(50_000)),
			}
			switch name {
			case "counter":
				es[i].val = float64(1_000_003 + i*1977)
			case "gauge":
				walk += float64(rng.Intn(5)-2) * 0.25
				es[i].val = walk
			case "setpoint":
				es[i].val = 18.5
			case "burst":
				es[i].val = float64(1_000_003 + i*1977 + rng.Intn(1500))
				if i%64 != 0 {
					es[i].ver = es[i-1].ver
				}
			}
		}
		shapes[name] = es
	}
	fanin := make([]entry, 5)
	for i := range fanin {
		fanin[i] = entry{
			ts:  t0 + int64(i)*1_000_000_000 + int64(rng.Intn(20_000_001)) - 10_000_000,
			val: float64(1_000_003 + i*1977),
			ver: v0 + uint64(i)*2_900_000_000 + uint64(rng.Intn(3000))*versionTick,
		}
	}
	shapes["fanin"] = fanin
	line := make([]entry, blockEntries)
	for i := range line {
		jitter, noise := rng.Intn(2_000_001)-1_000_000, rng.Intn(900)
		if i == 0 || i == blockEntries-1 { // the ends on the grid: the line is the grid
			jitter, noise = 0, 0
		}
		line[i] = entry{
			ts:  t0 + int64(i)*1_000_000_000 + int64(jitter),
			val: float64(1_000_003 + i*1977 + noise),
			ver: v0 + uint64(i)*1_000_000_000 + uint64(rng.Intn(50_000)),
		}
	}
	shapes["line"] = line
	return shapes
}

func BenchmarkBlockEncode(b *testing.B) {
	for name, es := range benchBlocks() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			base := seedBase(es)
			for i := 0; i < b.N; i++ {
				buf, _ = encodeBlock(buf[:0], es, base)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(es)), "ns/reading")
			b.ReportMetric(float64(len(buf))/float64(len(es)), "B/reading")
		})
	}
}

func BenchmarkBlockDecode(b *testing.B) {
	for name, es := range benchBlocks() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			base := seedBase(es)
			enc, _ := encodeBlock(nil, es, base)
			if c, _ := readFlags(enc[0], len(es)); name == "line" && (c.ts == codingFirst || c.values != codingLineFrame) {
				b.Fatalf("line shape coded %+v", c)
			}
			out := make([]entry, 0, len(es))
			for i := 0; i < b.N; i++ {
				out = out[:0]
				if err := decodeBlock(enc, metaOf(es), base, &out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(es)), "ns/reading")
		})
	}
}

// BenchmarkQueryColdFanIn prices a cold point read of a fan-in file:
// one reading of one of 20 000 five-reading series, through a block
// cache far smaller than the file, so nearly every read misses and
// fetches, checks and decodes the page holding its block.
func BenchmarkQueryColdFanIn(b *testing.B) {
	const sensors = 20_000
	rng := rand.New(rand.NewSource(20))
	series := make(map[core.SensorID][]entry, sensors)
	for s := 0; s < sensors; s++ {
		es := make([]entry, 5)
		for i := range es {
			es[i] = entry{
				ts:  shapeT0 + int64(i)*2_900_000_000 + int64(rng.Intn(3_000_000)),
				val: float64(s*1_000_003 + i*977),
				ver: shapeV0 + uint64(i)*2_900_000_000 + uint64(rng.Intn(3000))*versionTick,
			}
		}
		series[faninID(s)] = es
	}
	meta, idx, err := writeRunFile(b.TempDir(), 1, 1, series, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	rf, err := openRunFileHandle(meta.path, idx, newBlockCache(64<<10))
	if err != nil {
		b.Fatal(err)
	}
	defer rf.release()
	runs, points := make([]coldRun, sensors), make([]int64, sensors)
	for s, se := range idx.series {
		runs[s], points[s] = coldRun{rf: rf, blocks: se.blocks, count: int(se.count)}, series[se.id][2].ts
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i * 7919 % sensors
		at := points[s]
		it := makeColdIter(&runs[s], rf.cache, at, at)
		if e, ok := it.next(); !ok || e.ts != at {
			b.Fatalf("point read of series %d at %d: %+v, %v", s, at, e, it.err)
		}
		it.close()
	}
}

// TestRunIndexParsersSurviveDamage feeds the index parser — behind the
// footer CRC in production, bare here — every prefix of three valid
// indexes, the writer's over every coding, a fan-in file's and the
// fixture's, and every single-byte corruption of them. A prefix must be
// rejected; a corruption may parse (the CRC, not the parser, catches a
// flipped bound) but must never panic or reach past the data section.
func TestRunIndexParsersSurviveDamage(t *testing.T) {
	split := func(file []byte) (index []byte, dataLen int64) {
		dataLen = int64(binary.BigEndian.Uint64(file[len(file)-runFooterLen:]))
		return file[dataLen : len(file)-runFooterLen], dataLen
	}
	for name, file := range map[string][]byte{
		"writer":         validRunFileBytes(t),
		"writer, fan-in": writtenRunFileBytes(t, skewedFanInContents()),
		"fixture":        goldenBytes(t, goldenV7Path),
	} {
		index, dataLen := split(file)
		if _, err := parseRunIndex(index, dataLen); err != nil {
			t.Fatalf("%s: intact index rejected: %v", name, err)
		}
		for n := 0; n < len(index); n++ {
			if _, err := parseRunIndex(index[:n], dataLen); err == nil {
				t.Fatalf("%s: index truncated to %d of %d bytes accepted", name, n, len(index))
			}
		}
		for i := range index {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				damaged := append([]byte(nil), index...)
				damaged[i] ^= flip
				idx, err := parseRunIndex(damaged, dataLen)
				if err != nil {
					continue
				}
				if err := blocksInBounds(idx); err != nil {
					t.Fatalf("%s: byte %d ^ %#x: %v", name, i, flip, err)
				}
			}
		}
	}
}

// blocksInBounds checks what a parsed index promises the readers: every
// block lies inside its page, every page inside the data section, the
// pages tile it, no count exceeds a block, and a block of one entry has
// no span.
func blocksInBounds(idx *runIndex) error {
	end := uint64(runMagicLen) // of the last page seen
	for _, se := range idx.series {
		for _, m := range se.blocks {
			if m.count == 1 && m.min != m.max {
				return fmt.Errorf("accepted a one-entry block over [%d,%d]", m.min, m.max)
			}
			if m.count == 0 || m.count > blockEntries || m.off < m.pageOff ||
				m.off+uint64(m.length) > m.pageOff+uint64(m.pageLen) || m.pageOff+uint64(m.pageLen) > uint64(idx.dataLen) {
				return fmt.Errorf("accepted block %+v outside its page or the %d-byte data section", m, idx.dataLen)
			}
			if m.pageOff != end && m.pageOff+uint64(m.pageLen) != end {
				return fmt.Errorf("accepted block %+v in a page that does not follow the one ending at %d", m, end)
			}
			end = m.pageOff + uint64(m.pageLen)
		}
	}
	if end != uint64(idx.dataLen) {
		return fmt.Errorf("pages end at %d of %d data bytes", end, idx.dataLen)
	}
	return nil
}
