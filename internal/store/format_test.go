package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"dcdb/internal/core"
)

// Tests of run-file format v3 itself: round trips over block shapes
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
			if i >= len(es) || e.ts != es[i].ts || e.expire != es[i].expire || e.ver != es[i].ver ||
				math.Float64bits(e.val) != math.Float64bits(es[i].val) {
				return fmt.Errorf("series %v entry %d: cold read %+v diverges from input", se.id, i, e)
			}
		}
		it.close()
	}
	return nil
}

// TestRunFileRoundTripShapes is the format's round-trip property over
// the shapes that sit on its edges: series of 1, 2, 511, 512 and 513
// entries (no body, one delta, one short of a block, exactly one, one
// over), duplicate timestamps, all-equal versions, mixed zero and
// non-zero versions, versions below the file's base, expire sections.
// Whatever goes in must come out entry for entry, hot and cold alike.
func TestRunFileRoundTripShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const v0 = uint64(1_700_000_000_000_000_000)
	shapes := []func(i int, e *entry){
		func(i int, e *entry) {},                                                                      // unversioned, unique timestamps
		func(i int, e *entry) { e.ts = int64(i/3) * 1000 },                                            // duplicate timestamps
		func(i int, e *entry) { e.ver = v0 },                                                          // all-equal versions
		func(i int, e *entry) { e.ver = v0 + uint64(i)*999 },                                          // rising versions
		func(i int, e *entry) { e.ver = v0 - uint64(i)*12345 },                                        // falling: below the file's base
		func(i int, e *entry) { e.ver = uint64(i%3) * v0 },                                            // mixed zero and non-zero
		func(i int, e *entry) { e.expire = int64(i%5) * 1e12 },                                        // expire section
		func(i int, e *entry) { e.ts = math.MinInt64 + int64(i); e.ver = math.MaxUint64 - uint64(i) }, // range ends
		func(i int, e *entry) { // everything at once, far from the other series in time
			e.ts -= 1 << 50
			e.ver = v0 + uint64(rng.Intn(1<<30))
			e.expire = int64(rng.Intn(1 << 40))
		},
	}
	series := map[core.SensorID][]entry{}
	next := uint64(0)
	for _, shape := range shapes {
		for _, n := range []int{1, 2, blockEntries - 1, blockEntries, blockEntries + 1} {
			es := make([]entry, n)
			for i := range es {
				es[i] = entry{ts: int64(i) * 1_000_000_007, val: float64(i%50) * 0.5}
				shape(i, &es[i])
			}
			// Spread the ids so prefix coding sees long and short shared
			// prefixes, and trailing zero bytes.
			next++
			id := sid(next<<40, (next%3)<<56)
			series[id] = es
		}
	}
	// A series reaching the top of the timestamp range, so the index's
	// delta chain ends at MaxInt64 without overflowing.
	series[sid(math.MaxUint64, math.MaxUint64)] = []entry{{ts: math.MaxInt64 - 1, val: 1}, {ts: math.MaxInt64, val: 2}}
	tombs := map[core.SensorID]int64{sid(1, 0): math.MinInt64, sid(1, 1): math.MaxInt64, {}: -1}

	dir := t.TempDir()
	meta, idx, err := writeRunFile(dir, 7, 1<<40, series, tombs)
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

// forgedIndex serialises idx as it stands — appendRunIndex does not
// validate — and parses it back against a data section of dataLen.
func forgedIndex(idx *runIndex, dataLen int64) error {
	_, err := parseRunIndex(appendRunIndex(nil, idx), dataLen)
	return err
}

// TestRunIndexAllocationGuards forges the counts and lengths a parser
// sizes allocations from. With the first entry anchored in the index a
// block of count entries holds count-1 timestamp varints, so the bound
// is count-1 <= len-9 (flags byte, first value), and no block exceeds
// blockEntries; lengths and deltas are checked in subtraction form so
// they cannot wrap past the check.
func TestRunIndexAllocationGuards(t *testing.T) {
	one := func(m blockMeta) *runIndex {
		return &runIndex{minSeq: 1, maxSeq: 1, series: []seriesIndex{{id: sid(1, 1), blocks: []blockMeta{m}}}}
	}
	cases := []struct {
		name    string
		idx     *runIndex
		dataLen int64
		wantErr string
	}{
		{"smallest block", one(blockMeta{length: 9, count: 1}), 8 + 9, ""},
		{"full block", one(blockMeta{length: 9 + blockEntries - 1, count: blockEntries}), 8 + 9 + blockEntries - 1, ""},
		{"count beyond the bytes", one(blockMeta{length: 9, count: 2}), 8 + 9, "exceeds what 9 payload bytes"},
		{"count beyond a block", one(blockMeta{length: 4096, count: blockEntries + 1}), 8 + 4096, "outside [1,512]"},
		{"zero count", one(blockMeta{length: 9, count: 0}), 8 + 9, "outside [1,512]"},
		{"block too short for a value", one(blockMeta{length: 8, count: 1}), 8 + 8, "exceeds what 8 payload bytes"},
		{"length beyond the data", one(blockMeta{length: 100, count: 1}), 8 + 99, "overflows data section"},
		{"blocks leave a gap", one(blockMeta{length: 9, count: 1}), 8 + 10, "cover 9 of 10 data bytes"},
		{"max below min wraps", one(blockMeta{length: 9, count: 1, min: 5, max: 4}), 8 + 9, "bounds overflow"},
		{"min below base wraps", &runIndex{series: []seriesIndex{
			{id: sid(1, 1), min: math.MaxInt64, blocks: []blockMeta{{length: 9, count: 1, min: math.MaxInt64, max: math.MaxInt64}}},
			{id: sid(1, 2), min: math.MaxInt64, blocks: []blockMeta{{length: 9, count: 1, min: 0, max: 0}}},
		}}, 8 + 18, "bounds overflow"},
		{"series out of order", &runIndex{series: []seriesIndex{
			{id: sid(1, 2), blocks: []blockMeta{{length: 9, count: 1}}},
			{id: sid(1, 1), blocks: []blockMeta{{length: 9, count: 1}}},
		}}, 8 + 18, "series out of order"},
		{"index inside the magic", one(blockMeta{length: 9, count: 1}), 7, "inside the magic"},
	}
	for _, c := range cases {
		err := forgedIndex(c.idx, c.dataLen)
		if c.wantErr == "" && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.wantErr)
		}
	}

	// Counts no byte string of that size could back up, and a length
	// near 2^64 that an additive bound check would wrap past.
	hdr := func(tombs, series uint64) []byte {
		b := binary.AppendUvarint(nil, 1) // minSeq
		b = append(b, 0, 0, 0)            // span, baseTS, baseVer
		b = binary.AppendUvarint(b, tombs)
		return binary.AppendUvarint(b, series)
	}
	raw := map[string][]byte{
		"tombstone count": hdr(1<<40, 0),
		"series count":    hdr(0, 1<<40),
		"block count":     binary.AppendUvarint(append(hdr(0, 1), 0x00, 0x01), 1<<40),
		"block length":    append(binary.AppendUvarint(append(hdr(0, 1), 0x00, 0x01, 0x01), math.MaxUint64-3), 1, 0, 0, 0, 0, 0, 0),
		"span":            append(binary.AppendUvarint(binary.AppendUvarint(nil, 2), math.MaxUint64), 0, 0, 0, 0),
	}
	for name, b := range raw {
		if _, err := parseRunIndex(b, 1<<20); err == nil {
			t.Errorf("forged %s accepted", name)
		}
	}
}

// TestBlockDecodeCountGuard covers the decoder's own copy of the bound
// (it is fuzzed without an index in front of it) in both forms: a v3
// block of one entry has an empty timestamp stream, a legacy one does
// not.
func TestBlockDecodeCountGuard(t *testing.T) {
	single := encodeBlock(nil, []entry{{ts: 42, val: 1.5}}, 0)
	if len(single) != blockFixedLen {
		t.Fatalf("one-entry block is %d bytes, want %d: nothing but flags and the value", len(single), blockFixedLen)
	}
	var out []entry
	if err := decodeBlock(single, 1, 42, blockBase{}, &out); err != nil || len(out) != 1 || out[0] != (entry{ts: 42, val: 1.5}) {
		t.Fatalf("one-entry block: %+v, %v", out, err)
	}
	for _, count := range []int{-1, 0, 2, blockEntries + 1, math.MaxInt32} {
		out = out[:0]
		if err := decodeBlock(single, count, 42, blockBase{}, &out); err == nil || len(out) != 0 {
			t.Errorf("count %d over a one-entry block: %+v, %v", count, out, err)
		}
	}
	// The same nine bytes cannot be a legacy block: that form needs a
	// timestamp byte for its first entry too.
	if err := decodeBlock(single, 1, 0, blockBase{legacy: true}, &out); err == nil {
		t.Error("legacy decode accepted a block too short to state its first timestamp")
	}
	big := make([]byte, 1<<16)
	if err := decodeBlock(big, blockEntries+1, 0, blockBase{}, &out); err == nil {
		t.Error("count beyond blockEntries accepted")
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

// TestGoldenV2ForgedCountRejected patches the checked-in v2 file's
// first block count — refreshing the footer CRC so only the guard can
// object — to values the legacy bound must refuse.
func TestGoldenV2ForgedCountRejected(t *testing.T) {
	orig, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	footer := orig[len(orig)-runFooterLen:]
	indexOff := binary.BigEndian.Uint64(footer)
	// index header, two tombstones, first series header, then the first
	// block entry: off u64 | len u32 | count u32 | ...
	entryOff := int(indexOff) + v2IndexFixedLen + 2*v2TombLen + v2SeriesHdrLen
	length := binary.BigEndian.Uint32(orig[entryOff+8:])
	if got := binary.BigEndian.Uint32(orig[entryOff+12:]); got != blockEntries {
		t.Fatalf("fixture layout changed: first block count %d", got)
	}
	for _, forged := range []uint32{0, blockEntries + 1, length, math.MaxUint32} {
		data := append([]byte(nil), orig...)
		binary.BigEndian.PutUint32(data[entryOff+12:], forged)
		index := data[indexOff : len(data)-runFooterLen]
		binary.BigEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(index))
		if _, err := decodeRunFile(data); err == nil {
			t.Errorf("legacy index with block count %d accepted", forged)
		}
	}
}

// benchBlocks returns full blocks of the three value shapes monitoring
// data takes: a monotone integer counter, a quantised gauge walking in
// quarter steps, and a set-point that never moves. All carry versions
// and ns-jittered timestamps, as every write since PR 9 does.
func benchBlocks() map[string][]entry {
	rng := rand.New(rand.NewSource(5))
	const t0, v0 = int64(1_560_000_000_000_000_000), uint64(1_700_000_000_000_000_000)
	shapes := map[string][]entry{}
	for _, name := range []string{"counter", "gauge", "setpoint"} {
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
			default:
				es[i].val = 18.5
			}
		}
		shapes[name] = es
	}
	return shapes
}

func BenchmarkBlockEncode(b *testing.B) {
	for name, es := range benchBlocks() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = encodeBlock(buf[:0], es, es[0].ver)
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
			enc := encodeBlock(nil, es, es[0].ver)
			out := make([]entry, 0, len(es))
			for i := 0; i < b.N; i++ {
				out = out[:0]
				if err := decodeBlock(enc, len(es), es[0].ts, blockBase{ver: es[0].ver}, &out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(es)), "ns/reading")
		})
	}
}

// TestRunIndexParsersSurviveDamage feeds both index parsers — behind
// the footer CRC in production, bare here — every prefix of a valid
// index and every single-byte corruption of it. A prefix must be
// rejected; a corruption may parse (the CRC, not the parser, catches a
// flipped bound) but must never panic or reach past the data section.
func TestRunIndexParsersSurviveDamage(t *testing.T) {
	split := func(file []byte) (index []byte, dataLen int64) {
		dataLen = int64(binary.BigEndian.Uint64(file[len(file)-runFooterLen:]))
		return file[dataLen : len(file)-runFooterLen], dataLen
	}
	v3, v3Len := split(validRunFileBytes(t))
	v2, v2Len := split(goldenV2Bytes(t))
	for _, c := range []struct {
		name    string
		index   []byte
		dataLen int64
		parse   func([]byte, int64) (*runIndex, error)
	}{
		{"v3", v3, v3Len, parseRunIndex},
		{"v2", v2, v2Len, parseRunIndexV2},
	} {
		if _, err := c.parse(c.index, c.dataLen); err != nil {
			t.Fatalf("%s: intact index rejected: %v", c.name, err)
		}
		for n := 0; n < len(c.index); n++ {
			if _, err := c.parse(c.index[:n], c.dataLen); err == nil {
				t.Fatalf("%s: index truncated to %d of %d bytes accepted", c.name, n, len(c.index))
			}
		}
		for i := range c.index {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				damaged := append([]byte(nil), c.index...)
				damaged[i] ^= flip
				idx, err := c.parse(damaged, c.dataLen)
				if err != nil {
					continue
				}
				for _, se := range idx.series {
					for _, m := range se.blocks {
						if m.off < runMagicLen || m.off+uint64(m.length) > uint64(c.dataLen) || m.count == 0 || m.count > blockEntries {
							t.Fatalf("%s: byte %d ^ %#x: accepted block %+v outside the %d-byte data section", c.name, i, flip, m, c.dataLen)
						}
					}
				}
			}
		}
	}
}
