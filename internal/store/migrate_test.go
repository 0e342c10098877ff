package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcdb/internal/core"
)

// placeGolden copies a checked-in run file holding goldenContents into
// the shard directory its series hash to under dir and returns where it
// landed.
func placeGolden(t *testing.T, dir, golden string) string {
	t.Helper()
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	counter, _, _, _ := goldenIDs()
	shardDir := filepath.Join(dir, fmt.Sprintf("shard-%02d", shardIndex(counter)))
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(shardDir, goldenName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// servedVersioned reads every golden series back through the node.
func servedVersioned(t *testing.T, n *Node, want *runContents) map[core.SensorID][]VersionedReading {
	t.Helper()
	got := map[core.SensorID][]VersionedReading{}
	for id := range want.series {
		vrs, err := n.QueryVersioned(id, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		got[id] = vrs
	}
	return got
}

// TestPR15DirectoryServedAndKeptAsIs is the compatibility contract of
// the frame codings, against a run file the last build without them
// wrote (PR 15; format v3, every block with flag bits 2-4 clear): it
// decodes entry for entry, hot and cold; a directory holding it opens
// read-only and writable without a byte of it rewritten — there is no
// migration, an old block is simply one that chose the first codings —
// and serves the same answers either way; and after this build
// compacts it, into blocks that do use the new codings, the answers
// are still the same (servedAndKeptAsIs).
func TestPR15DirectoryServedAndKeptAsIs(t *testing.T) {
	data, idx, _ := servedAndKeptAsIs(t, goldenPR15Path, "DCDBRUN3", goldenContents())
	for _, se := range idx.series {
		for _, m := range se.blocks {
			if flags := data[m.off]; flags&^(blockFlagExpire|blockFlagVersion) != 0 {
				t.Fatalf("fixture block at %d has flags %#x: not written by a build before the frame codings", m.off, flags)
			}
		}
	}
}

// TestFrameCodingsDirectoryServedAndKeptAsIs is the same contract for
// the clock-coded stamps and the anchored last timestamp, against a run
// file the last build without them wrote: every block has flag bits 5-6
// clear, and the file uses each of the frame codings (bits 2-4), so it
// pins what they decode to as well. Every block is byte for byte what
// encodeBlockFrames makes of its entries, which is what lets that
// reference stand for the build that wrote it. Its base version is off
// the tick, so this build's compaction clock codes no block.
func TestFrameCodingsDirectoryServedAndKeptAsIs(t *testing.T) {
	want := goldenFramesContents()
	data, idx, compacted := servedAndKeptAsIs(t, goldenFramesPath, "DCDBRUN3", want)
	var used byte
	for _, se := range idx.series {
		es := want.series[se.id]
		for _, m := range se.blocks {
			raw := data[m.off : m.off+uint64(m.length)]
			if raw[0]&(blockFlagStampClock|blockFlagLastTS) != 0 {
				t.Fatalf("fixture block at %d has flags %#x: not written by a build before the clock coding", m.off, raw[0])
			}
			if ref := encodeBlockFrames(nil, es[:m.count], idx.base.ver); string(ref) != string(raw) {
				t.Fatalf("fixture block at %d is not what encodeBlockFrames makes of its entries", m.off)
			}
			used |= raw[0]
			es = es[m.count:]
		}
	}
	if frames := byte(blockFlagTSFrame | blockFlagStampRuns | blockFlagIntValues); used&frames != frames {
		t.Fatalf("fixture blocks use flags %#x, not every frame coding", used)
	}

	if idx.base.ver%versionTick == 0 {
		t.Fatalf("fixture base version %d is on the tick", idx.base.ver)
	}
	idx = fileIndex(t, compacted)
	for _, se := range idx.series {
		for _, m := range se.blocks {
			if flags := compacted[m.off]; flags>>blockStampsShift == stampClock {
				t.Errorf("compacted block has flags %#x: clock coded against a base off the tick", flags)
			}
		}
	}
}

// TestClockDirectoryServedAndKeptAsIs is the same contract for format
// v4's index, against a run file the last build of format v3 wrote: a
// fan-in file, its index stating every block's count and CRC and every
// SID by bytes. Its base version is on the tick, so its blocks clock
// code their stamps (flag bit 5) and every block of two or more entries
// anchors its last timestamp (bit 6) — the codings the two fixtures
// before it lack. Its blocks are byte for byte what encodeBlockV4 makes
// of their entries: format v4 changed the index, not the blocks.
func TestClockDirectoryServedAndKeptAsIs(t *testing.T) {
	oneBitBlocksAreV4s(t, goldenClockPath, "DCDBRUN3", goldenClockContents())
}

// TestV4DirectoryServedAndKeptAsIs is the same contract for format v5,
// against a run file the last build of format v4 wrote: a fan-in file
// beside a series of two full blocks and one entry more, its index in
// pages, counts from the series, SIDs by level and bounds against the
// period, its blocks in the flags layout of one bit a coding, their
// clock coding started from a step of 0. Its blocks are byte for byte
// what encodeBlockV4 makes of their entries. This build compacts it
// into blocks coded against their lines, the stamp clock against the
// file's round.
func TestV4DirectoryServedAndKeptAsIs(t *testing.T) {
	want := goldenV4Contents()
	idx, compacted := oneBitBlocksAreV4s(t, goldenV4Path, "DCDBRUN4", want)
	if idx.period == 0 {
		t.Fatalf("fixture index has no period")
	}
	idx = fileIndex(t, compacted)
	if round := int64(1_100_000_000 / versionTick); idx.base.stampPeriod < round-3000 || idx.base.stampPeriod > round+3000 {
		t.Errorf("compacted file's stamp period is %d ticks, want the round's %d", idx.base.stampPeriod, round)
	}
	var used [4]int
	for _, se := range idx.series {
		for _, m := range se.blocks {
			used[compacted[m.off]>>blockTSShift&3]++
		}
	}
	if used[codingLine] < len(idx.series)/2 || used[codingLineFrame] == 0 {
		t.Errorf("compacted blocks by timestamp coding %v: want the fan-in series' line varints and the long series' line frames", used)
	}
}

// oneBitBlocksAreV4s runs servedAndKeptAsIs on a fixture whose base
// version is on the tick, checks that its blocks are what encodeBlockV4
// makes of their entries — every block of two or more entries anchored,
// most series' stamps clock coded — and returns its index and the file
// its compaction wrote.
func oneBitBlocksAreV4s(t *testing.T, golden, magic string, want *runContents) (*runIndex, []byte) {
	t.Helper()
	data, idx, compacted := servedAndKeptAsIs(t, golden, magic, want)
	if idx.base.ver%versionTick != 0 {
		t.Fatalf("fixture base version %d is off the tick", idx.base.ver)
	}
	clocked := 0
	for _, se := range idx.series {
		es := want.series[se.id]
		for _, m := range se.blocks {
			raw := data[m.off : m.off+uint64(m.length)]
			if anchored := raw[0]&blockFlagLastTS != 0; anchored != (m.count > 1) {
				t.Fatalf("fixture block of %d entries at %d has flags %#x", m.count, m.off, raw[0])
			}
			if raw[0]&blockFlagStampClock != 0 {
				clocked++
			}
			if enc := encodeBlockV4(nil, es[:m.count], idx.base.ver); string(enc) != string(raw) {
				t.Fatalf("fixture block at %d is not what encodeBlockV4 makes of its entries", m.off)
			}
			es = es[m.count:]
		}
	}
	if clocked < len(idx.series)/2 {
		t.Fatalf("%d of the fixture's %d series have clock-coded blocks", clocked, len(idx.series))
	}
	return idx, compacted
}

// servedAndKeptAsIs is the compatibility contract against a checked-in
// run file an older build wrote in the format of magic, holding want:
// it decodes entry for entry, hot and cold; a directory holding it opens
// read-only and writable without a byte of it rewritten — there is no
// migration, an old block is simply one that chose the codings the older
// build had, an old index one in format v3 or v4 — and serves the same
// answers either way; and after this build compacts it, into format v5
// and blocks that do use the newer codings, the answers are still the
// same and the file is smaller. It returns the fixture, its index and
// the file the compaction wrote.
func servedAndKeptAsIs(t *testing.T, golden, magic string, want *runContents) (data []byte, idx *runIndex, compacted []byte) {
	t.Helper()
	data = goldenBytes(t, golden)
	got, err := decodeRunFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := runContentsEqual(want, got); err != nil {
		t.Fatalf("%s decodes differently: %v", golden, err)
	}
	if idx, err = readRunIndexFile(golden); err != nil {
		t.Fatal(err)
	}
	if err := coldSeriesEqual(golden, idx, want.series); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := placeGolden(t, dir, golden)
	ro, roCold := noCompact, coldOptions
	ro.ReadOnly, roCold.ReadOnly = true, true
	var served []map[core.SensorID][]VersionedReading
	for _, o := range []DiskOptions{ro, roCold, noCompact, coldOptions} {
		n := openedNode(t, dir, 0, o)
		served = append(served, servedVersioned(t, n, want))
		n.Close()
		if now, err := os.ReadFile(path); err != nil || string(now) != string(data) {
			t.Fatalf("open %+v rewrote %s", o, golden)
		}
	}
	counter, _, _, _ := goldenIDs()
	if len(served[0][counter]) != len(want.series[counter]) {
		t.Fatalf("served %d counter readings, want %d", len(served[0][counter]), len(want.series[counter]))
	}
	for i, o := range []DiskOptions{noCompact, coldOptions} {
		n := openedNode(t, dir, 0, o)
		if i == 0 {
			n.Compact()
		}
		served = append(served, servedVersioned(t, n, want))
		n.Close()
	}
	for i := range served[1:] {
		if !reflect.DeepEqual(served[i+1], served[0]) {
			t.Fatalf("read %d serves different results than the first", i+1)
		}
	}
	files, err := scanRunFiles(filepath.Dir(path))
	if err != nil || len(files) != 1 {
		t.Fatalf("after the compaction: %+v, %v", files, err)
	}
	if compacted = goldenBytes(t, files[0].path); len(compacted) >= len(data) {
		t.Errorf("compacting %s left %d bytes of its %d", golden, len(compacted), len(data))
	}
	if string(data[:runMagicLen]) != magic || string(compacted[:runMagicLen]) != string(runMagic) {
		t.Errorf("%s is %q and compacts into %q, want %s into %s", golden, data[:runMagicLen], compacted[:runMagicLen], magic, runMagic)
	}
	return data, idx, compacted
}

// runContentsEqual compares two decoded run files entry-for-entry.
func runContentsEqual(a, b *runContents) error {
	if a.minSeq != b.minSeq || a.maxSeq != b.maxSeq {
		return fmt.Errorf("span [%d,%d] != [%d,%d]", a.minSeq, a.maxSeq, b.minSeq, b.maxSeq)
	}
	if len(a.tombs) != len(b.tombs) {
		return fmt.Errorf("%d tombstones != %d", len(a.tombs), len(b.tombs))
	}
	for id, cutoff := range a.tombs {
		if b.tombs[id] != cutoff {
			return fmt.Errorf("tombstone %v: %d != %d", id, cutoff, b.tombs[id])
		}
	}
	if len(a.series) != len(b.series) {
		return fmt.Errorf("%d series != %d", len(a.series), len(b.series))
	}
	for id, es := range a.series {
		es2, ok := b.series[id]
		if !ok || len(es) != len(es2) {
			return fmt.Errorf("series %v: %d entries != %d", id, len(es), len(es2))
		}
		for i := range es {
			if !sameEntry(es[i], es2[i]) {
				return fmt.Errorf("series %v entry %d: %+v != %+v", id, i, es[i], es2[i])
			}
		}
	}
	return nil
}

// sameEntry compares the value by its bits: == would pass a lost sign
// of zero and fail a NaN against itself.
func sameEntry(a, b entry) bool {
	return a.ts == b.ts && a.expire == b.expire && a.ver == b.ver && math.Float64bits(a.val) == math.Float64bits(b.val)
}

// TestRunContentsEqualDetectsDivergence drives the comparison the
// format tests rest on through every mismatch class: a silent pass here
// would let a lossy codec pass them.
func TestRunContentsEqualDetectsDivergence(t *testing.T) {
	base := func() *runContents {
		return &runContents{
			minSeq: 1, maxSeq: 3,
			tombs:  map[core.SensorID]int64{sid(9, 9): 50},
			series: map[core.SensorID][]entry{sid(1, 1): {{ts: 1, val: 1}, {ts: 2, val: 2}}},
		}
	}
	if err := runContentsEqual(base(), base()); err != nil {
		t.Fatalf("identical contents compared unequal: %v", err)
	}
	mutations := map[string]func(*runContents){
		"span":            func(rc *runContents) { rc.maxSeq = 4 },
		"tombstone count": func(rc *runContents) { rc.tombs[sid(8, 8)] = 1 },
		"tombstone value": func(rc *runContents) { rc.tombs[sid(9, 9)] = 51 },
		"series count":    func(rc *runContents) { rc.series[sid(2, 2)] = []entry{{ts: 1}} },
		"entry count":     func(rc *runContents) { rc.series[sid(1, 1)] = rc.series[sid(1, 1)][:1] },
		"entry value":     func(rc *runContents) { rc.series[sid(1, 1)][1].val = 9 },
	}
	for name, mutate := range mutations {
		b := base()
		mutate(b)
		if err := runContentsEqual(base(), b); err == nil {
			t.Fatalf("%s divergence not detected", name)
		}
	}
}

// TestBatchedSyncLoopDurability exercises the background fsync loop
// (SyncInterval > 0): after one interval elapses, a write survives
// reopen even though the writer itself never waited on an fsync.
func TestBatchedSyncLoopDurability(t *testing.T) {
	dir := t.TempDir()
	o := noCompact
	o.SyncInterval = 2 * time.Millisecond
	n := openedNode(t, dir, 0, o)
	id := sid(3, 3)
	if err := n.Insert(id, core.Reading{Timestamp: 1, Value: 1}, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // several ticker fires
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2 := openedNode(t, dir, 0, noCompact)
	defer n2.Close()
	rs, err := n2.Query(id, 0, 10)
	if err != nil || len(rs) != 1 {
		t.Fatalf("batched-sync write lost: %v %v", rs, err)
	}
}

// TestOldRunFormatsRefused requires a run file of either format before
// v3 — whose decoders are gone — to fail every kind of open with an
// error that names the file and the way out, and to be left as it was.
func TestOldRunFormatsRefused(t *testing.T) {
	for _, tc := range []struct {
		magic string
		err   error
		way   string // what the refusal must say
	}{
		{"DCDBRUN1", errRunFileV1, "a build that still reads v1, then once with a build that still reads v2"},
		{"DCDBRUN2", errRunFileV2, "a build that still reads v2; it rewrites the files as v3"},
	} {
		dir := t.TempDir()
		shardDir := filepath.Join(dir, "shard-00")
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		old := append([]byte(tc.magic), make([]byte, 64)...)
		path := filepath.Join(shardDir, runFileName(1, 1))
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, o := range []DiskOptions{noCompact, coldOptions, {CompactInterval: -1, ReadOnly: true}} {
			err := NewNode(0).OpenOptions(dir, o)
			if !errors.Is(err, tc.err) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.way) {
				t.Fatalf("open %+v over a %s file: %v, want the refusal naming %s", o, tc.magic, err, path)
			}
			if got, _ := os.ReadFile(path); string(got) != string(old) {
				t.Fatalf("refused %s file was modified", tc.magic)
			}
		}
	}
}

// TestNewerRunFormatRefused: a run file of a format newer than this
// build reads — a DCDBRUN<n> above 5 — fails every kind of open with an
// error that names its format and says it is newer, and is left as it
// was; a magic that is no run file's at all says so.
func TestNewerRunFormatRefused(t *testing.T) {
	for _, tc := range []struct {
		magic string
		want  string
	}{
		{"DCDBRUN6", "format v6 (DCDBRUN6)"},
		{"DCDBRUN9", "format v9 (DCDBRUN9)"},
		{"DCDBRUN0", "not a DCDB run file"},
		{"DCDBRUNX", "not a DCDB run file"},
		{"DCDBFILE", "not a DCDB run file"},
	} {
		dir := t.TempDir()
		shardDir := filepath.Join(dir, "shard-00")
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		newer := append([]byte(tc.magic), make([]byte, 64)...)
		path := filepath.Join(shardDir, runFileName(1, 1))
		if err := os.WriteFile(path, newer, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, o := range []DiskOptions{noCompact, coldOptions, {CompactInterval: -1, ReadOnly: true}} {
			err := NewNode(0).OpenOptions(dir, o)
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("open %+v over a %s file: %v, want an error naming %s and %q", o, tc.magic, err, path, tc.want)
			}
			if isNewer := strings.HasPrefix(tc.want, "format"); errors.Is(err, errRunFileNewer) != isNewer {
				t.Fatalf("open over a %s file: %v; errors.Is(errRunFileNewer) should be %v", tc.magic, err, isNewer)
			}
			if got, _ := os.ReadFile(path); string(got) != string(newer) {
				t.Fatalf("refused %s file was modified", tc.magic)
			}
		}
	}
}
