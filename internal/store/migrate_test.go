package store

import (
	"encoding/binary"
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

// placeRunFile writes a run file of the span [1,2] into the node
// directory dir and returns where it landed.
func placeRunFile(t *testing.T, dir string, data []byte) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, goldenName)
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
		vrs, err := queryVersioned(n, id, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		got[id] = vrs
	}
	return got
}

// TestV7DirectoryServedAndKeptAsIs pins format v7 against the file the
// first build of it wrote: a fan-in file beside a series of two full
// blocks and one entry more, its series records and block lengths in
// columns, its block bounds coded against the file's period in
// fixed-width columns, its stamp clock against the writer's round and
// at the width the long series' first block fixed, most of its blocks
// against their lines. It is served as it is (servedAndKeptAsIs), this
// build writes its contents to the same bytes, and its data section is
// that of the v6 fixture byte for byte: v7 changed the index alone.
func TestV7DirectoryServedAndKeptAsIs(t *testing.T) {
	want := goldenFanInContents()
	data, idx := servedAndKeptAsIs(t, goldenV7Path, want)
	if written := writtenRunFileBytes(t, want); string(written) != string(data) {
		t.Fatalf("this build writes the fixture's contents to %d bytes that are not the fixture's %d", len(written), len(data))
	}
	v6 := goldenBytes(t, goldenV6Path)
	v6Data := v6[runMagicLen:binary.BigEndian.Uint64(v6[len(v6)-runFooterLen:])]
	if string(data[runMagicLen:idx.dataLen]) != string(v6Data) {
		t.Errorf("the fixture's data section (%d bytes) is not the v6 fixture's (%d bytes)", idx.dataLen-runMagicLen, len(v6Data))
	}
	if idx.period == 0 {
		t.Errorf("fixture index has no period")
	}
	if round := int64(1_100_000_000 / versionTick); idx.base.stampPeriod < round-3000 || idx.base.stampPeriod > round+3000 {
		t.Errorf("fixture's stamp period is %d ticks, want the round's %d", idx.base.stampPeriod, round)
	}
	if idx.base.tsWidth == 0 || idx.base.stampWidth == 0 {
		t.Errorf("fixture widths %d and %d: want those of the long series' first block", idx.base.tsWidth, idx.base.stampWidth)
	}
	var ts, stamps [4]int
	for _, se := range idx.series {
		for _, m := range se.blocks {
			c := codingOf(data[m.off])
			ts[c.ts]++
			stamps[c.stamps]++
		}
	}
	if ts[codingLine]+ts[codingWidth] < len(idx.series)/2 || ts[codingLineFrame] == 0 || stamps[stampClockWidth] < len(idx.series)/2 {
		t.Errorf("fixture blocks by timestamp coding %v, by stamp coding %v: want the fan-in series' line varints or width coding, the long series' line frames, and most stamps clock coded at the file's width", ts, stamps)
	}
}

// servedAndKeptAsIs is the compatibility contract against a checked-in
// run file holding want: it decodes entry for entry, hot and cold; a
// directory holding it opens read-only and writable, hot and cold,
// without a byte of it rewritten, and serves want every time; and it
// still does after this build compacts it. It returns the fixture and
// its index.
func servedAndKeptAsIs(t *testing.T, golden string, want *runContents) (data []byte, idx *runIndex) {
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

	wantServed := map[core.SensorID][]VersionedReading{}
	for id, es := range want.series {
		for _, e := range es {
			wantServed[id] = append(wantServed[id], VersionedReading{Timestamp: e.ts, Value: e.val, Version: e.ver, Expire: e.expire})
		}
	}
	dir := t.TempDir()
	path := placeRunFile(t, dir, data)
	ro, roCold := noCompact, coldOptions
	ro.ReadOnly, roCold.ReadOnly = true, true
	for _, o := range []DiskOptions{ro, roCold, noCompact, coldOptions} {
		n := openedNode(t, dir, 0, o)
		served := servedVersioned(t, n, want)
		n.Close()
		if !reflect.DeepEqual(served, wantServed) {
			t.Fatalf("open %+v of %s serves other readings than it holds", o, golden)
		}
		if now, err := os.ReadFile(path); err != nil || string(now) != string(data) {
			t.Fatalf("open %+v rewrote %s", o, golden)
		}
	}
	for i, o := range []DiskOptions{noCompact, coldOptions} {
		n := openedNode(t, dir, 0, o)
		if i == 0 {
			n.Compact()
		}
		served := servedVersioned(t, n, want)
		n.Close()
		if !reflect.DeepEqual(served, wantServed) {
			t.Fatalf("open %+v of compacted %s serves other readings than it holds", o, golden)
		}
	}
	files, err := scanRunFiles(filepath.Dir(path), false)
	if err != nil || len(files) != 1 {
		t.Fatalf("after the compaction: %+v, %v", files, err)
	}
	if compacted := goldenBytes(t, files[0].path); string(compacted[:runMagicLen]) != string(runMagic) {
		t.Errorf("%s compacts into %q, want %s", golden, compacted[:runMagicLen], runMagic)
	}
	return data, idx
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
	if err := n.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
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

// TestOldRunFormatsRefused requires a run file of any format before v7
// — whose readers are gone — to fail every kind of open with an error
// that names the file, its format and its own way out, and to be left
// as it was. The v6 file is the one the first v6 build wrote; an older
// magic leads its body here: the refusal comes before anything past
// the magic is read.
func TestOldRunFormatsRefused(t *testing.T) {
	export := func(v int) string {
		return fmt.Sprintf("export it with a build that reads v%d (dcdbquery -db DIR, to CSV) and load the CSV into a fresh directory with this build's dcdbcsvimport "+
			"(a dcdbnode directory can instead be started empty and refilled from its replicas by repair); see \"Upgrading v%d run files\"", v, v)
	}
	compact := "with a build that reads v3, v4 and v5, and compact it (an agent data directory: dcdbconfig -db DIR compact); then " + export(5)
	body := goldenBytes(t, goldenV6Path)[runMagicLen:]
	for _, tc := range []struct {
		magic string
		way   string // what the refusal must say
	}{
		{"DCDBRUN1", "format v1 (DCDBRUN1); open the directory once, writable, with a build that still reads v1, then once with a build that still reads v2; then open the directory once, writable, " + compact},
		{"DCDBRUN2", "format v2 (DCDBRUN2); open the directory once, writable, with a build that still reads v2; then open the directory once, writable, " + compact},
		{"DCDBRUN3", "format v3 (DCDBRUN3); open the directory once, writable, " + compact},
		{"DCDBRUN4", "format v4 (DCDBRUN4); open the directory once, writable, " + compact},
		{"DCDBRUN5", "format v5 (DCDBRUN5); " + export(5)},
		{"DCDBRUN6", "format v6 (DCDBRUN6); " + export(6)},
	} {
		dir := t.TempDir()
		old := append([]byte(tc.magic), body...)
		path := placeRunFile(t, dir, old)
		for _, o := range []DiskOptions{noCompact, coldOptions, {ReadOnly: true}} {
			err := NewNode(0).OpenOptions(dir, o)
			if !errors.Is(err, errRunFileOld) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.way) {
				t.Fatalf("open %+v over a %s file: %v, want the refusal naming %s and %q", o, tc.magic, err, path, tc.way)
			}
			if got, _ := os.ReadFile(path); string(got) != string(old) {
				t.Fatalf("refused %s file was modified", tc.magic)
			}
		}
	}
}

// TestNewerRunFormatRefused: a run file of a format newer than this
// build reads — a DCDBRUN<n> above 7 — fails every kind of open with an
// error that names its format and says it is newer, and is left as it
// was; a magic that is no run file's at all says so.
func TestNewerRunFormatRefused(t *testing.T) {
	for _, tc := range []struct {
		magic string
		want  string
	}{
		{"DCDBRUN8", "format v8 (DCDBRUN8)"},
		{"DCDBRUN9", "format v9 (DCDBRUN9)"},
		{"DCDBRUN0", "not a DCDB run file"},
		{"DCDBRUNX", "not a DCDB run file"},
		{"DCDBFILE", "not a DCDB run file"},
	} {
		dir := t.TempDir()
		newer := append([]byte(tc.magic), make([]byte, 64)...)
		path := filepath.Join(dir, runFileName(1, 1))
		if err := os.WriteFile(path, newer, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, o := range []DiskOptions{noCompact, coldOptions, {ReadOnly: true}} {
			err := NewNode(0).OpenOptions(dir, o)
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("open %+v over a %s file: %v, want an error naming %s and %q", o, tc.magic, err, path, tc.want)
			}
			if isNewer := strings.HasPrefix(tc.want, "format"); errors.Is(err, errRunFileNewer) != isNewer || errors.Is(err, errRunFileOld) {
				t.Fatalf("open over a %s file: %v; errors.Is(errRunFileNewer) should be %v", tc.magic, err, isNewer)
			}
			if got, _ := os.ReadFile(path); string(got) != string(newer) {
				t.Fatalf("refused %s file was modified", tc.magic)
			}
		}
	}
}
