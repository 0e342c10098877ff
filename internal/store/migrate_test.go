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
	"dcdb/internal/faults"
	"dcdb/internal/fsutil"
)

// placeGoldenV2 copies the checked-in legacy v2 run file into the shard
// directory its series hash to under dir and returns where it landed.
func placeGoldenV2(t *testing.T, dir string) string { return placeGolden(t, dir, goldenV2Path) }

// placeGolden does that for either checked-in file: both hold
// goldenV2Contents.
func placeGolden(t *testing.T, dir, golden string) string {
	t.Helper()
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	counter, _, _, _ := goldenV2IDs()
	shardDir := filepath.Join(dir, fmt.Sprintf("shard-%02d", shardIndex(counter)))
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(shardDir, goldenV2Name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// dirSnapshot maps every file under dir to its bytes.
func dirSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	snap := map[string]string{}
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		snap[p] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return snap
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

func runMagicOf(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil || len(data) < runMagicLen {
		t.Fatalf("reading %s: %v", path, err)
	}
	return string(data[:runMagicLen])
}

// TestGoldenV2Decodes pins the legacy read path to a file written by
// the last build that had a v2 writer: the whole-file decoder and the
// index-only cold reader must both keep reading it, entry for entry.
func TestGoldenV2Decodes(t *testing.T) {
	data, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:runMagicLen]) != string(runMagicV2) {
		t.Fatalf("fixture carries magic %q", data[:runMagicLen])
	}
	want := goldenV2Contents()
	got, err := decodeRunFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := runContentsEqual(want, got); err != nil {
		t.Fatalf("golden v2 file decodes differently: %v", err)
	}
	idx, err := readRunIndexFile(goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.base.legacy || len(idx.series) != len(want.series) {
		t.Fatalf("index-only read: legacy=%v, %d series", idx.base.legacy, len(idx.series))
	}
	if err := coldSeriesEqual(goldenV2Path, idx, want.series); err != nil {
		t.Fatal(err)
	}
}

// TestPR15DirectoryServedAndKeptAsIs is the compatibility contract of
// the frame codings, against a run file the last build without them
// wrote (PR 15; format v3, every block with flag bits 2-4 clear): it
// decodes entry for entry, hot and cold; a directory holding it opens
// read-only and writable without a byte of it rewritten — there is no
// migration, an old block is simply one that chose the first codings —
// and serves the same answers either way; and after this build
// compacts it, into blocks that do use the new codings, the answers
// are still the same.
func TestPR15DirectoryServedAndKeptAsIs(t *testing.T) {
	data, err := os.ReadFile(goldenPR15Path)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenV2Contents()
	got, err := decodeRunFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := runContentsEqual(want, got); err != nil {
		t.Fatalf("PR 15 file decodes differently: %v", err)
	}
	idx, err := readRunIndexFile(goldenPR15Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := coldSeriesEqual(goldenPR15Path, idx, want.series); err != nil {
		t.Fatal(err)
	}
	for _, se := range idx.series {
		for _, m := range se.blocks {
			if flags := data[m.off]; flags&^blockFlagsLegacy != 0 {
				t.Fatalf("fixture block at %d has flags %#x: not written by a build before the frame codings", m.off, flags)
			}
		}
	}

	dir := t.TempDir()
	path := placeGolden(t, dir, goldenPR15Path)
	ro, roCold := noCompact, coldOptions
	ro.ReadOnly, roCold.ReadOnly = true, true
	var served []map[core.SensorID][]VersionedReading
	for _, o := range []DiskOptions{ro, roCold, noCompact, coldOptions} {
		n := openedNode(t, dir, 0, o)
		served = append(served, servedVersioned(t, n, want))
		n.Close()
		if dirSnapshot(t, dir)[path] != string(data) {
			t.Fatalf("open %+v rewrote the PR 15 run file", o)
		}
	}
	counter, _, _, _ := goldenV2IDs()
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
	after, err := os.ReadFile(files[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(data) {
		t.Errorf("compacting the PR 15 file left %d bytes of its %d", len(after), len(data))
	}
}

// TestV2MigrationPreservesContents opens a node over the legacy v2 run
// file and requires the one-shot migration to leave a byte-verified v3
// file serving exactly the original data — multi-block series,
// duplicate timestamps, expiries, mixed versions, tombstones — to be
// idempotent across reopens, to serve what a read-only open of the
// untouched v2 file serves, and to survive the crash window between
// the rewrite and the rename.
func TestV2MigrationPreservesContents(t *testing.T) {
	dir := t.TempDir()
	path := placeGoldenV2(t, dir)
	want := goldenV2Contents()
	counter, _, _, _ := goldenV2IDs()

	ro := coldOptions
	ro.ReadOnly = true
	n := openedNode(t, dir, 0, ro)
	inPlace := servedVersioned(t, n, want)
	n.Close()
	if len(inPlace[counter]) != len(want.series[counter]) {
		t.Fatalf("read-only open served %d counter readings, want %d", len(inPlace[counter]), len(want.series[counter]))
	}

	// A crash between the rewrite and the rename leaves the complete v3
	// copy in the scratch directory beside the v2 original: exactly one
	// file counts as a run file, and the retry must not trip over the
	// leftover.
	scratch := path + ".migrate"
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := writeRunFile(scratch, want.minSeq, want.maxSeq, want.series, want.tombs, nil); err != nil {
		t.Fatal(err)
	}
	if metas, err := scanRunFiles(filepath.Dir(path)); err != nil || len(metas) != 1 || metas[0].path != path {
		t.Fatalf("crash window: scan sees %+v (%v), want only the original", metas, err)
	}

	check := func(o DiskOptions) {
		t.Helper()
		n := openedNode(t, dir, 0, o)
		defer n.Close()
		if magic := runMagicOf(t, path); magic != string(runMagic) {
			t.Fatalf("magic %q after a writable open, want the current format", magic)
		}
		if _, err := os.Stat(scratch); !os.IsNotExist(err) {
			t.Fatalf("migration scratch dir left behind: %v", err)
		}
		got, err := readRunFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := runContentsEqual(want, got); err != nil {
			t.Fatalf("migrated contents diverge: %v", err)
		}
		if served := servedVersioned(t, n, want); !reflect.DeepEqual(served, inPlace) {
			t.Fatal("migrated file serves different query results than the v2 original did")
		}
	}
	check(coldOptions) // migrates, then cold-loads
	migrated := dirSnapshot(t, filepath.Dir(path))[path]
	check(noCompact) // second open is a no-op, resident load
	if dirSnapshot(t, filepath.Dir(path))[path] != migrated {
		t.Fatal("reopening a migrated directory rewrote the run file")
	}
}

// TestV2MigrationFailureServesOriginal injects a disk fault into the
// migration's scratch rewrite and requires the open to degrade — the
// v2 file stays authoritative and fully served — instead of failing.
func TestV2MigrationFailureServesOriginal(t *testing.T) {
	inj := faults.New(1)
	orig := fsutil.Disk
	fsutil.Disk = inj.FS(orig)
	defer func() { fsutil.Disk = orig }()

	dir := t.TempDir()
	path := placeGoldenV2(t, dir)
	want := goldenV2Contents()
	inj.AddRule(&faults.Rule{Ops: faults.FSOpen | faults.FSWrite, Match: ".migrate", Err: faults.ErrInjected})
	for _, o := range []DiskOptions{noCompact, coldOptions} {
		n := openedNode(t, dir, 0, o)
		if magic := runMagicOf(t, path); magic != string(runMagicV2) {
			t.Fatalf("failed migration must leave the v2 file authoritative, found %q", magic)
		}
		for id, vrs := range servedVersioned(t, n, want) {
			if len(vrs) == 0 || len(vrs) > len(want.series[id]) {
				t.Fatalf("v2 fallback serves %d readings of %v", len(vrs), id)
			}
		}
		n.Close()
	}
}

// TestRunContentsEqualDetectsDivergence drives the migration verifier
// through every mismatch class: a silent pass here is what would let a
// bad rewrite retire a good v1 file.
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

// TestV2ReadOnlyOpenLeavesDirectoryUntouched requires a read-only open
// to serve legacy v2 files in place: after opening hot and cold and
// querying everything, the directory is byte-identical. The messy
// series is left to the migration test's before/after comparison: what
// a query makes of its duplicates and long-past expiries is not this
// test's subject.
func TestV2ReadOnlyOpenLeavesDirectoryUntouched(t *testing.T) {
	dir := t.TempDir()
	placeGoldenV2(t, dir)
	want := goldenV2Contents()
	_, messy, _, _ := goldenV2IDs()
	before := dirSnapshot(t, dir)
	for _, o := range []DiskOptions{noCompact, coldOptions} {
		o.ReadOnly = true
		n := openedNode(t, dir, 0, o)
		for id, vrs := range servedVersioned(t, n, want) {
			es := want.series[id]
			if id == messy {
				continue
			}
			if len(vrs) != len(es) {
				t.Fatalf("read-only open serves %d readings of %v, want %d", len(vrs), id, len(es))
			}
			for i, vr := range vrs {
				if vr.Timestamp != es[i].ts || vr.Value != es[i].val || vr.Version != es[i].ver {
					t.Fatalf("series %v reading %d: %+v, want %+v", id, i, vr, es[i])
				}
			}
		}
		n.Close()
	}
	if after := dirSnapshot(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("read-only open changed the directory")
	}
}

// TestV1RunFileRefused requires a format-v1 file — whose decoder is
// gone — to fail the open with an error that names the way out, and to
// be left alone.
func TestV1RunFileRefused(t *testing.T) {
	dir := t.TempDir()
	shardDir := filepath.Join(dir, "shard-00")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte("DCDBRUN1"), make([]byte, 64)...)
	path := filepath.Join(shardDir, runFileName(1, 1))
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, o := range []DiskOptions{noCompact, coldOptions, {CompactInterval: -1, ReadOnly: true}} {
		err := NewNode(0).OpenOptions(dir, o)
		if !errors.Is(err, errRunFileV1) || !strings.Contains(err.Error(), "PR 11") {
			t.Fatalf("open %+v over a v1 file: %v, want the refusal", o, err)
		}
		if got, _ := os.ReadFile(path); string(got) != string(v1) {
			t.Fatal("refused v1 file was modified")
		}
	}
}
