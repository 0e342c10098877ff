package store

import (
	"math"
	"reflect"
	"testing"

	"dcdb/internal/core"
)

// The write-entry codec: what an rpc write frame's body, a type-4 WAL
// record and a hint record all hold.

// wentry builds a one-stamp write of n readings starting at ts.
func wentry(id core.SensorID, ver uint64, ts int64, n int) WriteEntry {
	e := WriteEntry{ID: id, Version: ver}
	for i := 0; i < n; i++ {
		e.Readings = append(e.Readings, rd(ts+int64(i), float64(ts)+float64(i)))
	}
	return e
}

// sameEntries reports whether two entry lists are equal bit for bit,
// NaN values included.
func sameEntries(a, b []WriteEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Version != y.Version || x.Expire != y.Expire || len(x.Readings) != len(y.Readings) {
			return false
		}
		for j, r := range x.Readings {
			if r.Timestamp != y.Readings[j].Timestamp || math.Float64bits(r.Value) != math.Float64bits(y.Readings[j].Value) {
				return false
			}
		}
	}
	return true
}

// stampedRunEntries is a frame of every shape: a stamped run with equal
// stamps inside it, an entry alone, an entry of three readings (never
// in a run), a second run, and an entry with nothing to store, which
// still travels so a verdict can name it.
func stampedRunEntries() []WriteEntry {
	a, b := sid(53, 1), sid(53, 2)
	es := []WriteEntry{
		wentry(a, 1000, 1, 1), wentry(a, 2000, 2, 1), wentry(a, 2000, 3, 1),
		wentry(b, 3000, 1, 1),
		wentry(a, 4000, 4, 3),
		wentry(a, 5000, 7, 1), wentry(a, 6000, 8, 1),
		{ID: b, Version: 7000},
	}
	es[1].Expire = 1 << 62
	return es
}

// repairBatch is one sensor's n readings, no two under one stamp: one
// entry each.
func repairBatch(id core.SensorID, n int) []WriteEntry {
	es := make([]WriteEntry, n)
	for i := range es {
		es[i] = wentry(id, uint64(1000*(i+1)), int64(1000+i), 1)
	}
	return es
}

// TestWriteFrameStampedRun: one-reading entries that follow one another
// on one sensor share a header and decode into the same entries in the
// same order, so a repair batch of fan-in data — a stamp per reading —
// costs 32 bytes a reading. With no count in front, the entries end
// where the bytes do: a cut between entries decodes the entries before
// it (the frame or record around them carries the length and CRC), a
// cut inside one is refused.
func TestWriteFrameStampedRun(t *testing.T) {
	es := stampedRunEntries()
	units := []int{entryHeaderLen + 3*32, entryHeaderLen + 16, entryHeaderLen + 3*16, entryHeaderLen + 2*32, entryHeaderLen}
	decoded := []int{3, 4, 5, 7, 8} // entries once each unit is whole
	body := AppendEntries(nil, es)
	ends, end := map[int]int{0: 0}, 0
	for u, n := range units {
		end += n
		ends[end] = decoded[u]
	}
	if len(body) != end {
		t.Fatalf("encoded %d bytes, want %d", len(body), end)
	}
	got, err := DecodeEntries(body)
	if err != nil || !reflect.DeepEqual(got, es) {
		t.Fatalf("decoded %+v (%v), want %+v", got, err, es)
	}
	for cut := 0; cut < len(body); cut++ {
		got, err := DecodeEntries(body[:cut])
		if want, boundary := ends[cut]; boundary != (err == nil) || len(got) != want || !sameEntries(got, es[:len(got)]) {
			t.Fatalf("a body cut at %d of %d bytes decoded %d entries (%v)", cut, len(body), len(got), err)
		}
	}

	batch := repairBatch(sid(53, 3), 1000)
	body = AppendEntries(nil, batch)
	if perReading := float64(len(body)) / 1000; perReading > 32.1 {
		t.Fatalf("a stamp-per-reading batch costs %.2f bytes a reading, want 32", perReading)
	}
	if got, err := DecodeEntries(body); err != nil || !reflect.DeepEqual(got, batch) {
		t.Fatalf("the repair batch decodes as %d entries (%v), want its %d", len(got), err, len(batch))
	}
}

// TestFrameCutAtEntryBoundary: entries over a size bound are cut
// between entries, never inside one, and an entry that exceeds the
// bound by itself still goes alone (its caller refuses or splits it).
func TestFrameCutAtEntryBoundary(t *testing.T) {
	es := []WriteEntry{wentry(sid(1, 1), 1, 1, 2), wentry(sid(1, 2), 1, 1, 2), wentry(sid(1, 3), 1, 1, 20), wentry(sid(1, 4), 1, 1, 1)}
	one := entryLen(&es[0]) // 36 + 32
	for _, tc := range []struct{ limit, n, size int }{
		{1 << 20, 4, 2*one + entryLen(&es[2]) + entryLen(&es[3])},
		{2 * one, 2, 2 * one},
		{2*one - 1, 1, one},
		{10, 1, one},
	} {
		if n, size := CutEntries(es, tc.limit); n != tc.n || size != tc.size {
			t.Errorf("limit %d: cut after %d entries, %d bytes; want %d, %d", tc.limit, n, size, tc.n, tc.size)
		}
	}
	if n, size := CutEntries(es[2:], 100); n != 1 || size != entryLen(&es[2]) {
		t.Errorf("an oversized entry was cut as %d entries, %d bytes", n, size)
	}
	// What CutEntries sized is what AppendEntries writes.
	if got := len(AppendEntries(nil, es)); got != 2*one+entryLen(&es[2])+entryLen(&es[3]) {
		t.Errorf("encoded %d bytes", got)
	}
}
