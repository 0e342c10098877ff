package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"testing"

	"dcdb/internal/core"
)

// Fuzz targets for every on-disk decoder: the run-file reader, the
// block decoder and the WAL replayer all consume bytes that a crash, a
// torn write or a hostile file can corrupt arbitrarily, so none of them
// may panic, over-allocate from a forged count, or accept a record that
// fails its checksum.

// readRunFile loads and decodes one run file with the reference
// decoder.
func readRunFile(path string) (*runContents, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rc, err := decodeRunFile(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return rc, nil
}

// validRunFileBytes builds a well-formed run file through the real
// writer — two blocks, an expire section, versions, a tombstone, and a
// series for every combination of block codings — to seed the corpus.
func validRunFileBytes(t interface{ Fatal(...any) }) []byte {
	long := make([]entry, blockEntries+30) // spans two blocks
	for i := range long {
		long[i] = entry{ts: int64(i) * 10, val: float64(i % 17), ver: 1<<50 + uint64(i)}
	}
	series := map[core.SensorID][]entry{
		{Hi: 1, Lo: 2}: {{ts: 5, val: 1.5}, {ts: 9, val: -2, expire: 77}},
		{Hi: 3, Lo: 4}: long,
	}
	for coding, es := range codingSeeds(t) {
		series[core.SensorID{Hi: 5, Lo: uint64(coding)}] = es
	}
	tombs := map[core.SensorID]int64{{Hi: 1, Lo: 2}: 3}
	return writtenRunFileBytes(t, &runContents{minSeq: 2, maxSeq: 4, series: series, tombs: tombs})
}

// writtenRunFileBytes writes rc through the real writer and returns the
// file.
func writtenRunFileBytes(t interface{ Fatal(...any) }, rc *runContents) []byte {
	dir, err := os.MkdirTemp("", "dcdbfuzz")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	meta, _, err := writeRunFile(dir, rc.minSeq, rc.maxSeq, rc.series, rc.tombs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return goldenBytes(t, meta.path)
}

func goldenBytes(t interface{ Fatal(...any) }, path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fileIndex parses the index of a whole run file held in memory.
func fileIndex(t interface{ Fatal(...any) }, data []byte) *runIndex {
	idx, err := parseRunFrame(int64(len(data)), data[:runMagicLen], data[len(data)-runFooterLen:],
		func(off int64, n uint32) ([]byte, error) { return data[off : off+int64(n)], nil })
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func FuzzRunFileDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DCDBRUN2"))
	f.Add([]byte("DCDBRUN3"))
	f.Add([]byte("DCDBRUN4"))
	f.Add([]byte("DCDBRUN5"))
	// Files as this build writes them, the checked-in fixture, and a
	// forged one whose one-entry block claims a span — each whole, torn,
	// and under the magic of every format refused by name.
	for _, valid := range [][]byte{validRunFileBytes(f), goldenBytes(f, goldenV5Path),
		writtenRunFileBytes(f, skewedFanInContents()), oneEntrySpanFile(f)} {
		f.Add(valid)
		f.Add(valid[:len(valid)/2])             // torn data/index
		f.Add(valid[:len(valid)-8])             // torn footer
		f.Add(append(valid, 0, 1, 2))           // trailing garbage shifts the footer
		f.Add(valid[:runMagicLen+runFooterLen]) // magic and a footer-sized tail, nothing else
		for _, magic := range []string{"DCDBRUN1", "DCDBRUN2", "DCDBRUN3", "DCDBRUN4", "DCDBRUN6"} {
			f.Add(append([]byte(magic), valid[runMagicLen:]...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rc, err := decodeRunFile(data)
		if err != nil {
			return
		}
		// Accepted files must uphold the reader invariants.
		if string(data[:runMagicLen]) != string(runMagic) {
			t.Fatalf("accepted a file with magic %q", data[:runMagicLen])
		}
		if rc.minSeq > rc.maxSeq {
			t.Fatalf("accepted inverted span [%d,%d]", rc.minSeq, rc.maxSeq)
		}
		for id, es := range rc.series {
			if len(es) == 0 {
				t.Fatalf("accepted empty series %v", id)
			}
			for i := 1; i < len(es); i++ {
				if es[i].ts < es[i-1].ts {
					t.Fatalf("series %v unsorted at %d", id, i)
				}
			}
		}
	})
}

// FuzzWALReplay decodes arbitrary segment bytes as recovery does: a
// record that cannot be read refuses the segment, leaving nothing to
// replay or truncate; otherwise the truncation point starts a torn
// frame, never a whole record; and whatever replays is applied with its
// stamps.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	id := core.SensorID{Hi: 7, Lo: 8}
	frame, _ := appendWALInserts(nil, stampedRunEntries())
	repair, _ := appendWALInserts(nil, repairBatch(id, 40))
	seg := slices.Concat(
		insertRecord(WriteEntry{ID: id, Readings: []core.Reading{{Timestamp: 1, Value: 2}, {Timestamp: 3, Value: 4}}}),
		framed(encodeWALDelete(nil, id, 2)),
		insertRecord(WriteEntry{ID: id, Version: 1 << 50, Expire: 1 << 62, Readings: []core.Reading{{Timestamp: 9, Value: 9}}}),
		frame,
		repair,
	)
	f.Add(seg)
	f.Add(seg[:len(seg)-3]) // torn tail
	// A type-3 record, which older builds wrote: refused.
	f.Add(append(slices.Clone(seg), framed(type3Payload(id, []VersionedReading{{Timestamp: 5, Value: 5, Version: 1 << 50}}))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, valid, err := decodeWALRecords(data)
		if err != nil {
			if !errors.Is(err, errWALRecordUnreadable) || ops != nil || valid != 0 {
				t.Fatalf("refusal %v came with %d ops and a cut at %d", err, len(ops), valid)
			}
			return
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d outside [0,%d]", valid, len(data))
		}
		// A writable open truncates at valid: the frame there is torn —
		// short, empty or failing its CRC — never a whole record.
		if tail := data[valid:]; len(tail) >= walFrameHeader {
			plen := int(binary.BigEndian.Uint32(tail))
			if plen >= 1 && plen <= walMaxRecord && plen <= len(tail)-walFrameHeader &&
				crc32.ChecksumIEEE(tail[walFrameHeader:walFrameHeader+plen]) == binary.BigEndian.Uint32(tail[4:]) {
				t.Fatalf("the cut at %d drops a whole record of %d bytes", valid, plen)
			}
		}
		// Everything decoded must be replayable, stamps and all.
		n := NewNode(0)
		for _, op := range ops {
			if op.del {
				if err := n.DeleteBefore(op.id, op.cutoff); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := n.WriteFrame(op.entries); err != nil {
				t.Fatal(err)
			}
			for _, e := range op.entries {
				if _, err := queryVersioned(n, e.ID, -1<<62, 1<<62); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// FuzzWriteEntries decodes arbitrary bytes as the one entry decoder —
// the server's for a write frame's body, recovery's and hint replay's
// for a type-4 record — and holds it to three things. It never panics.
// It never allocates beyond what the input can hold: it allocates the
// entries and their readings once each, and no entry takes fewer than
// 32 bytes, no reading fewer than 16. And the entries it accepts have
// one spelling, no longer than the input: encoding them decodes to the
// same entries, bit for bit, and encodes to the same bytes again.
func FuzzWriteEntries(f *testing.F) {
	f.Add([]byte{})
	for _, es := range [][]WriteEntry{
		stampedRunEntries(),
		repairBatch(sid(53, 3), 40),
		{wentry(sid(1, 1), 1, 1, 2), wentry(sid(1, 2), 1, 1, 2), wentry(sid(1, 3), 1, 1, 20), wentry(sid(1, 4), 1, 1, 1)},
		{{ID: sid(50, 1), Version: 3000, Expire: 1 << 62, Readings: []core.Reading{{Timestamp: 1, Value: math.NaN()}}}},
	} {
		body := AppendEntries(nil, es)
		f.Add(body)
		f.Add(body[:len(body)-1])      // a torn reading
		f.Add(body[:entryHeaderLen-1]) // a torn header
		rec, _ := appendWALInserts(nil, es)
		f.Add(rec[walFrameHeader+1:]) // the type-4 record's entries
	}
	// Counts the bytes cannot hold, plain and as a stamped run.
	for _, n := range []uint32{1 << 30, 1<<31 | 1<<30} {
		f.Add(binary.BigEndian.AppendUint32(make([]byte, 32), n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		es, err := DecodeEntries(data)
		if err != nil {
			if es != nil {
				t.Fatalf("refusal %v came with %d entries", err, len(es))
			}
			return
		}
		readings := 0
		for _, e := range es {
			readings += len(e.Readings)
		}
		if 32*len(es) > len(data) || 16*readings > len(data) {
			t.Fatalf("%d bytes decoded into %d entries of %d readings", len(data), len(es), readings)
		}
		enc := AppendEntries(nil, es)
		if len(enc) > len(data) {
			t.Fatalf("%d bytes re-encode to %d", len(data), len(enc))
		}
		again, err := DecodeEntries(enc)
		if err != nil || !sameEntries(again, es) {
			t.Fatalf("the re-encoding decodes differently (%v)", err)
		}
		if !bytes.Equal(AppendEntries(nil, again), enc) {
			t.Fatal("the re-encoding is not stable")
		}
	})
}

// FuzzBlockDecode hammers the block decoder directly: torn,
// bit-flipped or hostile block bytes (which the per-block CRC would
// normally reject before decode) must error — never panic, never
// over-allocate, never return unsorted data — against any base and
// stamp period. Whatever decodes must survive a re-encode, which checks
// the valid path inside the fuzzer too.
func FuzzBlockDecode(f *testing.F) {
	f.Add([]byte{}, uint16(1), int64(0), int64(0), uint64(0), int64(0))
	f.Add([]byte{0}, uint16(1), int64(0), int64(0), uint64(0), int64(0))
	add := func(es []entry, base blockBase) {
		b, _ := encodeBlock(nil, es, base)
		f.Add(b, uint16(len(es)), es[0].ts, es[len(es)-1].ts, base.ver, base.stampPeriod)
	}
	es := []entry{{ts: 1, val: 1.5, ver: 900}, {ts: 1, val: -2, ver: 1100}, {ts: 50, val: 1.5, expire: 9}}
	add(es, blockBase{ver: 1000})
	add(es[:1], blockBase{})
	long := make([]entry, blockEntries)
	for i := range long {
		long[i] = entry{ts: int64(i) * 1000, val: float64(i) * 0.5}
	}
	add(long, blockBase{})
	for _, es := range codingSeeds(f) {
		add(es, blockBase{ver: es[0].ver})
		add(es, blockBase{ver: es[0].ver, stampPeriod: 2_900_000})
	}
	// Every shape at the sizes of a fan-in block, where the index's two
	// ends carry most of it.
	for _, sh := range blockShapes() {
		for _, n := range []int{2, 5} {
			es := sh.entries(n)
			add(es, blockBase{ver: es[0].ver})
		}
	}
	// The blocks of fan-in files as they lie in them: the fixture's, and
	// those of one whose stamps partly fall below the file's base.
	for _, golden := range [][]byte{goldenBytes(f, goldenV5Path), writtenRunFileBytes(f, skewedFanInContents())} {
		idx := fileIndex(f, golden)
		for _, se := range idx.series {
			for _, m := range se.blocks {
				f.Add(golden[m.off:m.off+uint64(m.length)], uint16(m.count), m.min, m.max, idx.base.ver, idx.base.stampPeriod)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, count16 uint16, first, last int64, baseVer uint64, stampPeriod int64) {
		m := blockMeta{count: uint32(count16), min: first, max: last}
		base := blockBase{ver: baseVer, stampPeriod: stampPeriod}
		out := make([]entry, 0, 64)
		if err := decodeBlock(data, m, base, &out); err != nil {
			if len(out) != 0 {
				t.Fatalf("failed decode left %d partial entries", len(out))
			}
			return
		}
		if len(out) != int(m.count) {
			t.Fatalf("decoded %d entries, promised %d", len(out), m.count)
		}
		if out[0].ts != first {
			t.Fatalf("anchored block starts at %d, index says %d", out[0].ts, first)
		}
		if len(out) > 1 && out[len(out)-1].ts != last {
			t.Fatalf("anchored block ends at %d, index says %d", out[len(out)-1].ts, last)
		}
		for i := 1; i < len(out); i++ {
			if out[i].ts < out[i-1].ts {
				t.Fatalf("accepted unsorted block at %d", i)
			}
		}
		// Whatever decodes must re-encode and decode to the same
		// entries (the codec is deterministic and lossless).
		_, out2, err := codecRoundTrip(out, base)
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if err := entriesEqual(out2, out); err != nil {
			t.Fatalf("re-encode round trip diverged: %v", err)
		}
	})
}
