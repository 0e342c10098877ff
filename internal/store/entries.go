package store

import (
	"encoding/binary"
	"errors"
	"math"

	"dcdb/internal/core"
)

// The write-entry encoding: the one way a WriteEntry is spelled in
// bytes. An rpc write frame carries entries as its body, a type-4 WAL
// record carries them after its type byte, and a hint file is such
// records — so the bytes a coordinator sends a node are the bytes the
// node logs, and the bytes the coordinator queues for a node that
// missed them.
//
// Entries lie back to back with no count: the frame or record that
// holds them ends them. Integers big-endian:
//
//	sidHi u64 | sidLo u64 | version u64 | expire i64 | n u32 | n × (ts i64 | value f64)
//
// so a reading costs 16 bytes and its stamp is written once per entry.
// One-reading entries that follow one another on one sensor — a repair
// batch of fan-in data, every reading under the stamp of its own write
// — share a header as a stamped run: the top bit of n set, the header's
// stamp unused (zero) and each reading bringing its own:
//
//	sidHi | sidLo | 0 | 0 | n|1<<31 | n × (ts | value | version | expire)
//
// A run decodes into the n entries it stands for, in order, so it is
// only ever a shorter spelling: such a batch costs 32 bytes a reading.

// entryHeaderLen is what an entry costs before its readings: sid,
// version, expire and the reading count.
const entryHeaderLen = 16 + 8 + 8 + 4

// stampedRun, set on an entry's reading count, marks a stamped run.
const stampedRun = 1 << 31

// errMalformedEntries refuses bytes that are not whole entries.
var errMalformedEntries = errors.New("store: truncated or malformed write entries")

// entryLen bounds the encoded size of one entry: what it costs on its
// own (inside a stamped run it costs less).
func entryLen(e *WriteEntry) int { return entryHeaderLen + 16*len(e.Readings) }

// CutEntries returns how many leading entries share a frame or record
// whose entries may take limit bytes, and the size entryLen bounds them
// at: as many as fit, and always at least one — alone, an entry may
// exceed the limit.
func CutEntries(es []WriteEntry, limit int) (n, size int) {
	for n < len(es) && (n == 0 || size+entryLen(&es[n]) <= limit) {
		size += entryLen(&es[n])
		n++
	}
	return n, size
}

// AppendEntries appends es, encoded, to b.
func AppendEntries(b []byte, es []WriteEntry) []byte {
	for k := 0; k < len(es); {
		e := &es[k]
		run := 1
		for len(e.Readings) == 1 && k+run < len(es) && len(es[k+run].Readings) == 1 && es[k+run].ID == e.ID {
			run++
		}
		b = binary.BigEndian.AppendUint64(b, e.ID.Hi)
		b = binary.BigEndian.AppendUint64(b, e.ID.Lo)
		if run == 1 {
			b = binary.BigEndian.AppendUint64(b, e.Version)
			b = binary.BigEndian.AppendUint64(b, uint64(e.Expire))
			b = binary.BigEndian.AppendUint32(b, uint32(len(e.Readings)))
			for _, r := range e.Readings {
				b = binary.BigEndian.AppendUint64(b, uint64(r.Timestamp))
				b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.Value))
			}
		} else {
			b = append(b, make([]byte, 16)...)
			b = binary.BigEndian.AppendUint32(b, uint32(run)|stampedRun)
			for _, e := range es[k : k+run] {
				b = binary.BigEndian.AppendUint64(b, uint64(e.Readings[0].Timestamp))
				b = binary.BigEndian.AppendUint64(b, math.Float64bits(e.Readings[0].Value))
				b = binary.BigEndian.AppendUint64(b, e.Version)
				b = binary.BigEndian.AppendUint64(b, uint64(e.Expire))
			}
		}
		k += run
	}
	return b
}

// entryShape reads the reading count of the entry p starts with and the
// bytes each of its readings takes: 16, or 32 in a stamped run.
func entryShape(p []byte) (n, width int) {
	c := binary.BigEndian.Uint32(p[32:])
	if c&stampedRun != 0 {
		return int(c &^ stampedRun), 32
	}
	return int(c), 16
}

// DecodeEntries decodes p, which must be whole entries and nothing else.
// A first pass checks every count against the bytes left, so the two
// allocations — the entries and one array of all their readings — are
// exactly what p holds: never more entries than p has 32-byte pieces,
// never more readings than 16-byte ones.
func DecodeEntries(p []byte) ([]WriteEntry, error) {
	entries, readings := 0, 0
	for q := p; len(q) > 0; {
		if len(q) < entryHeaderLen {
			return nil, errMalformedEntries
		}
		n, width := entryShape(q)
		q = q[entryHeaderLen:]
		if uint64(n)*uint64(width) > uint64(len(q)) {
			return nil, errMalformedEntries
		}
		q = q[n*width:]
		readings += n
		if width == 16 {
			entries++
		} else {
			entries += n
		}
	}
	if entries == 0 {
		return nil, nil
	}
	es := make([]WriteEntry, 0, entries)
	rs := make([]core.Reading, readings)
	for len(p) > 0 {
		n, width := entryShape(p)
		e := WriteEntry{
			ID:      core.SensorID{Hi: binary.BigEndian.Uint64(p), Lo: binary.BigEndian.Uint64(p[8:])},
			Version: binary.BigEndian.Uint64(p[16:]),
			Expire:  int64(binary.BigEndian.Uint64(p[24:])),
		}
		p = p[entryHeaderLen:]
		for i := 0; i < n; i++ {
			rs[i] = core.Reading{Timestamp: int64(binary.BigEndian.Uint64(p)), Value: math.Float64frombits(binary.BigEndian.Uint64(p[8:]))}
			if width == 32 {
				e.Version, e.Expire = binary.BigEndian.Uint64(p[16:]), int64(binary.BigEndian.Uint64(p[24:]))
				e.Readings = rs[i : i+1 : i+1]
				es = append(es, e)
			}
			p = p[width:]
		}
		if width == 16 {
			if n > 0 {
				e.Readings = rs[:n:n]
			}
			es = append(es, e)
		}
		rs = rs[n:]
	}
	return es, nil
}
