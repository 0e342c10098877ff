package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary sample codec: the body the Stats RPC op carries so
// a coordinator can pull a remote node's full metrics snapshot over
// the same wire the data takes. Version 1 layout (big endian, like the
// rest of the RPC protocol):
//
//	u8  version (1)
//	u32 sample count
//	per sample:
//	  u16 name length | name bytes
//	  u8  kind
//	  counter/gauge: f64 value
//	  histogram:     f64 sum | f64 scale | u8 bucket count | count×u64
//
// A decoder that sees a higher version than it knows rejects the body;
// the caller (rpc.Client.StatsFull) reports that as an error rather
// than misreading bytes.

// snapshotVersion is the current codec version.
const snapshotVersion = 1

// maxSnapshotSamples bounds decode allocation against corrupt frames.
const maxSnapshotSamples = 1 << 16

// EncodeSamples serializes samples in the version-1 snapshot format.
func EncodeSamples(samples []Sample) []byte {
	buf := make([]byte, 0, 64+len(samples)*48)
	buf = append(buf, snapshotVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(samples)))
	for _, s := range samples {
		name := s.Name
		if len(name) > math.MaxUint16 {
			name = name[:math.MaxUint16]
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = append(buf, byte(s.Kind))
		if s.Kind == KindHistogram && s.Hist != nil {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(float64(s.Hist.Sum)))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Hist.Scale))
			buf = append(buf, byte(numBuckets+1))
			for _, c := range s.Hist.Counts {
				buf = binary.BigEndian.AppendUint64(buf, uint64(c))
			}
		} else {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Value))
		}
	}
	return buf
}

// DecodeSamples parses a version-1 snapshot body.
func DecodeSamples(b []byte) ([]Sample, error) {
	if len(b) < 5 {
		return nil, fmt.Errorf("metrics: snapshot too short (%d bytes)", len(b))
	}
	if b[0] != snapshotVersion {
		return nil, fmt.Errorf("metrics: unknown snapshot version %d", b[0])
	}
	n := binary.BigEndian.Uint32(b[1:5])
	if n > maxSnapshotSamples {
		return nil, fmt.Errorf("metrics: snapshot claims %d samples", n)
	}
	b = b[5:]
	out := make([]Sample, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("metrics: truncated sample name length")
		}
		nl := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < nl+1 {
			return nil, fmt.Errorf("metrics: truncated sample name")
		}
		s := Sample{Name: string(b[:nl]), Kind: Kind(b[nl])}
		b = b[nl+1:]
		switch s.Kind {
		case KindHistogram:
			if len(b) < 17 {
				return nil, fmt.Errorf("metrics: truncated histogram header")
			}
			h := &HistogramSnapshot{
				Sum:   int64(math.Float64frombits(binary.BigEndian.Uint64(b))),
				Scale: math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
			}
			nb := int(b[16])
			b = b[17:]
			if len(b) < nb*8 {
				return nil, fmt.Errorf("metrics: truncated histogram buckets")
			}
			// A peer with a different (future) bucket count still
			// decodes: extra buckets fold into overflow, missing ones
			// stay zero.
			for j := 0; j < nb; j++ {
				c := int64(binary.BigEndian.Uint64(b[j*8:]))
				idx := j
				if idx > numBuckets {
					idx = numBuckets
					h.Counts[idx] += c
					continue
				}
				h.Counts[idx] = c
			}
			b = b[nb*8:]
			s.Hist = h
		case KindCounter, KindGauge:
			if len(b) < 8 {
				return nil, fmt.Errorf("metrics: truncated sample value")
			}
			s.Value = math.Float64frombits(binary.BigEndian.Uint64(b))
			b = b[8:]
		default:
			return nil, fmt.Errorf("metrics: unknown sample kind %d", s.Kind)
		}
		out = append(out, s)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("metrics: %d trailing bytes after snapshot", len(b))
	}
	return out, nil
}
