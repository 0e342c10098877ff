// Wire encoding of fold specs and states, used by the RPC aggregation
// pushdown (opAggregate). Append-style big-endian, mirroring the rpc
// package's framing idiom; decoding is bounds-checked and rejects
// counts the payload cannot hold, so a corrupt or hostile peer cannot
// drive a large allocation.

package fold

import (
	"encoding/binary"
	"fmt"
	"math"

	"dcdb/internal/core"
)

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendI64(b []byte, v int64) []byte { return appendU64(b, uint64(v)) }

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendReading(b []byte, r core.Reading) []byte {
	b = appendI64(b, r.Timestamp)
	return appendF64(b, r.Value)
}

// AppendSpec encodes a spec (op, range, bucket budget).
func AppendSpec(b []byte, s Spec) []byte {
	b = append(b, byte(s.Op))
	b = appendI64(b, s.From)
	b = appendI64(b, s.To)
	return appendU32(b, uint32(s.Buckets))
}

// reader is a bounds-checked sequential decoder.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("fold: truncated or malformed state encoding")
	}
}

func (r *reader) u8() byte {
	if r.err != nil || len(r.b)-r.off < 1 {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b)-r.off < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b)-r.off < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) reading() core.Reading {
	return core.Reading{Timestamp: r.i64(), Value: r.f64()}
}

// count decodes a length prefix whose elements occupy elemBytes each,
// rejecting counts the remaining payload cannot hold.
func (r *reader) count(elemBytes int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if uint64(n)*uint64(elemBytes) > uint64(len(r.b)-r.off) {
		r.fail()
		return 0
	}
	return int(n)
}

// DecodeSpec decodes a spec and returns the remaining bytes.
func DecodeSpec(b []byte) (Spec, []byte, error) {
	r := &reader{b: b}
	s := Spec{Op: Op(r.u8())}
	s.From = r.i64()
	s.To = r.i64()
	s.Buckets = int(r.u32())
	if r.err != nil {
		return Spec{}, nil, r.err
	}
	if err := s.Validate(); err != nil {
		return Spec{}, nil, err
	}
	return s, b[r.off:], nil
}

// Append encodes a state (op tag + op-specific body).
func Append(b []byte, s State) []byte {
	b = append(b, byte(s.Op()))
	switch v := s.(type) {
	case *Summary:
		b = appendI64(b, v.N)
		b = appendI64(b, v.Skip)
		b = appendF64(b, v.Min)
		b = appendF64(b, v.Max)
		b = appendF64(b, v.Sum)
		b = appendReading(b, v.First)
		b = appendReading(b, v.Last)
		b = appendU64(b, v.fp)
	case *Integral:
		b = appendI64(b, v.N)
		b = appendI64(b, v.Skip)
		b = appendF64(b, v.Sum)
		b = appendReading(b, v.Last)
		b = appendU64(b, v.fp)
	case *Downsample:
		b = appendI64(b, v.FromTS)
		b = appendI64(b, v.ToTS)
		b = appendU32(b, uint32(v.NMax))
		b = appendI64(b, v.n)
		b = appendI64(b, v.Skip)
		b = appendU64(b, v.fp)
		if v.bsum == nil {
			b = append(b, 0) // identity mode
			b = appendU32(b, uint32(len(v.raw)))
			for _, r := range v.raw {
				b = appendReading(b, r)
			}
		} else {
			b = append(b, 1) // bucket mode
			b = appendU32(b, uint32(len(v.bsum)))
			for i := range v.bsum {
				b = appendF64(b, v.bsum[i])
				b = appendI64(b, v.bn[i])
			}
		}
	}
	return b
}

// Decode decodes one state, requiring the buffer to be consumed
// exactly.
func Decode(b []byte) (State, error) {
	r := &reader{b: b}
	var st State
	switch Op(r.u8()) {
	case OpSummary:
		v := NewSummary()
		v.N = r.i64()
		v.Skip = r.i64()
		v.Min = r.f64()
		v.Max = r.f64()
		v.Sum = r.f64()
		v.First = r.reading()
		v.Last = r.reading()
		v.fp = r.u64()
		st = v
	case OpIntegral:
		v := NewIntegral()
		v.N = r.i64()
		v.Skip = r.i64()
		v.Sum = r.f64()
		v.Last = r.reading()
		v.fp = r.u64()
		st = v
	case OpDownsample:
		from, to := r.i64(), r.i64()
		nmax := int(r.u32())
		if r.err == nil && (nmax <= 0 || nmax > maxBuckets) {
			return nil, fmt.Errorf("fold: downsample state with invalid bucket budget %d", nmax)
		}
		if r.err == nil && to < from {
			return nil, fmt.Errorf("fold: downsample state with inverted range [%d, %d]", from, to)
		}
		v := NewDownsample(from, to, nmax)
		v.n = r.i64()
		v.Skip = r.i64()
		v.fp = r.u64()
		switch r.u8() {
		case 0:
			n := r.count(16)
			if r.err == nil && n > nmax {
				return nil, fmt.Errorf("fold: downsample identity buffer %d exceeds budget %d", n, nmax)
			}
			if r.err == nil && n > 0 {
				v.raw = make([]core.Reading, n)
				for i := range v.raw {
					v.raw[i] = r.reading()
				}
			}
		case 1:
			n := r.count(16)
			if r.err == nil && n != v.nBuckets() {
				return nil, fmt.Errorf("fold: downsample state has %d buckets, grid needs %d", n, v.nBuckets())
			}
			if r.err == nil {
				v.bsum = make([]float64, n)
				v.bn = make([]int64, n)
				for i := 0; i < n; i++ {
					v.bsum[i] = r.f64()
					v.bn[i] = r.i64()
				}
			}
		default:
			r.fail()
		}
		st = v
	default:
		return nil, fmt.Errorf("fold: unknown state op")
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("fold: %d trailing bytes in state encoding", len(r.b)-r.off)
	}
	return st, nil
}
