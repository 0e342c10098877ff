package store

import (
	"encoding/binary"
	"fmt"

	"dcdb/internal/core"
)

// Legacy run-file format v2, read-only. Same frame as v3 (magic, data,
// tail index, footer — see runfile.go) with a fixed-width index and
// self-contained blocks:
//
//	magic "DCDBRUN2"
//	index  : minSeq u64 | maxSeq u64 | tombCount u64 | seriesCount u64
//	         tombs  : tombCount × (sidHi u64 | sidLo u64 | cutoff i64)
//	         series : seriesCount × header + block index, sorted by SID
//	           header : sidHi u64 | sidLo u64 | count u64 | min i64 | max i64 | blockCount u32
//	           block  : off u64 | len u32 | count u32 | min i64 | max i64 | crc u32
//
// Nothing writes it any more: a writable Open migrates v2 files to v3,
// and this parser exists for the migration's read side and for
// read-only opens, which must not rewrite anything.

const (
	v2BlockMetaLen  = 36
	v2SeriesHdrLen  = 44
	v2IndexFixedLen = 32
	v2TombLen       = 24
)

// parseRunIndexV2 decodes and validates a v2 index section. dataLen is
// the file offset where the index begins (every block must fit below
// it).
func parseRunIndexV2(b []byte, dataLen int64) (*runIndex, error) {
	if len(b) < v2IndexFixedLen {
		return nil, fmt.Errorf("store: run index truncated")
	}
	idx := &runIndex{
		minSeq:  binary.BigEndian.Uint64(b[0:]),
		maxSeq:  binary.BigEndian.Uint64(b[8:]),
		dataLen: dataLen,
		base:    blockBase{legacy: true},
	}
	if idx.minSeq > idx.maxSeq {
		return nil, fmt.Errorf("store: run index span inverted")
	}
	tombCount := binary.BigEndian.Uint64(b[16:])
	seriesCount := binary.BigEndian.Uint64(b[24:])
	off := v2IndexFixedLen
	if tombCount > uint64(len(b)-off)/v2TombLen {
		return nil, fmt.Errorf("store: run index tombstone count overflows index")
	}
	if tombCount > 0 {
		idx.tombs = make(map[core.SensorID]int64, tombCount)
		for i := uint64(0); i < tombCount; i++ {
			id := core.SensorID{Hi: binary.BigEndian.Uint64(b[off:]), Lo: binary.BigEndian.Uint64(b[off+8:])}
			idx.tombs[id] = int64(binary.BigEndian.Uint64(b[off+16:]))
			off += v2TombLen
		}
	}
	if seriesCount > uint64(len(b)-off)/v2SeriesHdrLen {
		return nil, fmt.Errorf("store: run index series count overflows index")
	}
	idx.series = make([]seriesIndex, 0, seriesCount)
	var prev core.SensorID
	for i := uint64(0); i < seriesCount; i++ {
		if len(b)-off < v2SeriesHdrLen {
			return nil, fmt.Errorf("store: run index truncated in series header")
		}
		se := seriesIndex{
			id:    core.SensorID{Hi: binary.BigEndian.Uint64(b[off:]), Lo: binary.BigEndian.Uint64(b[off+8:])},
			count: binary.BigEndian.Uint64(b[off+16:]),
			min:   int64(binary.BigEndian.Uint64(b[off+24:])),
			max:   int64(binary.BigEndian.Uint64(b[off+32:])),
		}
		blockCount := binary.BigEndian.Uint32(b[off+40:])
		off += v2SeriesHdrLen
		if i > 0 && prev.Compare(se.id) >= 0 {
			return nil, fmt.Errorf("store: run index series out of order")
		}
		prev = se.id
		if blockCount == 0 {
			return nil, fmt.Errorf("store: run index has empty series")
		}
		if uint64(blockCount) > uint64(len(b)-off)/v2BlockMetaLen {
			return nil, fmt.Errorf("store: run index block count overflows index")
		}
		se.blocks = make([]blockMeta, blockCount)
		var total uint64
		for j := range se.blocks {
			m := blockMeta{
				off:    binary.BigEndian.Uint64(b[off:]),
				length: binary.BigEndian.Uint32(b[off+8:]),
				count:  binary.BigEndian.Uint32(b[off+12:]),
				min:    int64(binary.BigEndian.Uint64(b[off+16:])),
				max:    int64(binary.BigEndian.Uint64(b[off+24:])),
				crc:    binary.BigEndian.Uint32(b[off+32:]),
			}
			off += v2BlockMetaLen
			if m.min > m.max {
				return nil, fmt.Errorf("store: run index block bounds inverted")
			}
			// Subtraction form: the additive check would wrap uint64 for
			// a hostile off near 2^64 and falsely pass.
			if m.off < runMagicLen || m.off > uint64(dataLen) ||
				uint64(m.length) > uint64(dataLen)-m.off {
				return nil, fmt.Errorf("store: run index block overflows data section")
			}
			if err := checkBlockCount(uint64(m.count), int(m.length), true); err != nil {
				return nil, err
			}
			if j > 0 && m.min < se.blocks[j-1].max {
				return nil, fmt.Errorf("store: run index blocks out of order")
			}
			total += uint64(m.count)
			se.blocks[j] = m
		}
		// The stored series header repeats what the blocks say; it must
		// not contradict them.
		if total != se.count || se.min != se.blocks[0].min || se.max != se.blocks[blockCount-1].max {
			return nil, fmt.Errorf("store: run index series header contradicts its blocks")
		}
		idx.series = append(idx.series, se)
	}
	if off != len(b) {
		return nil, fmt.Errorf("store: run index has %d trailing bytes", len(b)-off)
	}
	return idx, nil
}
