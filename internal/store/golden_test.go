package store

import (
	"math/rand"

	"dcdb/internal/core"
)

// goldenPR15Path is a run file in the current format v3 holding
// goldenContents, written by the last build before the block codec's
// frame codings (PR 15): the fixture for "every file written before them
// stays valid as it is". It cannot be regenerated from this tree — the
// encoder now picks the frame codings for most of its blocks — so
// goldenContents must never change.
const goldenPR15Path = "testdata/run-v3-pr15.sst"

// goldenFramesPath is a run file in format v3 holding
// goldenFramesContents, written by the last build before the clock-coded
// stamps and the anchored last timestamp (block flag bits 5-6): the
// fixture for the frame codings (bits 2-4), which the file above
// predates. It cannot be regenerated from this tree either — the encoder
// now anchors every block of two or more entries — so
// goldenFramesContents must never change.
const goldenFramesPath = "testdata/run-v3-frames.sst"

// goldenClockPath is a run file in format v3 holding
// goldenClockContents, written by the last build of format v3: the
// fixture for the clock-coded stamps and the anchored last timestamp
// (block flag bits 5-6) on an on-tick base, and for the per-block index
// that format v4 replaced. It cannot be regenerated from this tree — the
// writer now writes v4 — so goldenClockContents must never change.
const goldenClockPath = "testdata/run-v3-clock.sst"

// goldenV4Path is a run file in format v4 holding goldenV4Contents,
// written by the last build of format v4: the fixture for v4's index —
// pages of blocks under one CRC, entry counts from the series, SIDs by
// hierarchy level, block bounds against the file's period — and for its
// blocks, which gave each coding one flag bit. It cannot be regenerated
// from this tree — the writer now writes v5 — so goldenV4Contents must
// never change.
const goldenV4Path = "testdata/run-v4.sst"

// goldenV4Contents is a closed-loop fan-in as the coordinator stamps it:
// sixty sensors of five or six readings each, one a round of the
// writer's loop (~1.1 s), versions on the microsecond tick with ms
// jitter, behind a series of 1025 readings (two full blocks and one
// over) that is first in SID order, so the base version is on the tick;
// and a tombstone. Two in three sensors are integer counters, the rest
// gauges in quarter steps; one carries expiries.
func goldenV4Contents() *runContents {
	rng := rand.New(rand.NewSource(25))
	ids := goldenShardIDs(61)
	const t0, v0, round = int64(1_560_000_000_000_000_000), uint64(1_700_000_000_000_000_000), 1_100_000_000
	stamp := func(i int) uint64 { return v0 + uint64(i)*round + uint64(rng.Intn(3000))*versionTick }
	rc := &runContents{
		minSeq: 1, maxSeq: 2,
		tombs:  map[core.SensorID]int64{ids[3]: 77, sid(9, 9): 123},
		series: map[core.SensorID][]entry{},
	}
	long := make([]entry, 2*blockEntries+1)
	for i := range long {
		long[i] = entry{
			ts:  t0 + int64(i)*round + int64(rng.Intn(2_000_001)) - 1_000_000,
			val: float64(50_000 + 13*i + rng.Intn(9)),
			ver: stamp(i),
		}
	}
	rc.series[ids[0]] = long
	for s := 1; s < len(ids); s++ {
		es := make([]entry, 5+s%2)
		walk := float64(20 + rng.Intn(60))
		for i := range es {
			es[i] = entry{ts: t0 + int64(i)*round + int64(rng.Intn(20_000_001)) - 10_000_000, ver: stamp(i)}
			if s%3 == 0 {
				walk += float64(rng.Intn(5)-2) * 0.25
				es[i].val = walk
			} else {
				es[i].val = float64(s*1_000_003 + i*(1000+s) + rng.Intn(30))
			}
			if s == 7 { // expiring in 2100, so every reading is served
				es[i].expire = 4_102_444_800_000_000_000
			}
		}
		rc.series[ids[s]] = es
	}
	return rc
}

// goldenName is the name the file must carry inside a shard directory
// (its index states the span [1,2]).
var goldenName = runFileName(1, 2)

// goldenShardIDs returns the first n ids of the fixtures' SID family
// that hash to one shard (a run file belongs to a shard directory).
func goldenShardIDs(n int) []core.SensorID {
	var ids []core.SensorID
	for lo := uint64(1); len(ids) < n; lo++ {
		if id := sid(0x0001000200030004, lo<<32); shardIndex(id) == 5 {
			ids = append(ids, id)
		}
	}
	return ids
}

// goldenIDs returns the series ids of goldenContents: a three-block
// versioned counter, a two-block series with duplicate timestamps,
// expiries and mixed zero/non-zero versions, a single unversioned
// entry, and exactly one full block whose versions are all equal.
func goldenIDs() (counter, messy, single, full core.SensorID) {
	ids := goldenShardIDs(4)
	return ids[0], ids[1], ids[2], ids[3]
}

// goldenFramesContents is goldenContents plus, last in SID order, one
// series stamped the way the coordinator stamps a fan-in sensor: one
// reading per write, versions on the microsecond tick, rounds ~2.9 s
// apart with ms jitter — a full block and a five-entry one. The file's
// base version is the counter's first, which is off the tick.
func goldenFramesContents() *runContents {
	rc := goldenContents()
	rng := rand.New(rand.NewSource(23))
	const t0, v0 = int64(1_560_000_000_000_000_000), uint64(1_700_000_000_000_000_000)
	es := make([]entry, blockEntries+5)
	for i := range es {
		es[i] = entry{
			ts:  t0 + int64(i)*1_000_000_000 + int64(rng.Intn(20_000_001)) - 10_000_000,
			val: float64(4000 + 3*i + rng.Intn(3)),
			ver: v0 + uint64(i)*2_900_000_000 + uint64(rng.Intn(5000))*versionTick,
		}
	}
	rc.series[goldenShardIDs(5)[4]] = es
	return rc
}

// goldenClockContents is the fan-in shape as the coordinator stamps it:
// forty-one sensors of five readings each and one of a single reading, one
// reading per write, versions on the microsecond tick a round of the
// writer's loop (~2.9 s) apart with ms jitter — some of them below the
// file's base — behind a series of a full block and nine readings more
// that is first in SID order, so the base version is on the tick. Some
// sensors are integer counters, some gauges, one carries expiries, one
// no versions at all; two tombstones.
func goldenClockContents() *runContents {
	rng := rand.New(rand.NewSource(24))
	ids := goldenShardIDs(43)
	const t0, v0 = int64(1_560_000_000_000_000_000), uint64(1_700_000_000_000_000_000)
	stamp := func(round int, skew uint64) uint64 {
		return v0 - skew + uint64(round)*2_900_000_000 + uint64(rng.Intn(3000))*versionTick
	}
	rc := &runContents{
		minSeq: 1, maxSeq: 2,
		tombs:  map[core.SensorID]int64{ids[0]: 5, sid(9, 9): 123},
		series: map[core.SensorID][]entry{},
	}
	long := make([]entry, blockEntries+9)
	for i := range long {
		long[i] = entry{
			ts:  t0 + int64(i)*1_000_000_000 + int64(rng.Intn(20_000_001)) - 10_000_000,
			val: float64(90_000 + 11*i + rng.Intn(7)),
			ver: stamp(i, 0),
		}
	}
	rc.series[ids[0]] = long
	for s := 1; s < len(ids); s++ {
		n := 5
		if s == 41 {
			n = 1
		}
		es := make([]entry, n)
		walk := float64(20 + rng.Intn(60))
		for i := range es {
			es[i] = entry{ts: t0 + int64(i)*1_000_000_000 + int64(rng.Intn(20_000_001)) - 10_000_000}
			if s%3 == 0 {
				walk += float64(rng.Intn(5)-2) * 0.25
				es[i].val = walk
			} else {
				es[i].val = float64(s*1_000_003 + i*(1000+s))
			}
			if s != 42 {
				es[i].ver = stamp(i, uint64(s%4)*1_000_000_000)
			}
			if s == 7 { // expiring in 2100, so every reading is served
				es[i].expire = 4_102_444_800_000_000_000
			}
		}
		rc.series[ids[s]] = es
	}
	return rc
}

// goldenContents is the fixture's contents: a fixed pseudo-random
// spread of the shapes a decoder has to keep reading — multi-block
// series, duplicate timestamps, expiries, mixed versions, tombstones.
func goldenContents() *runContents {
	rng := rand.New(rand.NewSource(20190617))
	counter, messy, single, full := goldenIDs()
	const t0, v0 = int64(1_560_000_000_000_000_000), uint64(1_700_000_000_000_000_000)

	ces := make([]entry, 2*blockEntries+17)
	for i := range ces {
		jitter := int64(rng.Intn(20_000_000)) - 10_000_000
		ces[i] = entry{
			ts:  t0 + int64(i)*1_000_000_000 + jitter,
			val: float64(1000 + 37*i),
			ver: v0 + uint64(i)*1_000_000_000 + uint64(rng.Intn(5_000_000)),
		}
	}

	mes := make([]entry, blockEntries+9)
	ts := t0 - 5_000
	for i := range mes {
		mes[i].ts = ts
		if rng.Intn(8) != 0 { // occasional duplicate timestamps
			ts += int64(rng.Intn(5000))
		}
		mes[i].val = rng.NormFloat64() * 1e3
		if rng.Intn(5) == 0 {
			mes[i].expire = int64(rng.Intn(1 << 30))
		}
		if rng.Intn(3) != 0 {
			mes[i].ver = v0 - uint64(rng.Intn(1<<20))
		}
	}

	fes := make([]entry, blockEntries)
	for i := range fes {
		fes[i] = entry{ts: t0 + int64(i)*250_000_000, val: 21.5 + float64(i%7)*0.25, ver: v0 + 42}
	}

	return &runContents{
		minSeq: 1, maxSeq: 2,
		tombs: map[core.SensorID]int64{counter: 5, sid(9, 9): 123},
		series: map[core.SensorID][]entry{
			counter: ces,
			messy:   mes,
			single:  {{ts: 17, val: -0.5}},
			full:    fes,
		},
	}
}
