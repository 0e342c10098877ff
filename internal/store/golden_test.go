package store

import (
	"math/rand"

	"dcdb/internal/core"
)

// goldenV7Path is a run file in format v7 holding goldenFanInContents,
// written by the first build of format v7: the fixture that pins the
// format — every later build must serve it as it is, and write the same
// contents to the same bytes — so goldenFanInContents must never change.
// goldenV6Path holds the same contents in format v6, written by the
// first build of v6: the fixture of a format this build refuses, whose
// data section is the v7 file's byte for byte.
const (
	goldenV7Path = "testdata/run-v7.sst"
	goldenV6Path = "testdata/run-v6.sst"
)

// goldenFanInContents is a closed-loop fan-in as the coordinator stamps
// it: sixty sensors of five or six readings each, one a round of the
// writer's loop (~1.1 s), versions on the microsecond tick with ms
// jitter, behind a series of 1025 readings (two full blocks and one
// over) that is first in SID order, so the base version is on the tick;
// and a tombstone. Two in three sensors are integer counters, the rest
// gauges in quarter steps; one carries expiries.
func goldenFanInContents() *runContents {
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

// skewedFanInContents is the fan-in shape as the coordinator stamps it:
// forty-one sensors of five readings each and one of a single reading,
// one reading per write, versions on the microsecond tick a round of the
// writer's loop (~2.9 s) apart with ms jitter — some of them below the
// file's base — behind a series of a full block and nine readings more
// that is first in SID order, so the base version is on the tick. Some
// sensors are integer counters, some gauges, one carries expiries, one
// no versions at all; two tombstones.
func skewedFanInContents() *runContents {
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
