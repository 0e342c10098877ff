package store

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcdb/internal/core"
)

// stamping is how a shape's writes are stamped: in arrival order, gap
// ns apart plus up to jitter ns each, rounded down to a whole multiple
// of tick ns.
type stamping struct {
	gap, tick uint64
	jitter    int
}

// nsStamps is a nanosecond clock taking 6 000 writes a second.
var nsStamps = stamping{gap: 166_667, tick: 1, jitter: 50_000}

// faninID is the SID of sensor s of a fan-in of up to 20 000 sensors
// in a six-level hierarchy, /site/rack/chassis/node/plugin/sensor.
func faninID(s int) core.SensorID {
	return core.SensorID{}.WithLevel(0, 1).WithLevel(1, uint16(1+s/400)).WithLevel(2, uint16(1+s/100%4)).
		WithLevel(3, uint16(1+s/10%10)).WithLevel(4, uint16(1+s/5%2)).WithLevel(5, uint16(1+s%5))
}

// storedBytes pushes perSeries versioned readings of each of
// nSeries monitoring-shaped sensors through a durable node — 1 s period
// with ±1% jitter in ns, batch readings per InsertVersioned call under
// one write version stamped as st says, the paper's mix of counters,
// quantised gauges and set-points, SIDs from a six-level hierarchy —
// flushes, compacts, closes, and returns the bytes the node's directory
// holds and, of them, the bytes of the run files' indexes.
// Deterministic: same bytes on every run.
func storedBytes(t *testing.T, nSeries, perSeries, batch int, st stamping) (total, index int64) {
	t.Helper()
	dir := t.TempDir()
	n := openedNode(t, dir, 1<<30, DiskOptions{SyncInterval: -1})
	rng := rand.New(rand.NewSource(12))
	const t0, v0 = int64(1_560_000_000_000_000_000), uint64(1_700_000_000_000_000_000)
	ids := make([]core.SensorID, nSeries)
	walk := make([]float64, nSeries)
	for s := range ids {
		ids[s] = faninID(s)
		walk[s] = float64(20 + rng.Intn(60))
	}
	vrs := make([]VersionedReading, batch)
	for i := 0; i < perSeries; i += batch {
		for s, id := range ids {
			version := v0 + uint64(i/batch*nSeries+s)*st.gap + uint64(rng.Intn(st.jitter))
			version -= version % st.tick
			for j := range vrs {
				var val float64
				switch k := s % 16; {
				case k < 9: // monotone integer counter
					val = float64(int64(s)*1_000_003 + int64(i+j)*int64(1000+s%977))
				case k < 15: // quantised bounded random walk
					walk[s] += float64(rng.Intn(5)-2) * 0.25
					val = walk[s]
				default: // set-point
					val = 18.5
				}
				vrs[j] = VersionedReading{
					Timestamp: t0 + int64(i+j)*1_000_000_000 + int64(rng.Intn(20_000_001)) - 10_000_000,
					Value:     val,
					Version:   version,
				}
			}
			if err := n.InsertVersioned(id, vrs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	n.Compact()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		total += info.Size()
		if strings.HasSuffix(path, ".sst") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			index += int64(binary.BigEndian.Uint32(data[len(data)-runFooterLen+8:]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total, index
}

// TestRunFileBytesPerReading is the size guard of the run-file format.
// Fan-in — very many series with a handful of readings each per file —
// is where a per-series index cost concentrates: format v2 spent 80
// index bytes per series and 18 absolute header bytes per block, and
// needed 30.4 B/reading for the first shape below. Long series must not
// pay for the fan-in gain: the second shape may not outgrow what v2
// needed for it. The third is the burst shape — a Pusher forwarding 64
// readings a message, so 64 consecutive entries of a block share one
// write version — where the per-reading streams are all there is.
func TestRunFileBytesPerReading(t *testing.T) {
	perReading := func(total, _ int64) float64 { return float64(total) }
	fanin := perReading(storedBytes(t, 2000, 5, 1, nsStamps)) / (2000 * 5)
	t.Logf("fan-in shape: %.2f B/reading", fanin)
	if fanin > 11.24 { // 10.91 measured, + 3%; 11.51 before format v7, 11.82 before v6, 12.42 before v5, 13.96 before v4, 14.75 before the anchored last timestamp, 16.01 before the frame codings
		t.Errorf("fan-in shape: %.2f B/reading on disk, want <= 11.24", fanin)
	}
	const longV2 = 2_020_100 // bytes format v2 needed (measured at PR 11)
	long, _ := storedBytes(t, 50, 4096, 1, nsStamps)
	t.Logf("long series: %d bytes, %.3f B/reading", long, float64(long)/(50*4096))
	if long > longV2 {
		t.Errorf("long series: %d bytes on disk, format v2 needed %d", long, longV2)
	}
	// 6.84 B/reading before the frame codings: 3.9 of varint
	// delta-of-delta timestamps, a version byte per reading, and an XOR
	// stream smearing integer counters over the mantissa.
	burst := perReading(storedBytes(t, 50, 4096, 64, nsStamps)) / (50 * 4096)
	t.Logf("burst shape: %.3f B/reading", burst)
	if burst > 3.67 { // 3.563 measured, + 3%; 3.565 before format v7, 3.574 before v6, 3.698 before v5, 3.708 before v4, 3.714 before the anchored last timestamp
		t.Errorf("burst shape: %.3f B/reading on disk, want <= 3.67", burst)
	}
	// The open-loop fan-in shape — the production one: a message is one
	// reading, so every reading has a stamp of its own, and a sensor has
	// a block's worth of them by the time a file is written. The write
	// stamps are then the largest stream of a block. The coordinator
	// issues them on a whole-microsecond tick (versionTick), the block
	// frame's divisor finds the factor, and each stamp is ten bits
	// shorter than under the nanosecond clock of earlier builds.
	nanos := perReading(storedBytes(t, 2000, 22, 1, nsStamps)) / (2000 * 22)
	ticks := nsStamps
	ticks.tick = versionTick
	ticked := perReading(storedBytes(t, 2000, 22, 1, ticks)) / (2000 * 22)
	t.Logf("open-loop fan-in shape: %.2f B/reading, %.2f with nanosecond stamps", ticked, nanos)
	if ticked > 5.29 { // 5.14 measured, + 3%; 5.31 before format v7, 5.66 before v6, 5.91 before v5, 6.21 before v4, 6.72 before the clock coding and the anchor, 7.73 with nanosecond stamps
		t.Errorf("open-loop fan-in shape: %.2f B/reading on disk, want <= 5.29", ticked)
	}
	if nanos-ticked < 1 {
		t.Errorf("open-loop fan-in shape: the microsecond tick saves %.2f B/reading (%.2f -> %.2f), want over 1", nanos-ticked, nanos, ticked)
	}
	// The closed-loop fan-in shape: as many sensors as writes fit in a
	// round of the writer's loop, ~2.9 s, so a file holds a handful of
	// readings of each, one a round, and the loop's ms jitter is all
	// that varies between rounds. The clock coding stores that jitter in
	// ticks instead of each round's length in ns — against the file's
	// round, so the first delta is jitter too, and at the file's stamp
	// width — and the index's min and max stand in for each block's first
	// and last timestamp, and the line through them, at the file's
	// timestamp width, for the rest. What is left of the index is, each
	// in a column, the SID's head and step, the count, the block's length
	// and its two bounds coded against the file's period — and a share of
	// a page's CRC.
	const sensors = 20_000
	total, index := storedBytes(t, sensors, 5, 1, stamping{gap: 145_000, tick: versionTick, jitter: 3_000_000})
	closed, perSeries := float64(total)/(sensors*5), float64(index)/sensors
	t.Logf("closed-loop fan-in shape: %.2f B/reading, %.2f index bytes per series", closed, perSeries)
	if closed > 8.28 { // 8.04 measured, + 3%; 8.64 before format v7, 9.42 before v6, 10.37 before v5, 11.93 before v4, 14.59 before the clock coding and the anchor
		t.Errorf("closed-loop fan-in shape: %.2f B/reading on disk, want <= 8.28", closed)
	}
	if perSeries > 8.05 { // 7.81 measured, + 3%; 10.81 before format v7, 12.24 before v6, 13.78 before v5, 21.55 before v4
		t.Errorf("closed-loop fan-in shape: %.2f index bytes per series, want <= 8.05", perSeries)
	}
}
