package store

import (
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"dcdb/internal/core"
)

// writeSpilledRuns fills dir with the run files a node spills: gens
// generations, one file each, over sensors sensors of perSensor
// readings in all (a burst shape: one second apart, integer counters).
// Each file is written and dropped before the next, so the test holds
// one generation's series at a time.
func writeSpilledRuns(t testing.TB, dir string, sensors, perSensor, gens int) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	per := perSensor / gens
	for g := 0; g < gens; g++ {
		series := make(map[core.SensorID][]entry, sensors)
		for s := 0; s < sensors; s++ {
			es := make([]entry, per)
			for k := range es {
				n := int64(g*per + k)
				es[k] = entry{ts: 1_700_000_000e9 + n*1e9 + int64(s)*1e6, val: float64(n*7 + int64(s))}
			}
			series[sid(uint64(s/64+1), uint64(s%64+1))] = es
		}
		if _, _, err := writeRunFile(dir, uint64(g), uint64(g), series, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// heapInuse is the heap's in-use bytes after a collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestReadOnlyOpenHeapBounded: a durable node keeps only its run files'
// indexes in memory, so a read-only open of 3.5 M spilled readings at
// CacheBytes 0 (the default of every tool and daemon) costs its
// indexes, not its readings (112 MB decoded).
func TestReadOnlyOpenHeapBounded(t *testing.T) {
	const sensors, perSensor = 500, 7000
	dir := t.TempDir()
	writeSpilledRuns(t, dir, sensors, perSensor, 4)
	before := heapInuse()
	n := NewNode(0)
	if err := n.OpenOptions(dir, DiskOptions{ReadOnly: true, SyncInterval: -1}); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	after := heapInuse()
	grown := int64(after) - int64(before)
	t.Logf("read-only open of %d readings: heap in use grew %.2f MB", sensors*perSensor, float64(grown)/(1<<20))
	if grown > 8<<20 {
		t.Fatalf("read-only open of %d spilled readings grew the heap in use by %d bytes, want at most 8 MB", sensors*perSensor, grown)
	}
	// Everything is still served, from the files.
	ids := n.SensorIDs()
	if len(ids) != sensors {
		t.Fatalf("%d sensors, want %d", len(ids), sensors)
	}
	for _, id := range []core.SensorID{ids[0], ids[len(ids)-1]} {
		if rs, err := n.Query(id, math.MinInt64, math.MaxInt64); err != nil || len(rs) != perSensor {
			t.Fatalf("sensor %v: %d readings (%v), want %d", id, len(rs), err, perSensor)
		}
	}
	runtime.KeepAlive(n)
}

// BenchmarkReadOnlyOpen opens, read-only, node directories written
// through the real write path in two of the benchmark's shapes: a
// burst_batch-like one (500 sensors, 64 readings a write) and a
// fanin_saturate-like one (20 000 sensors, one reading a write), both
// with dcdbnode's 131 072-entry flush budget and background compaction.
// Each iteration opens the directory twice — at CacheBytes 0 and behind
// a 1 MiB cache — and reports, for each, the open time, the heap in use
// the open added, one sensor's full read and a full scan of every
// sensor.
func BenchmarkReadOnlyOpen(b *testing.B) {
	shapes := []struct {
		name               string
		sensors, perSensor int
		batch              int
	}{
		{"burst", 500, 7000, 64},
		{"fanin", 20000, 60, 1},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			dir := b.TempDir()
			writeNodeDir(b, dir, sh.sensors, sh.perSensor, sh.batch)
			for _, cfg := range []struct {
				name  string
				cache int64
			}{{"cache0", 0}, {"cache1MiB", 1 << 20}} {
				b.Run(cfg.name, func(b *testing.B) {
					var openNs, heapB, oneNs, scanNs float64
					for it := 0; it < b.N; it++ {
						before := heapInuse()
						start := time.Now()
						n := NewNode(0)
						if err := n.OpenOptions(dir, DiskOptions{ReadOnly: true, SyncInterval: -1, CacheBytes: cfg.cache}); err != nil {
							b.Fatal(err)
						}
						openNs += float64(time.Since(start))
						heapB += float64(int64(heapInuse()) - int64(before))
						ids := n.SensorIDs()
						start = time.Now()
						if rs, err := n.Query(ids[len(ids)/2], math.MinInt64, math.MaxInt64); err != nil || len(rs) != sh.perSensor {
							b.Fatalf("one sensor: %d readings (%v), want %d", len(rs), err, sh.perSensor)
						}
						oneNs += float64(time.Since(start))
						start = time.Now()
						total := 0
						for _, id := range ids {
							rs, err := n.Query(id, math.MinInt64, math.MaxInt64)
							if err != nil {
								b.Fatal(err)
							}
							total += len(rs)
						}
						scanNs += float64(time.Since(start))
						if total != sh.sensors*sh.perSensor {
							b.Fatalf("scan: %d readings, want %d", total, sh.sensors*sh.perSensor)
						}
						n.Close()
					}
					N := float64(b.N)
					b.ReportMetric(openNs/N/1e6, "open_ms")
					b.ReportMetric(heapB/N/(1<<20), "open_heap_MB")
					b.ReportMetric(oneNs/N/1e3, "one_sensor_us")
					b.ReportMetric(scanNs/N/1e6, "scan_ms")
				})
			}
		})
	}
}

// writeNodeDir writes sensors × perSensor readings into dir through a
// durable node, batch readings of one sensor a write, sensors in turn,
// and closes it.
func writeNodeDir(b *testing.B, dir string, sensors, perSensor, batch int) {
	b.Helper()
	n := NewNode(131072)
	if err := n.OpenOptions(dir, DiskOptions{SyncInterval: -1, CacheBytes: 4 << 20}); err != nil {
		b.Fatal(err)
	}
	rs := make([]core.Reading, batch)
	for k := 0; k < perSensor; k += batch {
		for s := 0; s < sensors; s++ {
			id := sid(uint64(s/64+1), uint64(s%64+1))
			for j := range rs {
				ts := int64(k + j)
				rs[j] = core.Reading{Timestamp: 1_700_000_000e9 + ts*1e9 + int64(s)*1e6, Value: float64(ts*7 + int64(s))}
			}
			if err := n.InsertBatch(id, rs[:min(batch, perSensor-k)], 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := n.Close(); err != nil {
		b.Fatal(err)
	}
}
