package tooldb

import (
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/store"
)

// The tools' cost on agent directories written through the agent's own
// write path, in two of the benchmark's shapes: burst (500 sensors of
// 7 040 readings, 64 a write, like burst_batch) and fanin (20 000
// sensors of 60 readings, one a write, like fanin_saturate).
var benchShapes = []struct {
	name                      string
	sensors, perSensor, batch int
}{
	{"burst", 500, 7040, 64},
	{"fanin", 20000, 60, 1},
}

// writeAgentDir writes sensors × perSensor readings into an agent's
// data directory, batch readings of one sensor a write, sensors in
// turn, saves the topic map, closes the store and returns the topics.
// The background compactor stays off: the directory then holds the
// spill generations alone, the same files every set-up, and not
// whatever the compactor had merged by the time the store closed.
func writeAgentDir(b *testing.B, dir string, sensors, perSensor, batch int) []string {
	b.Helper()
	c, err := collectagent.OpenBackendOptions(dir, store.DiskOptions{SyncInterval: -1, CacheBytes: 4 << 20}, store.ClusterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	mapper := core.NewTopicMapper()
	topics := make([]string, sensors)
	ids := make([]core.SensorID, sensors)
	for s := range topics {
		topics[s] = fmt.Sprintf("/bench/r%03d/n%02d/power", s/64, s%64)
		if ids[s], err = mapper.Map(topics[s]); err != nil {
			b.Fatal(err)
		}
	}
	rs := make([]core.Reading, batch)
	for k := 0; k < perSensor; k += batch {
		for s, id := range ids {
			for j := range rs {
				ts := int64(k + j)
				rs[j] = core.Reading{Timestamp: 1_700_000_000e9 + ts*1e9 + int64(s)*1e6, Value: float64(ts*7 + int64(s))}
			}
			if err := c.InsertBatch(id, rs[:min(batch, perSensor-k)], 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := collectagent.SaveTopics(dir, mapper); err != nil {
		b.Fatal(err)
	}
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	return topics
}

// runFiles counts the run files under dir.
func runFiles(b *testing.B, dir string) int {
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".sst") {
			n++
		}
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// heapAlloc returns the live heap once a collection frees nothing
// more. One collection is not enough: a sync.Pool's victim cache
// survives it, so what an earlier Open pooled would still count.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	last := uint64(math.MaxUint64)
	for {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= last {
			return ms.HeapAlloc
		}
		last = ms.HeapAlloc
	}
}

// BenchmarkOpenQuery is dcdbquery -db of one sensor: Open, then one
// sensor's full read. It reports the time of both and the heap they
// leave in use while the connection is open. Every iteration starts
// from the heap the loop started from, so one iteration's pooled
// buffers cannot count against the next.
func BenchmarkOpenQuery(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			dir := b.TempDir()
			topics := writeAgentDir(b, dir, sh.sensors, sh.perSensor, sh.batch)
			topic := topics[len(topics)/2]
			var ns, heap float64
			baseline := heapAlloc()
			for it := 0; it < b.N; it++ {
				before := heapAlloc()
				if before > baseline+64<<10 {
					b.Fatalf("iteration %d starts with %d B more live heap than the first: an earlier Open is still held", it, before-baseline)
				}
				start := time.Now()
				conn, db, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				rs, err := conn.Query(topic, math.MinInt64, math.MaxInt64)
				if err != nil || len(rs) != sh.perSensor {
					b.Fatalf("%s: %d readings (%v), want %d", topic, len(rs), err, sh.perSensor)
				}
				ns += float64(time.Since(start))
				heap += float64(int64(heapAlloc()) - int64(before))
				runtime.KeepAlive(conn)
				db.Close()
			}
			b.ReportMetric(ns/float64(b.N)/1e6, "open_query_ms")
			b.ReportMetric(heap/float64(b.N)/(1<<20), "retained_heap_MB")
			b.ReportMetric(float64(runFiles(b, dir)), "run_files")
		})
	}
}

// BenchmarkPublish is a metadata-only dcdbconfig publish: Open, publish
// one sensor's properties, Save.
func BenchmarkPublish(b *testing.B) {
	dir := b.TempDir()
	sh := benchShapes[0]
	topics := writeAgentDir(b, dir, sh.sensors, sh.perSensor, sh.batch)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		conn, db, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := conn.PublishSensor(core.Metadata{Topic: topics[it%len(topics)], Unit: "W", Scale: 1}); err != nil {
			b.Fatal(err)
		}
		if err := Save(conn, db, dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensorRead is a tool's read of one sensor of 70 016
// readings through Open (read_ms), beside the same read from the
// agent's store opened alone (store_ms).
func BenchmarkSensorRead(b *testing.B) {
	dir := b.TempDir()
	const perSensor = 70016
	topics := writeAgentDir(b, dir, 4, perSensor, 64)
	conn, db, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	id, _ := conn.Mapper().Lookup(topics[0])
	n := store.NewNode(0)
	if err := n.OpenOptions(filepath.Join(dir, "node0"), toolReadOptions); err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	var readNs, storeNs float64
	for it := 0; it < b.N; it++ {
		start := time.Now()
		if rs, err := conn.Query(topics[0], math.MinInt64, math.MaxInt64); err != nil || len(rs) != perSensor {
			b.Fatalf("tool read: %d readings (%v), want %d", len(rs), err, perSensor)
		}
		readNs += float64(time.Since(start))
		start = time.Now()
		if rs, err := n.Query(id, math.MinInt64, math.MaxInt64); err != nil || len(rs) != perSensor {
			b.Fatalf("store read: %d readings (%v), want %d", len(rs), err, perSensor)
		}
		storeNs += float64(time.Since(start))
	}
	b.ReportMetric(readNs/float64(b.N)/1e6, "read_ms")
	b.ReportMetric(storeNs/float64(b.N)/1e6, "store_ms")
}
