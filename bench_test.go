// Package main_test holds the benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (run the
// drivers and validate/print their shape), plus microbenchmarks of the
// real implementation's hot paths (MQTT codec, store ingest, collect
// agent pipeline, virtual sensor evaluation) that ground the
// calibrated models in measurements on this machine.
//
// Run with:
//
//	go test -bench=. -benchmem
package main_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dcdb/internal/bench"
	"dcdb/internal/cache"
	"dcdb/internal/collectagent"
	"dcdb/internal/config"
	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/libdcdb"
	"dcdb/internal/mqtt"
	"dcdb/internal/plugins/tester"
	"dcdb/internal/pusher"
	"dcdb/internal/rpc"
	"dcdb/internal/sim/arch"
	"dcdb/internal/store"
	"dcdb/internal/vsensor"
)

// BenchmarkTable1 regenerates Table 1 (production configurations and
// HPL overhead per system).
func BenchmarkTable1(b *testing.B) {
	var rows []bench.Table1Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table1()
	}
	b.StopTimer()
	bench.RenderTable1(io.Discard, rows)
	if len(rows) != 3 {
		b.Fatal("table 1 incomplete")
	}
	b.ReportMetric(rows[0].OverheadPct, "sng-overhead-%")
	b.ReportMetric(rows[2].OverheadPct, "knl-overhead-%")
}

// BenchmarkFig4 regenerates Figure 4 (CORAL-2 overhead, weak scaling).
func BenchmarkFig4(b *testing.B) {
	var pts []bench.Fig4Point
	for i := 0; i < b.N; i++ {
		pts = bench.Fig4()
	}
	b.StopTimer()
	var amg1024 float64
	for _, p := range pts {
		if p.App == "amg" && p.Nodes == 1024 && !p.Core {
			amg1024 = p.OverheadPct
		}
	}
	b.ReportMetric(amg1024, "amg@1024-%")
}

// BenchmarkFig5 regenerates the three overhead heatmaps of Figure 5.
func BenchmarkFig5(b *testing.B) {
	for _, m := range arch.All {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			var cells []bench.Fig5Cell
			for i := 0; i < b.N; i++ {
				cells = bench.Fig5(m)
			}
			b.StopTimer()
			var worst float64
			for _, c := range cells {
				if c.OverheadPct > worst {
					worst = c.OverheadPct
				}
			}
			b.ReportMetric(worst, "worst-cell-%")
		})
	}
}

// BenchmarkFig6 regenerates Figure 6 (Pusher CPU load and memory).
func BenchmarkFig6(b *testing.B) {
	var cells []bench.Fig6Cell
	for i := 0; i < b.N; i++ {
		cells = bench.Fig6()
	}
	b.StopTimer()
	var peakMem float64
	for _, c := range cells {
		if c.MemoryMB > peakMem {
			peakMem = c.MemoryMB
		}
	}
	b.ReportMetric(peakMem, "peak-mem-MB")
}

// BenchmarkFig7 regenerates Figure 7 (CPU load scaling + Equation 1).
func BenchmarkFig7(b *testing.B) {
	var series []bench.Fig7Series
	for i := 0; i < b.N; i++ {
		series = bench.Fig7()
	}
	b.StopTimer()
	for _, s := range series {
		if s.Fit.R2 < 0.999 {
			b.Fatalf("%s: scaling not linear (R2=%v)", s.Arch, s.Fit.R2)
		}
	}
	b.ReportMetric(series[0].PeakAt, "skylake-peak-%")
}

// BenchmarkFig8 regenerates Figure 8 (Collect Agent CPU load model).
func BenchmarkFig8(b *testing.B) {
	var cells []bench.Fig8Cell
	for i := 0; i < b.N; i++ {
		cells = bench.Fig8()
	}
	b.StopTimer()
	var worst float64
	for _, c := range cells {
		if c.CPULoadPct > worst {
			worst = c.CPULoadPct
		}
	}
	b.ReportMetric(worst, "worst-load-%")
}

// BenchmarkFig8Measured measures the real Collect Agent ingest path on
// this machine (decode → SID translation → store → cache), the
// measured counterpart of Figure 8's model.
func BenchmarkFig8Measured(b *testing.B) {
	backend := store.NewNode(0)
	agent := collectagent.New(backend, nil, collectagent.Options{Quiet: true})
	payload := core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 1}})
	topics := make([]string, 64)
	for i := range topics {
		topics[i] = fmt.Sprintf("/bench/h%02d/s%02d/v", i/8, i%8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Handle(topics[i%len(topics)], payload)
	}
}

// BenchmarkFig9 regenerates the heat-removal case study (Figure 9).
func BenchmarkFig9(b *testing.B) {
	var res *bench.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = bench.Fig9(24, 5*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.MeanEfficiency*100, "efficiency-%")
}

// BenchmarkFig10 regenerates the application characterization
// (Figure 10).
func BenchmarkFig10(b *testing.B) {
	var results []bench.Fig10Result
	for i := 0; i < b.N; i++ {
		results = bench.Fig10(120)
	}
	b.StopTimer()
	for _, r := range results {
		if r.App == "kripke" {
			b.ReportMetric(r.Mean, "kripke-mean-1e5ipw")
		}
	}
}

// BenchmarkAblationBurst compares burst vs continuous forwarding
// (DESIGN.md ablation; paper §6.2.1 discussion around AMG).
func BenchmarkAblationBurst(b *testing.B) {
	var a bench.BurstAblation
	for i := 0; i < b.N; i++ {
		a = bench.RunBurstAblation(1000, 30)
	}
	b.StopTimer()
	b.ReportMetric(float64(a.ContinuousMessages)/float64(a.BurstMessages), "msg-reduction-x")
}

// BenchmarkAblationPartitioner compares ring placement keyed on the
// subtree prefix vs the full SID on subtree queries (paper §4.3).
func BenchmarkAblationPartitioner(b *testing.B) {
	var a bench.PartitionerAblation
	var err error
	for i := 0; i < b.N; i++ {
		a, err = bench.RunPartitionerAblation(4, 8, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(a.Rows[1].NodesPerQuery/a.Rows[0].NodesPerQuery, "fanout-reduction-x")
}

// BenchmarkAblationGrouping compares grouped vs per-sensor sampling.
func BenchmarkAblationGrouping(b *testing.B) {
	var a bench.GroupingAblation
	for i := 0; i < b.N; i++ {
		a = bench.RunGroupingAblation(1000, 50, 10)
	}
	b.StopTimer()
	b.ReportMetric(float64(a.PerSensorReads)/float64(a.GroupedReads), "read-reduction-x")
}

// --- Microbenchmarks of the real implementation's hot paths ---

// BenchmarkMQTTEncodeDecode measures the wire codec roundtrip for a
// single-reading PUBLISH.
func BenchmarkMQTTEncodeDecode(b *testing.B) {
	p := &mqtt.Packet{Type: mqtt.PUBLISH, Topic: "/lrz/sys/rack/node/cpu/metric",
		Payload: core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 2}})}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := mqtt.WritePacket(&buf, p); err != nil {
			b.Fatal(err)
		}
		if _, err := mqtt.ReadPacket(bufio.NewReader(&buf)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreInsert measures raw wide-column store ingest.
func BenchmarkStoreInsert(b *testing.B) {
	n := store.NewNode(0)
	id := core.SensorID{Hi: 42, Lo: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.InsertBatch(id, []core.Reading{{Timestamp: int64(i), Value: 1}}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreInsertBatch measures batched ingest (burst payloads).
func BenchmarkStoreInsertBatch(b *testing.B) {
	n := store.NewNode(0)
	id := core.SensorID{Hi: 42, Lo: 7}
	batch := make([]core.Reading, 64)
	for i := range batch {
		batch[i] = core.Reading{Timestamp: int64(i), Value: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.InsertBatch(id, batch, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(batch) * 16))
}

// BenchmarkStoreInsertParallel measures store ingest under concurrent
// writers hitting distinct sensors, the Collect Agent's steady-state
// load shape (many Pushers, disjoint sensor sets). With the global
// memtable lock this collapses to single-core speed; the sharded
// memtable should scale with GOMAXPROCS.
func BenchmarkStoreInsertParallel(b *testing.B) {
	n := store.NewNode(0)
	var worker int64
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&worker, 1)
		id := core.SensorID{Hi: uint64(w) << 32, Lo: uint64(w)}
		ts := int64(0)
		for pb.Next() {
			ts++
			if err := n.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: 1}}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreInsertBatchParallel is the batched variant (burst
// payloads from many Pushers at once).
func BenchmarkStoreInsertBatchParallel(b *testing.B) {
	n := store.NewNode(0)
	var worker int64
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&worker, 1)
		id := core.SensorID{Hi: uint64(w) << 32, Lo: uint64(w)}
		batch := make([]core.Reading, 64)
		ts := int64(0)
		for pb.Next() {
			for i := range batch {
				ts++
				batch[i] = core.Reading{Timestamp: ts, Value: 1}
			}
			if err := n.InsertBatch(id, batch, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.SetBytes(64 * 16)
}

// BenchmarkStoreQueryParallel measures concurrent range reads mixed
// across sensors (dashboards polling while ingest is quiescent).
func BenchmarkStoreQueryParallel(b *testing.B) {
	n := store.NewNode(1 << 12)
	const sensors = 16
	for s := 0; s < sensors; s++ {
		id := core.SensorID{Hi: uint64(s), Lo: 1}
		for i := int64(0); i < 20000; i++ {
			n.InsertBatch(id, []core.Reading{{Timestamp: i, Value: float64(i)}}, 0)
		}
	}
	var worker int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&worker, 1)
		id := core.SensorID{Hi: uint64(w) % sensors, Lo: 1}
		for pb.Next() {
			rs, err := n.Query(id, 5000, 6000)
			if err != nil || len(rs) != 1001 {
				b.Fatalf("query: %d, %v", len(rs), err)
			}
		}
	})
}

// BenchmarkAgentIngestParallel measures the full Collect Agent ingest
// path (decode → topic→SID → store → cache) under concurrent
// publishers, the measured counterpart of Figure 8 at high fan-in.
func BenchmarkAgentIngestParallel(b *testing.B) {
	backend := store.NewNode(0)
	agent := collectagent.New(backend, nil, collectagent.Options{Quiet: true})
	payload := core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 1}})
	topics := make([]string, 256)
	for i := range topics {
		topics[i] = fmt.Sprintf("/bench/h%02d/s%02d/v", i/16, i%16)
	}
	// Pre-warm the mapper so the benchmark exercises the steady-state
	// (known-topic) path, not first-sight code assignment.
	for _, tp := range topics {
		agent.Handle(tp, payload)
	}
	var worker int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(atomic.AddInt64(&worker, 1))
		i := w * 31
		for pb.Next() {
			agent.Handle(topics[i%len(topics)], payload)
			i++
		}
	})
}

// BenchmarkTopicMapParallel measures topic→SID translation under
// concurrent lookups of known topics — the Collect Agent's per-message
// bookkeeping once the sensor population has been seen.
func BenchmarkTopicMapParallel(b *testing.B) {
	m := core.NewTopicMapper()
	topics := make([]string, 512)
	for i := range topics {
		topics[i] = fmt.Sprintf("/lrz/sys/r%02d/c%d/n%02d/cpu%02d/instr", i%16, i%4, i%32, i%48)
	}
	for _, tp := range topics {
		if _, err := m.Map(tp); err != nil {
			b.Fatal(err)
		}
	}
	var worker int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(atomic.AddInt64(&worker, 1))
		i := w * 17
		for pb.Next() {
			if _, err := m.Map(topics[i%len(topics)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkCacheStoreParallel measures the Pusher/Agent sensor cache
// under concurrent stores to distinct topics.
func BenchmarkCacheStoreParallel(b *testing.B) {
	c := cache.New(time.Minute)
	var worker int64
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&worker, 1)
		topic := fmt.Sprintf("/bench/cache/t%d", w)
		ts := int64(0)
		for pb.Next() {
			ts++
			c.Store(topic, core.Reading{Timestamp: ts, Value: 1})
		}
	})
}

// BenchmarkClusterInsertReplicated measures replicated cluster writes
// (replication 3), where replica fan-out dominates.
func BenchmarkClusterInsertReplicated(b *testing.B) {
	nodes := []*store.Node{store.NewNode(0), store.NewNode(0), store.NewNode(0)}
	c, err := store.NewCluster(nodes, store.RingPartitioner{}, 3)
	if err != nil {
		b.Fatal(err)
	}
	var worker int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&worker, 1)
		id := core.SensorID{Hi: uint64(w) << 32, Lo: uint64(w)}
		batch := make([]core.Reading, 64)
		ts := int64(0)
		for pb.Next() {
			for i := range batch {
				ts++
				batch[i] = core.Reading{Timestamp: ts, Value: 1}
			}
			if err := c.InsertBatch(id, batch, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.SetBytes(64 * 16)
}

// --- Durable-ingest benchmarks (WAL modes) ---

// BenchmarkDurableInsertSyncEvery measures sync-every ingest (every
// insert fsynced before it returns) with one writer — the per-fsync
// floor of the strictest durability mode.
func BenchmarkDurableInsertSyncEvery(b *testing.B) {
	n := store.NewNode(0)
	if err := n.OpenOptions(b.TempDir(), store.DiskOptions{SyncInterval: 0}); err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	id := core.SensorID{Hi: 42, Lo: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.InsertBatch(id, []core.Reading{{Timestamp: int64(i), Value: 1}}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableInsertSyncEveryParallel measures sync-every ingest
// under concurrent writers. WAL group commit batches the writers into
// one leader-elected fsync, so throughput should rise with writer
// count instead of serialising one fsync per insert under the shard
// lock.
func BenchmarkDurableInsertSyncEveryParallel(b *testing.B) {
	n := store.NewNode(0)
	if err := n.OpenOptions(b.TempDir(), store.DiskOptions{SyncInterval: 0}); err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// All workers share one sensor (one shard) so the group commit
		// — not mere shard striping — is what's measured.
		id := core.SensorID{Hi: 42, Lo: 7}
		ts := int64(0)
		for pb.Next() {
			ts++
			if err := n.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: 1}}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDurableInsertBatchedWAL measures ingest with fsyncs batched
// at a 50ms cadence (the agent default): the WAL append is on the hot
// path, the fsync is not.
func BenchmarkDurableInsertBatchedWAL(b *testing.B) {
	n := store.NewNode(0)
	if err := n.OpenOptions(b.TempDir(), store.DiskOptions{SyncInterval: 50 * time.Millisecond}); err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	var worker int64
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&worker, 1)
		id := core.SensorID{Hi: uint64(w) << 32, Lo: uint64(w)}
		ts := int64(0)
		for pb.Next() {
			ts++
			if err := n.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: 1}}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWriteFrameSyncEvery measures one sync-every write frame of
// one reading per sensor, each sensor in a different memtable shard, on
// a durable node: the frame is one WAL record and one fsync, so its time
// should not grow with the number of shards it touches.
func BenchmarkWriteFrameSyncEvery(b *testing.B) {
	for _, k := range []int{1, 3, 11, 16} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			ids := distinctShardSensors()[:k]
			n := store.NewNode(0)
			if err := n.OpenOptions(b.TempDir(), store.DiskOptions{SyncInterval: 0}); err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			rs := make([]core.Reading, k)
			frame := make([]store.WriteEntry, k)
			for i := range frame {
				frame[i] = store.WriteEntry{ID: ids[i], Readings: rs[i : i+1]}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range rs {
					rs[j] = core.Reading{Timestamp: int64(i), Value: 1}
				}
				if err := n.WriteFrame(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpillSkewed measures flushes under skewed traffic on a
// durable node: a frame is 15 readings of one hot sensor and one reading
// of a cold one, the cold sensors taking turns over the other 15 shards.
// Besides the time per frame it reports the run files written and the
// time spent spilling them per 1000 frames. MaxRuns keeps merges out of
// reach, so the files on disk are the ones the spills wrote and every
// figure is the spills' alone.
func BenchmarkSpillSkewed(b *testing.B) {
	ids := distinctShardSensors()
	dir := b.TempDir()
	n := store.NewNode(16 * 1024)
	if err := n.OpenOptions(dir, store.DiskOptions{SyncInterval: time.Second, MaxRuns: 1 << 30}); err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	hot, cold := make([]core.Reading, 15), make([]core.Reading, 1)
	frame := []store.WriteEntry{{ID: ids[0], Readings: hot}, {Readings: cold}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range hot {
			hot[j] = core.Reading{Timestamp: int64(i*len(hot) + j), Value: 1}
		}
		cold[0] = core.Reading{Timestamp: int64(i), Value: 1}
		frame[1].ID = ids[1+i%15]
		if err := n.WriteFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
	if err := n.Close(); err != nil { // spills every memtable
		b.Fatal(err)
	}
	b.StopTimer()
	files, _ := filepath.Glob(filepath.Join(dir, "run-*.sst"))
	samples, err := n.MetricsSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	perK := 1000 / float64(b.N)
	for _, s := range samples {
		if s.Name == "dcdb_store_spill_duration_seconds" {
			b.ReportMetric(float64(s.Hist.Sum)/1e3*perK, "spill-µs/kframe")
		}
	}
	b.ReportMetric(float64(len(files))*perK, "files/kframe")
}

// distinctShardSensors returns one sensor for each of a node's 16
// memtable shards. The shards are the store's own business and leave
// no trace on disk, so this is the store's stripe selector
// (store.shardIndex), restated.
func distinctShardSensors() []core.SensorID {
	var ids []core.SensorID
	seen := map[uint64]bool{}
	for lo := uint64(0); len(ids) < 16; lo++ {
		id := core.SensorID{Hi: 48, Lo: lo}
		h := id.Lo*0x9e3779b97f4a7c15 ^ id.Hi
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		if shard := h & 15; !seen[shard] {
			seen[shard] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// --- RPC-path benchmarks (loopback TCP vs in-process) ---

// rpcPair serves a memory node over loopback and returns a client.
func rpcPair(b *testing.B) (*store.Node, *rpc.Client) {
	b.Helper()
	n := store.NewNode(0)
	srv := rpc.NewServer(n, true)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	cl := rpc.NewClient(srv.Addr(), rpc.ClientOptions{})
	b.Cleanup(func() { cl.Close() })
	return n, cl
}

// BenchmarkRPCInsertLoopback measures one remote insert round trip —
// the per-reading cost a Collect Agent pays to reach a dcdbnode
// process, against BenchmarkStoreInsert's in-process baseline.
func BenchmarkRPCInsertLoopback(b *testing.B) {
	_, cl := rpcPair(b)
	id := core.SensorID{Hi: 42, Lo: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.InsertBatch(id, []core.Reading{{Timestamp: int64(i), Value: 1}}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCInsertLoopbackParallel measures pipelined remote inserts
// from concurrent writers sharing the pooled connections.
func BenchmarkRPCInsertLoopbackParallel(b *testing.B) {
	_, cl := rpcPair(b)
	var worker int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&worker, 1)
		id := core.SensorID{Hi: uint64(w) << 32, Lo: uint64(w)}
		ts := int64(0)
		for pb.Next() {
			ts++
			if err := cl.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: 1}}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRPCInsertBatchLoopback measures a 64-reading batch per round
// trip (burst payloads amortise the network frame).
func BenchmarkRPCInsertBatchLoopback(b *testing.B) {
	_, cl := rpcPair(b)
	id := core.SensorID{Hi: 42, Lo: 7}
	batch := make([]core.Reading, 64)
	ts := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			ts++
			batch[j] = core.Reading{Timestamp: ts, Value: 1}
		}
		if err := cl.InsertBatch(id, batch, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(64 * 16)
}

// BenchmarkRPCQueryLoopback measures a 1001-reading range read over
// RPC, against BenchmarkStoreQuery's in-process baseline.
func BenchmarkRPCQueryLoopback(b *testing.B) {
	n, cl := rpcPair(b)
	id := core.SensorID{Hi: 1, Lo: 1}
	for i := int64(0); i < 20000; i++ {
		n.InsertBatch(id, []core.Reading{{Timestamp: i, Value: float64(i)}}, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := cl.Query(id, 5000, 6000)
		if err != nil || len(rs) != 1001 {
			b.Fatalf("query: %d, %v", len(rs), err)
		}
	}
}

// BenchmarkClusterInsertRPCReplicated measures replicated cluster
// writes where every replica is behind loopback RPC — the remote
// counterpart of BenchmarkClusterInsertReplicated.
func BenchmarkClusterInsertRPCReplicated(b *testing.B) {
	var backends []store.NodeBackend
	for i := 0; i < 3; i++ {
		_, cl := rpcPair(b)
		backends = append(backends, cl)
	}
	c, err := store.NewClusterOptions(backends, store.ClusterOptions{Replication: 3})
	if err != nil {
		b.Fatal(err)
	}
	var worker int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&worker, 1)
		id := core.SensorID{Hi: uint64(w) << 32, Lo: uint64(w)}
		batch := make([]core.Reading, 64)
		ts := int64(0)
		for pb.Next() {
			for i := range batch {
				ts++
				batch[i] = core.Reading{Timestamp: ts, Value: 1}
			}
			if err := c.InsertBatch(id, batch, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.SetBytes(64 * 16)
}

// --- bounded-memory engine benchmarks (cold reads, streaming RPC,
// cold compaction) ---

// coldBenchNode builds a durable node with a small block cache and
// total readings spilled to cold v2 run files, so queries decode
// blocks from disk through the cache.
func coldBenchNode(b *testing.B, total int, cacheBytes int64) (*store.Node, core.SensorID) {
	b.Helper()
	n := store.NewNode(0)
	o := store.DiskOptions{SyncInterval: -1, CacheBytes: cacheBytes}
	if err := n.OpenOptions(b.TempDir(), o); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })
	id := core.SensorID{Hi: 6, Lo: 6}
	batch := make([]core.Reading, 1000)
	for base := 0; base < total; base += len(batch) {
		for i := range batch {
			batch[i] = core.Reading{Timestamp: int64(base + i), Value: float64((base + i) % 977)}
		}
		if err := n.InsertBatch(id, batch, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := n.Flush(); err != nil {
		b.Fatal(err)
	}
	n.Compact() // waits for spills, merges into one cold v2 file
	return n, id
}

// BenchmarkQueryCold measures a 1001-reading range read served from
// evicted (cold) run data: per-series block-index rejection, block
// reads + CRC + decode through the cache. The cache is deliberately
// smaller than the working set so misses dominate — the worst case
// eviction can inflict — to be compared with BenchmarkStoreQuery's
// fully-resident baseline.
func BenchmarkQueryCold(b *testing.B) {
	n, id := coldBenchNode(b, 200_000, 64<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := int64(i*4093) % 199_000
		rs, err := n.Query(id, from, from+1000)
		if err != nil || len(rs) != 1001 {
			b.Fatalf("query: %d, %v", len(rs), err)
		}
	}
}

// BenchmarkQueryColdCacheHit is the same read with a cache large
// enough for the whole working set — the steady state when the hot
// window fits CacheBytes, costing only cache lookups over the
// fully-resident baseline.
func BenchmarkQueryColdCacheHit(b *testing.B) {
	n, id := coldBenchNode(b, 200_000, 16<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := int64(i*4093) % 199_000
		rs, err := n.Query(id, from, from+1000)
		if err != nil || len(rs) != 1001 {
			b.Fatalf("query: %d, %v", len(rs), err)
		}
	}
}

// BenchmarkQueryStreamRPC measures an 8K-reading range read streamed
// over loopback RPC, one chunk a call, from a cold node — the end-to-end
// path a long-retention analytics query takes (cold blocks decode
// server-side, bounded chunks cross the wire, client reassembles).
func BenchmarkQueryStreamRPC(b *testing.B) {
	n, id := coldBenchNode(b, 200_000, 1<<20)
	srv := rpc.NewServer(n, true)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	cl := rpc.NewClient(srv.Addr(), rpc.ClientOptions{})
	b.Cleanup(func() { cl.Close() })
	const span = 2*store.StreamChunkReadings + 100
	b.SetBytes(span * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := int64(i*8191) % 190_000
		st, err := cl.QueryStream(id, from, from+span-1)
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		for {
			rs, err := st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			count += len(rs)
		}
		st.Close()
		if count != span {
			b.Fatalf("stream returned %d readings, want %d", count, span)
		}
	}
}

// BenchmarkSummaryPushdown measures a 200K-reading cold-range summary
// pushed down over loopback RPC: the fold runs next to the data and
// one ~100-byte state crosses the wire — to be compared with
// BenchmarkQueryStreamRPC, which pays 16 bytes per reading for the
// same range.
func BenchmarkSummaryPushdown(b *testing.B) {
	n, id := coldBenchNode(b, 200_000, 1<<20)
	srv := rpc.NewServer(n, true)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	cl := rpc.NewClient(srv.Addr(), rpc.ClientOptions{})
	b.Cleanup(func() { cl.Close() })
	spec := fold.Spec{Op: fold.OpSummary, From: 0, To: 1 << 50}
	b.SetBytes(200_000 * 16) // readings summarised per op, for ops/s comparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := cl.Aggregate(id, spec)
		if err != nil {
			b.Fatal(err)
		}
		if st.Count() != 200_000 {
			b.Fatalf("aggregate count = %d", st.Count())
		}
	}
}

// BenchmarkColdCompactionThroughput measures the streaming merge of
// cold run files: blocks decode one at a time, merge through the
// k-way heap, and re-encode into the output writer — compaction memory
// stays O(blocks) while throughput is reported in bytes of entry data
// per second.
func BenchmarkColdCompactionThroughput(b *testing.B) {
	const total = 200_000
	b.SetBytes(total * 24)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := store.NewNode(1 << 14) // ~1K entries per shard flush: many runs
		o := store.DiskOptions{SyncInterval: -1, CacheBytes: 1 << 20}
		if err := n.OpenOptions(b.TempDir(), o); err != nil {
			b.Fatal(err)
		}
		id := core.SensorID{Hi: 9, Lo: 9}
		batch := make([]core.Reading, 1000)
		for base := 0; base < total; base += len(batch) {
			for j := range batch {
				batch[j] = core.Reading{Timestamp: int64(base + j), Value: float64(base + j)}
			}
			if err := n.InsertBatch(id, batch, 0); err != nil {
				b.Fatal(err)
			}
		}
		if err := n.Flush(); err != nil {
			b.Fatal(err)
		}
		n.Sync()
		b.StartTimer()
		n.Compact()
		b.StopTimer()
		n.Close()
		b.StartTimer()
	}
}

// BenchmarkStoreQuery measures range reads across memtable + SSTables.
func BenchmarkStoreQuery(b *testing.B) {
	n := store.NewNode(1 << 12)
	id := core.SensorID{Hi: 1, Lo: 1}
	for i := int64(0); i < 100000; i++ {
		n.InsertBatch(id, []core.Reading{{Timestamp: i, Value: float64(i)}}, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := n.Query(id, 50000, 51000)
		if err != nil || len(rs) != 1001 {
			b.Fatalf("query: %d, %v", len(rs), err)
		}
	}
}

// BenchmarkTopicMapping measures topic→SID translation, the Collect
// Agent's per-message bookkeeping (paper §4.2).
func BenchmarkTopicMapping(b *testing.B) {
	m := core.NewTopicMapper()
	topics := make([]string, 512)
	for i := range topics {
		topics[i] = fmt.Sprintf("/lrz/sys/r%02d/c%d/n%02d/cpu%02d/instr", i%16, i%4, i%32, i%48)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(topics[i%len(topics)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVirtualSensor measures lazy evaluation of a virtual sensor
// over 1000-point operands with interpolation: the evaluator streams
// the operands from the Connection and the result is drained.
func BenchmarkVirtualSensor(b *testing.B) {
	conn := libdcdb.Connect(store.NewNode(0), nil)
	for _, tp := range []string{"/b/p1", "/b/p2"} {
		var rs []core.Reading
		for i := int64(0); i < 1000; i++ {
			rs = append(rs, core.Reading{Timestamp: i * 1000, Value: float64(i)})
		}
		if err := conn.InsertBatch(tp, rs); err != nil {
			b.Fatal(err)
		}
	}
	expr, err := vsensor.Parse("(</b/p1> + </b/p2>) / 2")
	if err != nil {
		b.Fatal(err)
	}
	src := connAdapter{conn}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := vsensor.EvaluateStream(expr, src, 0, 1000*1000)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := store.Drain(st)
		if err != nil || len(rs) != 1000 {
			b.Fatalf("eval: %d, %v", len(rs), err)
		}
	}
}

type connAdapter struct{ c *libdcdb.Connection }

func (a connAdapter) Stream(topic string, from, to int64) (vsensor.Stream, string, error) {
	st, err := a.c.QueryStream(topic, from, to)
	return st, "", err
}

func (a connAdapter) Expand(prefix string) ([]string, error) {
	return a.c.ListSensors(prefix), nil
}

// BenchmarkPusherSampling measures the full in-process Pusher sampling
// path with the tester plugin: 100 sensors in one group, cache stores
// and dispatch included.
func BenchmarkPusherSampling(b *testing.B) {
	plug := tester.New()
	cfg, _ := config.ParseString("group g { interval 1000 sensors 100 }")
	if err := plug.Configure(cfg); err != nil {
		b.Fatal(err)
	}
	g := plug.Groups()[0]
	h := pusher.NewHost(nil, pusher.Options{Threads: 1})
	defer h.Close()
	cacheBench := h.Cache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Now()
		vals, err := g.Reader.ReadGroup(now)
		if err != nil {
			b.Fatal(err)
		}
		ts := now.UnixNano()
		for j, s := range g.Sensors {
			cacheBench.Store(s.Topic, core.Reading{Timestamp: ts, Value: vals[j]})
		}
	}
	b.SetBytes(int64(len(g.Sensors) * 16))
}

// BenchmarkEndToEndMQTT measures a full QoS-1 publish→broker→store
// round trip over loopback TCP.
func BenchmarkEndToEndMQTT(b *testing.B) {
	backend := store.NewNode(0)
	agent := collectagent.New(backend, nil, collectagent.Options{Quiet: true})
	if err := agent.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer agent.Close()
	client, err := mqtt.Dial(agent.Addr(), mqtt.DialOptions{ClientID: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	payload := core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 2}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Publish("/bench/e2e/sensor", payload, 1); err != nil {
			b.Fatal(err)
		}
	}
}
