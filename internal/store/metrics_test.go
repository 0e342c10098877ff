package store

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/metrics"
)

// findSample returns the gathered sample whose name starts with prefix.
func findSample(t *testing.T, samples []metrics.Sample, prefix string) metrics.Sample {
	t.Helper()
	for _, s := range samples {
		if strings.HasPrefix(s.Name, prefix) {
			return s
		}
	}
	t.Fatalf("no sample with prefix %q in %d samples", prefix, len(samples))
	return metrics.Sample{}
}

// histCount sums histogram observation counts across every series
// whose name starts with prefix (per-shard latency histograms split
// one logical metric over numShards series).
func histCount(t *testing.T, samples []metrics.Sample, prefix string) int64 {
	t.Helper()
	var total int64
	found := false
	for _, s := range samples {
		if strings.HasPrefix(s.Name, prefix) && s.Hist != nil {
			total += s.Hist.Count()
			found = true
		}
	}
	if !found {
		t.Fatalf("no histogram with prefix %q", prefix)
	}
	return total
}

func sampleValue(t *testing.T, samples []metrics.Sample, name string) float64 {
	t.Helper()
	for _, s := range samples {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("no sample named %q", name)
	return 0
}

// TestNodeMetricsExposition drives a durable node through inserts,
// queries, a flush-triggered spill and a block-cache-backed read, then
// checks that the registry's scrape-time mirrors agree with the
// engine's own counters.
func TestNodeMetricsExposition(t *testing.T) {
	n := NewNode(64)
	if err := n.OpenOptions(t.TempDir(), DiskOptions{CacheBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	id := sid(3, 9)
	const inserts = 200
	for i := int64(0); i < inserts; i++ {
		if err := n.InsertBatch(id, []core.Reading{rd(i, float64(i))}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if rs, err := n.Query(id, 0, inserts); err != nil || len(rs) != inserts {
		t.Fatalf("query: %d readings, %v", len(rs), err)
	}

	samples, err := n.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := sampleValue(t, samples, "dcdb_store_inserts_total"); got != inserts {
		t.Errorf("inserts_total = %g, want %d", got, inserts)
	}
	if got := sampleValue(t, samples, "dcdb_store_queries_total"); got != 1 {
		t.Errorf("queries_total = %g, want 1", got)
	}
	if got := sampleValue(t, samples, "dcdb_store_wal_appends_total"); got < inserts {
		t.Errorf("wal_appends_total = %g, want >= %d", got, inserts)
	}
	// The scrape-time entry gauges must agree with the engine's count.
	mem, flushed := n.entryCounts()
	if got := sampleValue(t, samples, "dcdb_store_memtable_entries"); got != float64(mem) {
		t.Errorf("memtable_entries = %g, want %d", got, mem)
	}
	if got := sampleValue(t, samples, "dcdb_store_flushed_entries"); got != float64(flushed) {
		t.Errorf("flushed_entries = %g, want %d", got, flushed)
	}
	if mem+flushed != inserts {
		t.Errorf("entryCounts: %d mem + %d flushed != %d inserted", mem, flushed, inserts)
	}
	if got := sampleValue(t, samples, "dcdb_store_memtable_bytes"); got != float64(mem*entrySize) {
		t.Errorf("memtable_bytes = %g, want %d", got, mem*entrySize)
	}
	// The block cache registered its scrape-time counters.
	findSample(t, samples, "dcdb_store_cache_hits_total")
	findSample(t, samples, "dcdb_store_cache_used_bytes")
	// Insert latency sampled (200 inserts to one shard cross several
	// 64-record boundaries); query latency sampled from the first call.
	if histCount(t, samples, "dcdb_store_insert_latency_seconds") == 0 {
		t.Error("insert latency histogram never sampled")
	}
	if histCount(t, samples, "dcdb_store_query_latency_seconds") == 0 {
		t.Error("query latency histogram never sampled")
	}
	if n.Metrics() == nil {
		t.Fatal("Metrics() registry is nil")
	}
}

// TestSetInstrumentationStopsSampling flips the kill switch and checks
// that latency sampling stops (counters keep counting — they are the
// engine's own).
func TestSetInstrumentationStopsSampling(t *testing.T) {
	defer SetInstrumentation(true)
	n := NewNode(0)
	id := sid(5, 5)

	SetInstrumentation(false)
	for i := int64(0); i < 300; i++ {
		if err := n.InsertBatch(id, []core.Reading{rd(i, 1)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Query(id, 0, 10); err != nil {
		t.Fatal(err)
	}
	samples, _ := n.MetricsSnapshot()
	if got := histCount(t, samples, "dcdb_store_insert_latency_seconds"); got != 0 {
		t.Errorf("insert latency sampled %d times with instrumentation off", got)
	}
	if got := histCount(t, samples, "dcdb_store_query_latency_seconds"); got != 0 {
		t.Errorf("query latency sampled %d times with instrumentation off", got)
	}
	if got := sampleValue(t, samples, "dcdb_store_inserts_total"); got != 300 {
		t.Errorf("inserts_total = %g with instrumentation off, want 300", got)
	}

	SetInstrumentation(true)
	for i := int64(300); i < 600; i++ {
		if err := n.InsertBatch(id, []core.Reading{rd(i, 1)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	samples, _ = n.MetricsSnapshot()
	if histCount(t, samples, "dcdb_store_insert_latency_seconds") == 0 {
		t.Error("insert latency sampling never resumed")
	}
}

// TestClusterMetricsOutcomes checks the coordinator counters across
// consistency successes and failures, and the ClusterStats fan-out.
func TestClusterMetricsOutcomes(t *testing.T) {
	c, nodes := threeNodeCluster(t, 2, ClusterOptions{
		WriteConsistency: ConsistencyQuorum,
		ReadConsistency:  ConsistencyQuorum,
	})
	id := sid(11, 4)
	if err := c.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(id, 0, 10); err != nil {
		t.Fatal(err)
	}

	reps := c.replicasFor(id)
	nodes[reps[1]].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{rd(2, 2)}, 0); err == nil {
		t.Fatal("QUORUM write with a down replica succeeded")
	}
	if _, err := c.Query(id, 0, 10); err == nil {
		t.Fatal("QUORUM read with a down replica succeeded")
	}
	nodes[reps[1]].SetDown(false)

	samples := c.Metrics().Gather()
	if got := sampleValue(t, samples, `dcdb_cluster_writes_total{outcome="ok"}`); got != 1 {
		t.Errorf(`writes_total{outcome="ok"} = %g, want 1`, got)
	}
	if got := sampleValue(t, samples, `dcdb_cluster_writes_total{outcome="failed"}`); got != 1 {
		t.Errorf(`writes_total{outcome="failed"} = %g, want 1`, got)
	}
	if got := sampleValue(t, samples, `dcdb_cluster_reads_total{outcome="ok"}`); got != 1 {
		t.Errorf(`reads_total{outcome="ok"} = %g, want 1`, got)
	}
	if got := sampleValue(t, samples, `dcdb_cluster_reads_total{outcome="failed"}`); got != 1 {
		t.Errorf(`reads_total{outcome="failed"} = %g, want 1`, got)
	}
	sampleValue(t, samples, "dcdb_cluster_hints_queued_total")
	sampleValue(t, samples, "dcdb_cluster_hints_pending_nodes")

	stats := c.ClusterStats()
	if len(stats) != 3 {
		t.Fatalf("ClusterStats returned %d entries, want 3", len(stats))
	}
	var totalInserts int64
	for _, ns := range stats {
		if ns.Err != nil {
			t.Errorf("node %d: %v", ns.Index, ns.Err)
		}
		if ns.Addr != "" {
			t.Errorf("node %d: in-process backend reports addr %q", ns.Index, ns.Addr)
		}
		if len(ns.Samples) == 0 {
			t.Errorf("node %d: empty metrics snapshot", ns.Index)
		}
		totalInserts += ns.Inserts
	}
	// One QUORUM-acknowledged insert on 2 replicas; the failed write
	// may have landed on the live replica before the quorum miss.
	if totalInserts < 2 {
		t.Errorf("ClusterStats inserts total %d, want >= 2", totalInserts)
	}
}

// readOutcomes reads the coordinator's read counters.
func readOutcomes(t *testing.T, c *Cluster) (ok, failed float64) {
	t.Helper()
	samples := c.Metrics().Gather()
	return sampleValue(t, samples, `dcdb_cluster_reads_total{outcome="ok"}`),
		sampleValue(t, samples, `dcdb_cluster_reads_total{outcome="failed"}`)
}

// TestReadMetricsParity: a streamed read and a materialised one are
// observed by the same code, so each moves the node's query counter and
// latency histogram and the coordinator's read outcomes by the same
// amount; a stream that fails mid-way is a failed read, and one the
// caller closes early is neither.
func TestReadMetricsParity(t *testing.T) {
	id := sid(6, 6)
	streamed := func(b Backend) error {
		st, err := b.QueryStream(id, 0, 1<<60)
		if err != nil {
			return err
		}
		_, err = Drain(st)
		return err
	}
	materialised := func(b Backend) error {
		_, err := b.Query(id, 0, 1<<60)
		return err
	}
	prefix := func(b Backend) error {
		_, err := drainPrefix(b.QueryPrefixStream(core.SensorID{}, 0, 0, 1<<60))
		return err
	}

	// Node: querySampleEvery reads of either form are one latency sample.
	n := NewNode(0)
	if err := n.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	nodeCounts := func() (queries float64, sampled int64) {
		samples, _ := n.MetricsSnapshot()
		return sampleValue(t, samples, "dcdb_store_queries_total"), histCount(t, samples, "dcdb_store_query_latency_seconds")
	}
	for _, read := range []func(Backend) error{materialised, streamed} {
		q0, h0 := nodeCounts()
		for i := 0; i < querySampleEvery; i++ {
			if err := read(n); err != nil {
				t.Fatal(err)
			}
		}
		if q, h := nodeCounts(); q-q0 != querySampleEvery || h-h0 != 1 {
			t.Fatalf("%d reads moved queries_total by %g and the latency histogram by %d, want %d and 1",
				querySampleEvery, q-q0, h-h0, querySampleEvery)
		}
	}

	// Coordinator, at both consistency levels, single-sensor and prefix.
	for _, cl := range []Consistency{ConsistencyOne, ConsistencyQuorum} {
		c, nodes := threeNodeCluster(t, 2, ClusterOptions{ReadConsistency: cl})
		defer c.Close()
		if err := c.InsertBatch(id, []core.Reading{rd(1, 1)}, 0); err != nil {
			t.Fatal(err)
		}
		for i, read := range []func(Backend) error{materialised, streamed, prefix} {
			ok0, failed0 := readOutcomes(t, c)
			if err := read(c); err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				n.SetDown(true)
			}
			if err := read(c); err == nil {
				t.Fatalf("%s read form %d succeeded with every node down", cl, i)
			}
			for _, n := range nodes {
				n.SetDown(false)
			}
			if ok, failed := readOutcomes(t, c); ok-ok0 != 1 || failed-failed0 != 1 {
				t.Fatalf("%s read form %d: one good and one failed read moved ok by %g and failed by %g", cl, i, ok-ok0, failed-failed0)
			}
		}
	}

	// Mid-stream failure and early close, on a stream of several chunks
	// riding a single replica that dies after its first chunk.
	flaky := &flakyStreamBackend{Node: NewNode(0), failAfter: 1}
	c, err := NewClusterOptions([]NodeBackend{flaky}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for ts := int64(0); ts < 3*StreamChunkReadings; ts += 1024 {
		batch := make([]core.Reading, 1024)
		for i := range batch {
			batch[i] = rd(ts+int64(i), 1)
		}
		if err := c.InsertBatch(id, batch, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := streamed(c); err == nil {
		t.Fatal("the scripted mid-stream failure did not surface")
	}
	if ok, failed := readOutcomes(t, c); ok != 0 || failed != 1 {
		t.Fatalf("a stream that failed mid-way counted ok=%g failed=%g, want 0 and 1", ok, failed)
	}
	flaky.reopenOK = true // later opens are healthy
	st, err := c.QueryStream(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if ok, failed := readOutcomes(t, c); ok != 0 || failed != 1 {
		t.Fatalf("a stream closed early counted ok=%g failed=%g, want it to count as neither", ok, failed)
	}
}

// TestWALMetricsGroupCommit checks the WAL counters on a durable node
// with batched fsyncs.
func TestWALMetricsGroupCommit(t *testing.T) {
	n := NewNode(0)
	if err := n.OpenOptions(t.TempDir(), DiskOptions{SyncInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	id := sid(8, 8)
	batch := make([]core.Reading, 32)
	for i := range batch {
		batch[i] = rd(int64(i), 1)
	}
	if err := n.InsertBatch(id, batch, 0); err != nil {
		t.Fatal(err)
	}
	// The group-commit fsync runs on the sync interval; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		samples, _ := n.MetricsSnapshot()
		appends := sampleValue(t, samples, "dcdb_store_wal_appends_total")
		fsyncs := sampleValue(t, samples, "dcdb_store_wal_fsyncs_total")
		hist := findSample(t, samples, "dcdb_store_wal_group_commit_records")
		if appends >= 1 && fsyncs >= 1 && hist.Hist != nil && hist.Hist.Count() > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("WAL metrics never settled: appends=%g fsyncs=%g", appends, fsyncs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunBytesMetrics spills a known shape — one integer counter,
// forwarded eight readings a call, of a full and a short block, one
// fractional gauge of a handful of readings stamped off the tick, one
// integer sensor of as many written a round apart on the tick — and
// requires the where-the-bytes-go counters to have moved by exactly the
// section lengths of the blocks the run file holds, its index, and the
// codings those blocks chose; a compaction then counts the rewritten
// bytes again.
func TestRunBytesMetrics(t *testing.T) {
	dir := t.TempDir()
	n := openedNode(t, dir, 1<<30, DiskOptions{SyncInterval: -1})
	defer n.Close()
	ids := goldenShardIDs(3) // of one shard: one run file
	counter, gauge, clocked := ids[0], ids[1], ids[2]
	const t0, v0 = int64(1_560_000_000_000_000_000), uint64(1_700_000_000_000_000_000)
	for i := 0; i < blockEntries+88; i += 8 {
		vrs := make([]VersionedReading, 8)
		for j := range vrs {
			k := int64(i + j)
			vrs[j] = VersionedReading{Timestamp: t0 + k*1_000_000_000 + k*k%977, Value: float64(5000 + 13*k + k*k%7), Version: v0 + uint64(i)}
		}
		if err := n.InsertVersioned(counter, vrs); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 5; i++ {
		vr := VersionedReading{Timestamp: t0 + i*999_999_937, Value: 20.25 + float64(i%3)*0.5, Version: v0 + uint64(i)*31}
		if err := n.InsertVersioned(gauge, []VersionedReading{vr}); err != nil {
			t.Fatal(err)
		}
		vr = VersionedReading{Timestamp: t0 + i*1_000_000_000, Value: float64(1_000_003 + 1977*i + i*i*7%31), Version: v0 + uint64(i)*2_900_000_000 + uint64(i*i)*versionTick}
		if err := n.InsertVersioned(clocked, []VersionedReading{vr}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	n.sp.waitIdle()

	files, err := scanRunFiles(dir, false)
	if err != nil || len(files) != 1 {
		t.Fatalf("spilled files: %+v, %v", files, err)
	}
	data, err := os.ReadFile(files[0].path)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := decodeRunFile(data)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := readRunIndexFile(files[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode what the file holds, block by block, for the lengths.
	var want runBytes
	for _, se := range idx.series {
		es := rc.series[se.id]
		for _, m := range se.blocks {
			enc, sz := encodeBlock(nil, es[:m.count], idx.base)
			if string(enc) != string(data[m.off:m.off+uint64(m.length)]) {
				t.Fatalf("block at %d is not the encoding of its entries", m.off)
			}
			want.count(enc[0], sz)
			es = es[m.count:]
		}
	}
	want.index = len(data) - int(idx.dataLen) - runFooterLen
	// The counter's full block, the file's first, fixes the timestamp
	// width and packs its residuals from the line at it; its short block
	// frames them; both frame their values' deltas. The five-reading
	// series code their timestamps against the line as varints — their
	// jitter is wider than the counter's — the gauge its values as XOR,
	// the clocked sensor its values against their line too.
	if want.blocks[codingWidth][codingFrame] != 1 || want.blocks[codingLineFrame][codingFrame] != 1 ||
		want.blocks[codingLine][codingFirst] != 1 || want.blocks[codingLine][codingLine] != 1 {
		t.Fatalf("block codings %v: want the counter's width/int and line frame/int, the gauge's line/XOR and the clocked sensor's line/line", want.blocks)
	}
	if want.stamped != [4]int{1, 2, 1, 0} {
		t.Fatalf("stamp codings %v: want the gauge's varints, the counter's runs and the clocked sensor's clock — not at the file's width, which the counter's stamps, off the tick, fixed at 0", want.stamped)
	}
	check := func(times float64) {
		t.Helper()
		samples, err := n.MetricsSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{
			`dcdb_store_block_bytes_total{stream="ts"}`:           want.streams.ts,
			`dcdb_store_block_bytes_total{stream="stamps"}`:       want.streams.stamps,
			`dcdb_store_block_bytes_total{stream="values"}`:       want.streams.values,
			`dcdb_store_run_index_bytes_total`:                    want.index,
			`dcdb_store_stamp_blocks_total{coding="varint"}`:      want.stamped[stampVarints],
			`dcdb_store_stamp_blocks_total{coding="runs"}`:        want.stamped[stampRuns],
			`dcdb_store_stamp_blocks_total{coding="clock"}`:       want.stamped[stampClock],
			`dcdb_store_stamp_blocks_total{coding="clock_width"}`: want.stamped[stampClockWidth],
		}
		for i, ts := range []string{"varint", "width", "line", "line_frame"} {
			for j, values := range []string{"xor", "int", "line", "line_frame"} {
				counts[fmt.Sprintf(`dcdb_store_blocks_total{ts="%s",values="%s"}`, ts, values)] = want.blocks[i][j]
			}
		}
		for name, v := range counts {
			if got := sampleValue(t, samples, name); got != times*float64(v) {
				t.Errorf("%s = %g, want %g", name, got, times*float64(v))
			}
		}
	}
	check(1)
	if total := want.streams.ts + want.streams.stamps + want.streams.values + 4 + want.index + runMagicLen + runFooterLen; total != len(data) {
		t.Errorf("streams, flags bytes, index, magic and footer add up to %d of the file's %d bytes", total, len(data))
	}
	n.Compact() // one file, rewritten as it is
	check(2)
}
