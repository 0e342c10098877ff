package store

import (
	"fmt"
	"sync/atomic"
	"time"

	"dcdb/internal/metrics"
)

// Self-monitoring of the storage engine (the paper's own-overhead
// argument, §6): every Node owns a metrics.Registry so a process
// holding several nodes (a test cluster, an example) exports them
// without name collisions — exporters inject a node label per
// registry.
//
// The hot-path budget is the design constraint here. An insert costs
// ~50ns, so even one extra atomic read-modify-write per call would blow
// the paper's sub-1% footprint. The instrumentation therefore adds only:
//
//   - one uncontended atomic load per insert (the arm flag — a plain
//     MOV on x86, no bus locking), and
//   - two clock reads on 1-in-64 sampled operations, amortising to
//     ~1ns per insert.
//
// The sampling decision itself costs nothing extra: the shard's
// existing insert counter (already bumped under the shard lock) arms a
// padded per-shard flag each time it crosses a 64-record boundary, and
// the next insert to that shard sees the flag before taking the lock
// and times itself, lock wait included.
//
// Queries are µs-scale but still sampled (1-in-8, first query always)
// because a clock read is not free everywhere: hosts without a vDSO
// fast path pay a ~200ns syscall per read, which would be several
// percent of a memtable-resident query. The sampling decision reuses
// the shard query counter the engine already bumps. Everything else —
// gauges, totals — is computed at scrape time from counters the engine
// already maintains, costing the hot path nothing.
// TestInstrumentationOverheadBudget holds this to within 5% of the
// uninstrumented baseline in CI.

// insertSampleEvery is the insert-latency sampling rate: 1 in 64.
const insertSampleEvery = 64

// querySampleEvery is the query-latency sampling rate: 1 in 8.
const querySampleEvery = 8

// instrumentationOff disables all store latency sampling when set. The
// zero value (enabled) is the default; the overhead bench guard flips
// it to measure the uninstrumented baseline in the same binary.
var instrumentationOff atomic.Bool

// SetInstrumentation enables or disables hot-path latency sampling
// process-wide. Counters and scrape-time gauges are unaffected.
func SetInstrumentation(on bool) { instrumentationOff.Store(!on) }

// latTick is a cache-line padded per-shard "sample the next insert"
// flag. Written ~2 times per 64 inserts (armed under the shard lock,
// cleared by the sampled insert); read once per insert.
type latTick struct {
	sample atomic.Bool
	_      [63]byte
}

// walMetrics are the WAL's registry hooks, shared by every segment of
// a node (segments rotate; the counters persist).
type walMetrics struct {
	appends *metrics.Counter
	fsyncs  *metrics.Counter
	batch   *metrics.Histogram // records made durable per fsync
}

// runMetrics counts where the bytes of the run files a node commits
// go — spills and compactions alike, so bytes rewritten count again.
// Together with blocks (one flags byte each) the three streams are the
// files' data sections; magic and footer are 24 bytes a file.
type runMetrics struct {
	ts, stamps, values, index *metrics.Counter
	blocks                    [4][4]*metrics.Counter // as runBytes.blocks
	stamped                   [3]*metrics.Counter    // as runBytes.stamped
}

// add counts one committed run file. A nil receiver counts nothing
// (files tests write outside a node).
func (m *runMetrics) add(b *runBytes) {
	if m == nil {
		return
	}
	m.ts.Add(int64(b.streams.ts))
	m.stamps.Add(int64(b.streams.stamps))
	m.values.Add(int64(b.streams.values))
	m.index.Add(int64(b.index))
	for i := range m.blocks {
		for j, c := range m.blocks[i] {
			c.Add(int64(b.blocks[i][j]))
		}
	}
	for i, c := range m.stamped {
		c.Add(int64(b.stamped[i]))
	}
}

// nodeMetrics is the per-Node metric set.
type nodeMetrics struct {
	reg        *metrics.Registry
	insertLat  [numShards]*metrics.Histogram
	queryLat   [numShards]*metrics.Histogram
	wal        walMetrics
	spillDur   *metrics.Histogram
	compactDur *metrics.Histogram
	run        runMetrics

	ticks [numShards]latTick
}

func newNodeMetrics(n *Node) *nodeMetrics {
	reg := metrics.NewRegistry()
	m := &nodeMetrics{reg: reg}
	for i := 0; i < numShards; i++ {
		m.insertLat[i] = reg.LatencyHistogram(
			fmt.Sprintf(`dcdb_store_insert_latency_seconds{shard="%d"}`, i),
			"Write latency per memtable shard.", insertSampleEvery)
		m.queryLat[i] = reg.LatencyHistogram(
			fmt.Sprintf(`dcdb_store_query_latency_seconds{shard="%d"}`, i),
			"Read latency per memtable shard: stream open to EOF, error or Close (a Query is a drained stream).", querySampleEvery)
	}
	m.wal.appends = reg.Counter("dcdb_store_wal_appends_total", "WAL records appended: one per write frame, one per delete.")
	m.wal.fsyncs = reg.Counter("dcdb_store_wal_fsyncs_total", "WAL fsyncs, including group commits.")
	m.wal.batch = reg.Histogram("dcdb_store_wal_group_commit_records", "WAL records made durable per group-commit fsync.")
	m.spillDur = reg.LatencyHistogram("dcdb_store_spill_duration_seconds", "Memtable-flush run-file spill duration.", 1)
	m.compactDur = reg.LatencyHistogram("dcdb_store_compaction_duration_seconds", "Run-file compaction window duration.", 1)
	stream := func(name string) *metrics.Counter {
		return reg.Counter(fmt.Sprintf(`dcdb_store_block_bytes_total{stream="%s"}`, name),
			"Bytes of committed run-file blocks per stream: timestamps, write stamps (expire and version sections), values.")
	}
	m.run.ts, m.run.stamps, m.run.values = stream("ts"), stream("stamps"), stream("values")
	m.run.index = reg.Counter("dcdb_store_run_index_bytes_total", "Index bytes of committed run files.")
	// By selector (block.go): the first coding, the frame of the deltas,
	// the line's residuals as varints and in a frame.
	for i, ts := range []string{"varint", "frame", "line", "line_frame"} {
		for j, values := range []string{"xor", "int", "line", "line_frame"} {
			m.run.blocks[i][j] = reg.Counter(fmt.Sprintf(`dcdb_store_blocks_total{ts="%s",values="%s"}`, ts, values),
				"Blocks of committed run files by the coding their timestamp and value streams chose.")
		}
	}
	for i, coding := range []string{"varint", "runs", "clock"} {
		m.run.stamped[i] = reg.Counter(fmt.Sprintf(`dcdb_store_stamp_blocks_total{coding="%s"}`, coding),
			"Blocks of committed run files that carry write stamps, by the coding their stamp sections chose.")
	}
	reg.CounterFunc("dcdb_store_inserts_total", "Readings inserted.", func() float64 {
		ins, _, _ := n.Stats()
		return float64(ins)
	})
	reg.CounterFunc("dcdb_store_queries_total", "Query and prefix-query calls.", func() float64 {
		_, q, _ := n.Stats()
		return float64(q)
	})
	reg.GaugeFunc("dcdb_store_memtable_entries", "Entries buffered in the memtable shards.", func() float64 {
		mem, _ := n.entryCounts()
		return float64(mem)
	})
	reg.GaugeFunc("dcdb_store_memtable_bytes", "Approximate memtable bytes (entries x entry size).", func() float64 {
		mem, _ := n.entryCounts()
		return float64(mem * entrySize)
	})
	reg.GaugeFunc("dcdb_store_flushed_entries", "Entries in flushed runs (resident or cold).", func() float64 {
		_, flushed := n.entryCounts()
		return float64(flushed)
	})
	return m
}

// entryCounts reports memtable and flushed entry totals (scrape-time
// only: takes every shard's read lock).
func (n *Node) entryCounts() (mem, flushed int) {
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.RLock()
		mem += sh.memSize
		flushed += sh.flushedSize
		sh.mu.RUnlock()
	}
	return mem, flushed
}

// registerCacheMetrics wires the block cache's existing atomics into
// the registry; called once from OpenOptions when a cache exists.
func (m *nodeMetrics) registerCacheMetrics(c *blockCache) {
	m.reg.CounterFunc("dcdb_store_cache_hits_total", "Block cache hits.", func() float64 {
		return float64(c.hits.Load())
	})
	m.reg.CounterFunc("dcdb_store_cache_misses_total", "Block cache misses.", func() float64 {
		return float64(c.misses.Load())
	})
	m.reg.CounterFunc("dcdb_store_cache_evictions_total", "Block cache evictions.", func() float64 {
		return float64(c.evictions.Load())
	})
	m.reg.GaugeFunc("dcdb_store_cache_used_bytes", "Decoded block bytes resident in the cache.", func() float64 {
		c.mu.Lock()
		used := c.used
		c.mu.Unlock()
		return float64(used)
	})
}

// insertStart begins a (usually sampled-out) insert timing for shard
// i. The zero time means "not sampled"; pass it to insertDone. The
// common path is one relaxed atomic load and no writes; the kill
// switch is consulted at arm time (1-in-64), not here.
func (m *nodeMetrics) insertStart(i int) time.Time {
	if !m.ticks[i].sample.Load() {
		return time.Time{}
	}
	return time.Now()
}

// insertDone finishes a sampled insert timing and disarms the shard's
// flag. Concurrent inserts racing on one armed flag may each record a
// sample — harmless oversampling, never a missed disarm.
func (m *nodeMetrics) insertDone(i int, start time.Time) {
	if !start.IsZero() {
		m.ticks[i].sample.Store(false)
		m.insertLat[i].ObserveSince(start)
	}
}

// armTick arms shard i's sampling flag when its insert counter crossed
// a 64-record boundary; called under the shard lock with the counter's
// before/after values, so batches of any size arm at most once. The
// kill switch is checked here — off the per-insert path — so disabling
// instrumentation stops arming (at most one stale armed sample drains
// after the switch flips).
func (m *nodeMetrics) armTick(i int, before, after int64) {
	if before>>6 != after>>6 && !instrumentationOff.Load() {
		m.ticks[i].sample.Store(true)
	}
}

// queryStart begins a read timing given the shard's post-increment
// query count: every querySampleEvery-th stream is timed, anchored so
// the first is always sampled (tests and cold starts see data
// immediately). The stream observes the sample when it ends
// (nodeStream.Close).
func (m *nodeMetrics) queryStart(count int64) time.Time {
	if count&(querySampleEvery-1) != 1 || instrumentationOff.Load() {
		return time.Time{}
	}
	return time.Now()
}

// Metrics returns the node's metric registry for exporters.
func (n *Node) Metrics() *metrics.Registry { return n.met.reg }

// MetricsSnapshot implements the MetricsSource interface: a gathered
// sample set of the node's registry. On remote backends (rpc.Client)
// the same method pulls the snapshot over the wire.
func (n *Node) MetricsSnapshot() ([]metrics.Sample, error) {
	return n.met.reg.Gather(), nil
}

// MetricsSource is the optional backend capability of reporting a full
// metrics snapshot. *Node implements it locally; rpc.Client implements
// it over the Stats op; Cluster.ClusterStats fans it out.
type MetricsSource interface {
	MetricsSnapshot() ([]metrics.Sample, error)
}

// clusterMetrics is the coordinator-level metric set: consistency
// outcomes, anti-entropy activity and pushdown effectiveness. Replica
// counters live on the member nodes; these count coordinator decisions.
type clusterMetrics struct {
	reg *metrics.Registry

	writesOK     *metrics.Counter
	writesFailed *metrics.Counter
	readsOK      *metrics.Counter
	readsFailed  *metrics.Counter
	readRepairs  *metrics.Counter
	hintsLost    *metrics.Counter

	// Frames sent by the per-member write queues and the entries in
	// them: entries ÷ frames is how much the combiner coalesced.
	writeFrames       *metrics.Counter
	writeFrameEntries *metrics.Counter

	aggConsensus *metrics.Counter
	aggFallback  *metrics.Counter

	aeRounds     *metrics.Counter
	aeChecked    *metrics.Counter
	aeMismatched *metrics.Counter
	aeRepaired   *metrics.Counter

	rebTransitions *metrics.Counter
	rebSensors     *metrics.Counter
	rebReadings    *metrics.Counter
	rebCutovers    *metrics.Counter
}

func newClusterMetrics(c *Cluster) *clusterMetrics {
	reg := metrics.NewRegistry()
	m := &clusterMetrics{
		reg: reg,
		writesOK: reg.Counter(`dcdb_cluster_writes_total{outcome="ok"}`,
			"Writes acknowledged at the configured consistency level."),
		writesFailed: reg.Counter(`dcdb_cluster_writes_total{outcome="failed"}`,
			"Writes that missed the configured consistency level."),
		readsOK: reg.Counter(`dcdb_cluster_reads_total{outcome="ok"}`,
			"Reads satisfied at the configured consistency level."),
		readsFailed: reg.Counter(`dcdb_cluster_reads_total{outcome="failed"}`,
			"Reads that missed the configured consistency level."),
		readRepairs: reg.Counter("dcdb_cluster_read_repairs_total",
			"Background read repairs issued to lagging replicas."),
		hintsLost: reg.Counter("dcdb_cluster_hints_lost_total",
			"Hinted-handoff mutations that could not be queued (the hint file write failed); the write still acks if its consistency level was met."),
		writeFrames: reg.Counter("dcdb_cluster_write_frames_total",
			"Write frames sent to remote members by the per-member write queues."),
		writeFrameEntries: reg.Counter("dcdb_cluster_write_frame_entries_total",
			"Entries (one per message per replica) carried by those frames."),
		aggConsensus: reg.Counter("dcdb_cluster_aggregate_consensus_total",
			"Quorum aggregate pushdowns where replica states agreed (O(1)-byte answer)."),
		aggFallback: reg.Counter("dcdb_cluster_aggregate_fallback_total",
			"Quorum aggregate pushdowns that fell back to an exact merged-stream fold."),
		aeRounds: reg.Counter("dcdb_cluster_antientropy_rounds_total",
			"Anti-entropy repair rounds completed."),
		aeChecked: reg.Counter("dcdb_cluster_antientropy_ranges_checked_total",
			"Sensor ranges whose replica summaries were compared."),
		aeMismatched: reg.Counter("dcdb_cluster_antientropy_ranges_mismatched_total",
			"Sensor ranges where replica summaries disagreed."),
		aeRepaired: reg.Counter("dcdb_cluster_antientropy_readings_repaired_total",
			"Readings re-inserted into lagging replicas by anti-entropy repair."),
		rebTransitions: reg.Counter("dcdb_cluster_rebalance_transitions_total",
			"Ring transitions started by membership changes."),
		rebSensors: reg.Counter("dcdb_cluster_rebalance_sensors_moved_total",
			"Sensors whose readings were streamed to new owners during rebalance."),
		rebReadings: reg.Counter("dcdb_cluster_rebalance_readings_moved_total",
			"Readings streamed to new owners during rebalance."),
		rebCutovers: reg.Counter("dcdb_cluster_rebalance_cutovers_total",
			"Rebalances completed: the read ring advanced to the target ring."),
	}
	reg.GaugeFunc("dcdb_cluster_rebalance_active",
		"1 while a ring transition is streaming data, 0 at steady state.", func() float64 {
			if c.top().prevRing != nil {
				return 1
			}
			return 0
		})
	reg.CounterFunc("dcdb_cluster_hints_queued_total",
		"Hinted-handoff mutations queued for down replicas.", func() float64 {
			q, _, _ := c.HintStats()
			return float64(q)
		})
	reg.CounterFunc("dcdb_cluster_hints_replayed_total",
		"Hinted-handoff mutations delivered to recovered replicas.", func() float64 {
			_, r, _ := c.HintStats()
			return float64(r)
		})
	reg.GaugeFunc("dcdb_cluster_hints_pending_nodes",
		"Replicas with hints still waiting for delivery.", func() float64 {
			_, _, p := c.HintStats()
			return float64(p)
		})
	return m
}

// Metrics returns the cluster coordinator's metric registry.
func (c *Cluster) Metrics() *metrics.Registry { return c.met.reg }

// NodeStats is one backend's entry in a ClusterStats fan-out.
type NodeStats struct {
	Index   int    // position in snapshot order
	ID      string // stable member identity the ring keys on
	Addr    string // remote address, "" for an in-process node
	Inserts int64
	Queries int64
	Entries int
	// Samples is the backend's full metrics snapshot, nil when the
	// backend is not a MetricsSource or could not be reached (Err).
	Samples []metrics.Sample
	Err     error
}

// ClusterStats gathers per-node statistics and metric snapshots from
// every backend concurrently (a dead node costs its dial timeout once,
// not once per position). Backends that implement MetricsSource —
// local *Node and rpc.Client both do — contribute full snapshots;
// anything else reports the three Stats counters only.
func (c *Cluster) ClusterStats() []NodeStats {
	t := c.top()
	out := make([]NodeStats, len(t.members))
	c.fanOut(t.all(), func(_, i int) error {
		m := &t.members[i]
		ns := NodeStats{Index: i, ID: m.id, Addr: m.addr}
		if ns.Addr == "" {
			if a, ok := m.backend.(interface{ Addr() string }); ok {
				ns.Addr = a.Addr()
			}
		}
		ns.Inserts, ns.Queries, ns.Entries = m.backend.Stats()
		if src, ok := m.backend.(MetricsSource); ok {
			ns.Samples, ns.Err = src.MetricsSnapshot()
		}
		out[i] = ns
		return nil
	})
	return out
}
