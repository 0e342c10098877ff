package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// measureLayers is the traced run. The window is split in two halves,
// each on a fresh cluster: the first against the real collectagent
// process, untraced, which supplies everything scraped from the
// programs and from /proc; the second with the agent embedded behind
// the tracing decorators, against two fresh dcdbnode processes, which
// supplies the span-derived figures. An open-loop workload ends both
// halves with a short closed-loop probe of the connections' capacity,
// so that the tracing overhead is a ratio of two closed-loop rates on
// every workload. The layer budget then replays the same generated
// messages through the layers no seam exposes.
func (h *harness) measureLayers(w *workload) (*result, error) {
	cfg := h.config(w)
	half := h.window() / 2

	plainBench, err := setUp(cfg, nil)
	if err != nil {
		return nil, err
	}
	plainBench.capacityProbe = capacityProbe
	plain, err := plainBench.measure(half)
	plainBench.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer(traceRing)
	tracedBench, err := setUp(cfg, tr)
	if err != nil {
		return nil, err
	}
	tracedBench.capacityProbe = capacityProbe
	traced, err := tracedBench.measure(half)
	tracedBench.close()
	if err != nil {
		return nil, err
	}

	r := newResult(w, plain, traced)
	v := r.values
	scratch := filepath.Join(h.workDir, fmt.Sprintf("budget-%d", os.Getpid()))
	err = layerBudget(w, h.seed, scratch, v)
	os.RemoveAll(scratch)
	if err != nil {
		return nil, err
	}
	scrapedValues(r, plain)
	spanValues(r, plain, traced)
	env := h.environment()
	env["workload"] = w.name
	path := filepath.Join(h.outDir, w.name+".trace.json")
	if err := tr.writeFile(path, env); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("%d spans recorded, the last %d written to %s", tr.n, len(tr.spans()), path))
	return r, nil
}

// capacityProbe is how many messages each half of the traced run of an
// open-loop workload publishes closed loop after its window: a second
// or so.
const capacityProbe = 4000

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrapedValues fills in what the programs report about themselves and
// what /proc reports about them, from the untraced half.
func scrapedValues(r *result, ph *phase) {
	v := r.values
	loadValues(v, ph)
	a, n := ph.agentDelta, ph.nodeDelta
	readings := float64(ph.ingest.readings)

	v["mqtt.published"] = a.sum("dcdb_agent_broker_published_total")
	v["mqtt.payload_bytes"] = a.sum("dcdb_agent_broker_payload_bytes_total")
	v["collectagent.messages"] = a.sum("dcdb_agent_messages_total")
	v["collectagent.readings"] = a.sum("dcdb_agent_readings_total")
	v["collectagent.errors"] = a.sum("dcdb_agent_errors_total")
	v["collectagent.cpu_s"] = ph.cpuAgent
	v["collectagent.rss_peak_mb"] = float64(ph.rssAgentKB) / 1024
	v["cluster.hints_queued"] = a.sum("dcdb_cluster_hints_queued_total")
	v["cluster.read_repairs"] = a.sum("dcdb_cluster_read_repairs_total")
	v["rpc.bytes_per_reading"] = ratio(a.sum("dcdb_rpc_client_net_written_bytes_total"), readings)
	v["rpc.call_errors"] = a.sum("dcdb_rpc_client_call_errors_total")
	v["rpc.connects"] = a.sum("dcdb_rpc_client_connects_total")

	// The RPC layer keeps per-op latency histograms only up to op 15;
	// the versioned insert every write uses is op 16 and has none. The
	// store's own (1-in-64 sampled) insert histogram is the closest
	// server-side figure the programs export.
	v["rpc.server_handle_us_per_call"] = 1e6 * ratio(n.sum("dcdb_store_insert_latency_seconds_sum"), n.sum("dcdb_store_insert_latency_seconds_count"))

	v["node.wal_appends"] = n.sum("dcdb_store_wal_appends_total")
	v["node.wal_fsyncs"] = n.sum("dcdb_store_wal_fsyncs_total")
	v["node.wal_fsyncs_per_kreading"] = ratio(v["node.wal_fsyncs"], readings/1000)
	v["node.spills"] = n.sum("dcdb_store_spill_duration_seconds_count")
	v["node.spill_p50_ms"] = ph.spillP50 * 1000
	v["node.compactions"] = n.sum("dcdb_store_compaction_duration_seconds_count")
	v["node.compaction_s"] = n.sum("dcdb_store_compaction_duration_seconds_sum")
	v["node.write_amp"] = ratio(float64(ph.ioWriteBytes), 16*readings)
	hits, misses := n.sum("dcdb_store_cache_hits_total"), n.sum("dcdb_store_cache_misses_total")
	v["node.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["node.cache_evictions"] = n.sum("dcdb_store_cache_evictions_total")
	v["node.memtable_bytes"] = ph.nodeAfter.sum("dcdb_store_memtable_bytes")
	v["node.cpu_s"] = ph.cpuNodes
	v["node.rss_peak_mb"] = float64(ph.rssNodesKB) / 1024

	v["rpc.stream_us_per_kreading"] = ratio(us(ph.streamTime), float64(ph.streamCount)/1000)
	v["fold.aggregate_resp_bytes"] = ph.aggRespBytes

	v["loadgen.offered_per_s"] = ph.ingest.offered
	v["loadgen.capacity_per_s"] = ph.capacity
	late := ph.ingest.late.sorted()
	_, lateTail := tailQuantile(late)
	v["loadgen.late_p99_ms"] = ms(lateTail)
	v["loadgen.sched_miss_frac"] = ratio(float64(ph.ingest.misses), float64(len(late)))
	var note string
	v["loadgen.ack_p99_ms"], note = tailNote("loadgen.ack_p99_ms", ph.ingest.ack)
	r.notes = append(r.notes, note)
	v["loadgen.query_recent_p99_ms"], note = tailNote("loadgen.query_recent_p99_ms", ph.query.lat[queryRecent])
	r.notes = append(r.notes, note)
	v["loadgen.query_cold_p99_ms"], note = tailNote("loadgen.query_cold_p99_ms", ph.query.lat[queryCold])
	r.notes = append(r.notes, note)
	v["loadgen.aggregate_p99_ms"], note = tailNote("loadgen.aggregate_p99_ms", ph.query.lat[queryAggregate])
	r.notes = append(r.notes, note)
	v["loadgen.samples"] = float64(len(ph.ingest.ack)) + float64(ph.query.attempted())
	v["loadgen.lost_readings"] = float64(ph.lostReadings)
	v["loadgen.failed_ops_frac"] = ratio(float64(r.failed), float64(r.attempted))
}

// spanValues fills in the figures taken from the traced half's spans
// and reconciles them with the measured publish-to-stored time.
func spanValues(r *result, plain, traced *phase) {
	v := r.values
	tr := traced.tr
	mean := func(total, count int64) float64 { return ratio(float64(total), float64(count)) }

	handle := tr.stat(spanHandle)
	cw := tr.stat(spanClusterWrite)
	rw := tr.stat(spanRPCWrite)
	v["collectagent.handle_self_ns_per_msg"] = mean(handle.self, handle.count)
	v["cluster.insert_self_ns_per_batch"] = mean(cw.self, cw.count)
	v["cluster.replica_wait_ns_per_batch"] = mean(cw.wait, cw.count)
	v["rpc.insert_rtt_us_per_call"] = mean(rw.total, rw.count) / 1000
	v["rpc.wire_us_per_call"] = v["rpc.insert_rtt_us_per_call"] - v["rpc.server_handle_us_per_call"]
	cq := tr.stat(spanClusterRead)
	v["cluster.query_self_us"] = mean(cq.self, cq.count) / 1000
	lq := tr.stat(spanLibQuery)
	v["libdcdb.query_self_us"] = mean(lq.self, lq.count) / 1000

	v["trace.capacity_per_s_traced"] = traced.capacity
	v["trace.overhead_frac"] = 1 - ratio(traced.capacity, plain.capacity)

	// Reconciliation: a PUBLISH's time from send to stored, against the
	// layers that lie on that path. What the layers do not explain is
	// waiting: behind the previous message of the same connection, in
	// socket buffers, for a CPU.
	stored := mean(tr.e2e.stored, tr.e2e.count)
	rows := []struct {
		layer string
		ns    float64
	}{
		{"mqtt.encode_ns_per_msg (client)", v["mqtt.encode_ns_per_msg"]},
		{"mqtt.publish_rtt_us / 2 (one way)", v["mqtt.publish_rtt_us"] * 1000 / 2},
		{"mqtt.decode_ns_per_msg (broker)", v["mqtt.decode_ns_per_msg"]},
		{"collectagent.handle self", mean(handle.self, handle.count)},
		{"cluster.insert self", mean(cw.self, cw.count)},
		{"rpc.insert, slowest replica", mean(cw.total-cw.self, cw.count)},
	}
	var sum float64
	r.notes = append(r.notes, fmt.Sprintf("reconciliation over %d traced messages: publish → stored %.1f us, of which before the agent's handler %.1f us",
		tr.e2e.count, stored/1000, mean(tr.e2e.preHandle, tr.e2e.count)/1000))
	for _, row := range rows {
		sum += row.ns
		r.notes = append(r.notes, fmt.Sprintf("  %-36s %10.1f us  %5.1f%%", row.layer, row.ns/1000, 100*ratio(row.ns, stored)))
	}
	v["trace.stored_us_per_msg"] = stored / 1000
	v["trace.budget_residual_frac"] = 1 - ratio(sum, stored)
	r.notes = append(r.notes, fmt.Sprintf("  %-36s %10.1f us  %5.1f%%  (trace.budget_residual_frac)", "unexplained: queueing, sockets, CPU", (stored-sum)/1000, 100*v["trace.budget_residual_frac"]))
}
