package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	defaultSeed    = 20190617 // for the all-workloads mode; the driver passes its own
	defaultSeconds = 15
	// traceRing is the number of most recent spans kept for the span
	// file; the per-layer figures are accumulated over all of them.
	traceRing = 1 << 16
)

// metricDef names one reported number. The tables below are the
// benchmark's vocabulary: BENCHMARK.json and README.md repeat them and
// a test keeps the three in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// The end-to-end metrics are the ones that repeated within a tenth
// from run to run on the reference box with room to spare. Nothing
// measured in seconds did; those live in the loadgen layer (see
// README.md, "Demoted").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"disk_bytes_per_reading", "B/reading", "lower", 0.02},
}

var perLayer = []metricDef{
	{name: "mqtt.decode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "mqtt.encode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "mqtt.publish_rtt_us", unit: "us", better: "lower"},
	{name: "mqtt.published", unit: "count", better: "higher"},
	{name: "mqtt.payload_bytes", unit: "B", better: "higher"},
	{name: "core.decode_ns_per_reading", unit: "ns", better: "lower"},
	{name: "core.topicmap_hit_ns", unit: "ns", better: "lower"},
	{name: "core.topicmap_first_ns", unit: "ns", better: "lower"},
	{name: "cache.store_ns", unit: "ns", better: "lower"},
	{name: "cache.size_bytes", unit: "B", better: "lower"},
	{name: "collectagent.handle_self_ns_per_msg", unit: "ns", better: "lower"},
	{name: "collectagent.messages", unit: "count", better: "higher"},
	{name: "collectagent.readings", unit: "count", better: "higher"},
	{name: "collectagent.errors", unit: "count", better: "lower"},
	{name: "collectagent.cpu_s", unit: "s", better: "lower"},
	{name: "collectagent.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "ring.replicas_for_ns", unit: "ns", better: "lower"},
	{name: "cluster.insert_self_ns_per_batch", unit: "ns", better: "lower"},
	{name: "cluster.replica_wait_ns_per_batch", unit: "ns", better: "lower"},
	{name: "cluster.query_self_us", unit: "us", better: "lower"},
	{name: "cluster.hints_queued", unit: "count", better: "lower"},
	{name: "cluster.read_repairs", unit: "count", better: "lower"},
	{name: "rpc.insert_rtt_us_per_call", unit: "us", better: "lower"},
	{name: "rpc.server_handle_us_per_call", unit: "us", better: "lower"},
	{name: "rpc.wire_us_per_call", unit: "us", better: "lower"},
	{name: "rpc.bytes_per_reading", unit: "B/reading", better: "lower"},
	{name: "rpc.stream_us_per_kreading", unit: "us", better: "lower"},
	{name: "rpc.call_errors", unit: "count", better: "lower"},
	{name: "rpc.connects", unit: "count", better: "lower"},
	{name: "node.insert_mem_ns_per_reading", unit: "ns", better: "lower"},
	{name: "node.insert_durable_ns_per_reading", unit: "ns", better: "lower"},
	{name: "node.wal_ns_per_reading", unit: "ns", better: "lower"},
	{name: "node.wal_appends", unit: "count", better: "lower"},
	{name: "node.wal_fsyncs", unit: "count", better: "lower"},
	{name: "node.wal_fsyncs_per_kreading", unit: "1/kreading", better: "lower"},
	{name: "node.flush_ns_per_reading", unit: "ns", better: "lower"},
	{name: "node.spill_p50_ms", unit: "ms", better: "lower"},
	{name: "node.spills", unit: "count", better: "lower"},
	{name: "node.compact_ns_per_reading", unit: "ns", better: "lower"},
	{name: "node.compactions", unit: "count", better: "lower"},
	{name: "node.compaction_s", unit: "s", better: "lower"},
	{name: "node.write_amp", unit: "ratio", better: "lower"},
	{name: "node.query_hot_us", unit: "us", better: "lower"},
	{name: "node.query_cold_us", unit: "us", better: "lower"},
	{name: "node.block_decode_ns_per_reading", unit: "ns", better: "lower"},
	{name: "node.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "node.cache_evictions", unit: "count", better: "lower"},
	{name: "node.memtable_bytes", unit: "B", better: "lower"},
	{name: "node.cpu_s", unit: "s", better: "lower"},
	{name: "node.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "fold.summary_ns_per_reading", unit: "ns", better: "lower"},
	{name: "fold.aggregate_node_us", unit: "us", better: "lower"},
	{name: "fold.aggregate_resp_bytes", unit: "B", better: "lower"},
	{name: "libdcdb.query_self_us", unit: "us", better: "lower"},
	{name: "loadgen.offered_per_s", unit: "1/s", better: "higher"},
	{name: "loadgen.capacity_per_s", unit: "1/s", better: "higher"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.sched_miss_frac", unit: "ratio", better: "lower"},
	{name: "loadgen.readings_per_s", unit: "1/s", better: "higher"},
	{name: "loadgen.cpu_s_per_mreading", unit: "s/Mreading", better: "lower"},
	{name: "loadgen.ack_p50_ms", unit: "ms", better: "lower"},
	{name: "loadgen.ack_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.query_recent_p50_ms", unit: "ms", better: "lower"},
	{name: "loadgen.query_recent_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.query_cold_p50_ms", unit: "ms", better: "lower"},
	{name: "loadgen.query_cold_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.aggregate_p50_ms", unit: "ms", better: "lower"},
	{name: "loadgen.aggregate_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.samples", unit: "count", better: "higher"},
	{name: "loadgen.lost_readings", unit: "count", better: "lower"},
	{name: "loadgen.failed_ops_frac", unit: "ratio", better: "lower"},
	{name: "trace.capacity_per_s_traced", unit: "1/s", better: "higher"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.stored_us_per_msg", unit: "us", better: "lower"},
	{name: "trace.budget_residual_frac", unit: "ratio", better: "lower"},
}

// result is the outcome of one run of one workload: what the last
// line of a driver run serialises.
type result struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
	notes     []string // human-readable extras: tails with their percentile, failures
}

type harness struct {
	root, binDir, workDir, outDir string
	seed                          int64
	seconds                       float64
	corrupt                       bool
}

func (h *harness) config(w *workload) runConfig {
	return runConfig{w: w, seed: h.seed, binDir: h.binDir, workDir: h.workDir, corrupt: h.corrupt}
}

func (h *harness) window() time.Duration {
	return time.Duration(h.seconds * float64(time.Second))
}

// measureEndToEnd is the untraced run against the three real binaries.
func (h *harness) measureEndToEnd(w *workload) (*result, error) {
	b, err := setUp(h.config(w), nil)
	if err != nil {
		return nil, err
	}
	ph, err := b.measure(h.window())
	b.close()
	if err != nil {
		return nil, err
	}
	r := newResult(w, ph)
	loadValues(r.values, ph)
	r.notes = append(r.notes, fmt.Sprintf("window %.2fs: %d messages, %d readings, server CPU %.2fs (agent %.2f, nodes %.2f); %d queries",
		ph.ingest.elapsed.Seconds(), ph.ingest.msgs, ph.ingest.readings, ph.cpuAgent+ph.cpuNodes, ph.cpuAgent, ph.cpuNodes, ph.query.attempted()))
	return r, nil
}

func newResult(w *workload, phases ...*phase) *result {
	r := &result{workload: w.name, correct: true, values: map[string]float64{}}
	for _, ph := range phases {
		r.attempted += ph.attempted
		r.failed += ph.failed
		r.correct = r.correct && ph.verified && ph.failed == 0 && ph.lostReadings == 0
		r.notes = append(r.notes, ph.failures...)
	}
	return r
}

// loadValues derives what the load generator, /proc and the final disk
// usage say about a measured phase against the real binaries: the
// end-to-end metrics and the loadgen layer's rates, costs and median
// latencies. Every figure is taken over the whole window: totals for
// rates and costs, the median of all samples for latencies.
func loadValues(v map[string]float64, ph *phase) {
	v["setup_s"] = ph.setup.Seconds()
	// CPU is charged to every reading the servers handled in the
	// window: stored, or returned or folded by a query. Without
	// queries that is the paper's Fig. 8 quantity; with closed-loop
	// queries, dividing by the stored readings alone would make faster
	// reads look more expensive.
	handled := float64(ph.ingest.readings + ph.query.readings)
	v["loadgen.cpu_s_per_mreading"] = ratio(ph.cpuAgent+ph.cpuNodes, handled/1e6)
	v["disk_bytes_per_reading"] = ratio(float64(ph.diskBytes), float64(ph.distinct))
	v["loadgen.readings_per_s"] = float64(ph.ingest.readings) / ph.ingest.elapsed.Seconds()
	v["loadgen.ack_p50_ms"] = ms(ph.ingest.ack.median())
	v["loadgen.query_recent_p50_ms"] = ms(ph.query.lat[queryRecent].median())
	v["loadgen.query_cold_p50_ms"] = ms(ph.query.lat[queryCold].median())
	v["loadgen.aggregate_p50_ms"] = ms(ph.query.lat[queryAggregate].median())
}

// tailNote describes a latency sample's tail for humans.
func tailNote(name string, l latencies) (float64, string) {
	s := l.sorted()
	if len(s) == 0 {
		return 0, name + ": not exercised by this workload"
	}
	p, v := tailQuantile(s)
	return ms(v), fmt.Sprintf("%s: p%g over %d samples", name, p*100, len(s))
}

// driverRun runs one workload the way the acceptance driver asks for
// it and prints the JSON result as the last line of standard output.
func (h *harness) driverRun(w *workload, traced bool) (bool, error) {
	var r *result
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		r, err = h.measureLayers(w)
	} else {
		r, err = h.measureEndToEnd(w)
	}
	if err != nil {
		return false, err
	}
	h.printEnvironment(os.Stderr)
	h.printResult(os.Stderr, r, traced)
	b, err := encodeResult(r, defs)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return r.correct, nil
}

// encodeResult renders a result as the one JSON object the acceptance
// driver reads: exactly the metrics of defs, each with its unit.
func encodeResult(r *result, defs []metricDef) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.name] = mv{r.values[d.name], d.unit}
	}
	return json.Marshal(out)
}

// printResult lists a run's metrics for a human. An end-to-end run
// also measured the loadgen layer's rates, costs and latencies; they
// are printed too, though not part of the result line.
func (h *harness) printResult(f *os.File, r *result, traced bool) {
	fmt.Fprintf(f, "workload %s: correct=%v attempted=%d failed=%d\n", r.workload, r.correct, r.attempted, r.failed)
	if !traced {
		for _, d := range endToEnd {
			fmt.Fprintf(f, "  %-38s %16.6g %s\n", d.name, r.values[d.name], d.unit)
		}
	}
	for _, d := range perLayer {
		if v, ok := r.values[d.name]; ok {
			fmt.Fprintf(f, "  %-38s %16.6g %s\n", d.name, v, d.unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(f, "  note: %s\n", n)
	}
}

// environment describes where a result was measured; every output
// carries it.
func (h *harness) environment() map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", h.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"commit":        commit,
		"go":            runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"kernel":        kernel,
		"flush_policy":  flushPolicy(),
		"seed":          h.seed,
		"window_s":      h.seconds,
		"warm_up":       "one message per sensor, closed loop, part of set-up",
		"env.spin_mops": spinScore(),
	}
}

func (h *harness) printEnvironment(f *os.File) map[string]any {
	env := h.environment()
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(f, "environment:")
	for _, k := range keys {
		fmt.Fprintf(f, "  %-16s %v\n", k, env[k])
	}
	return env
}

// spinScore is a quarter-second single-thread integer spin, in
// millions of iterations per second: a throttled CPU shows as a low
// score next to the results it spoiled.
func spinScore() float64 {
	var x uint64 = 1
	n := 0
	start := time.Now()
	for time.Since(start) < 250*time.Millisecond {
		for i := 0; i < 1<<16; i++ {
			x = mix(x)
		}
		n += 1 << 16
	}
	if x == 0 { // keep the loop observable
		n++
	}
	return float64(n) / time.Since(start).Seconds() / 1e6
}

// allWorkloads is the human-facing mode: every workload, optionally
// traced, optionally several sets for an A/A comparison.
func (h *harness) allWorkloads(traced bool, repeat int, reverse bool) (bool, error) {
	env := h.printEnvironment(os.Stdout)
	order := append([]workload(nil), workloads...)
	if reverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	ok := true
	sets := make([]map[string]*result, repeat)
	for set := range sets {
		sets[set] = map[string]*result{}
		for i := range order {
			w := &order[i]
			var r *result
			var err error
			if traced {
				r, err = h.measureLayers(w)
			} else {
				r, err = h.measureEndToEnd(w)
			}
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			h.printResult(os.Stdout, r, traced)
			ok = ok && r.correct
			sets[set][w.name] = r
		}
	}
	if repeat > 1 && !traced {
		ok = compareSets(sets, order) && ok
	}
	if err := h.writeRecord(env, sets, defs); err != nil {
		return false, err
	}
	return ok, nil
}

// compareSets is the A/A check: per workload and end-to-end metric it
// prints the median, the quartiles and the relative spread of the sets
// against the metric's bound, and fails when the sets disagree by more
// than the bound. The loadgen layer's figures of the same runs are
// listed with their spread and no verdict.
func compareSets(sets []map[string]*result, order []workload) bool {
	ok := true
	fmt.Printf("\nA/A over %d sets: relative spread = (Q3-Q1)/median, or |a-b|/min for two sets\n", len(sets))
	fmt.Printf("%-20s %-30s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for i := range order {
		w := &order[i]
		defs := append([]metricDef(nil), endToEnd...)
		for _, d := range perLayer {
			if sets[0][w.name].values[d.name] != 0 { // measured and exercised
				defs = append(defs, d)
			}
		}
		for _, d := range defs {
			xs := make([]float64, len(sets))
			for s := range sets {
				xs[s] = sets[s][w.name].values[d.name]
			}
			q1, q2, q3 := quartiles(xs)
			spread := relSpread(xs)
			if len(xs) == 2 {
				lo, hi := xs[0], xs[1]
				if lo > hi {
					lo, hi = hi, lo
				}
				q1, q3, spread = lo, hi, (hi-lo)/lo
			}
			verdict := ""
			bound := "     -" // the loadgen layer has none
			if d.bound > 0 {
				bound = fmt.Sprintf("%5.0f%%", d.bound*100)
				if spread > d.bound {
					verdict = "  DISAGREE"
					ok = false
				}
			}
			fmt.Printf("%-20s %-30s %12.6g %12.6g %12.6g %7.1f%% %s%s\n",
				w.name, d.name, q1, q2, q3, spread*100, bound, verdict)
		}
	}
	return ok
}

// writeRecord saves the printed numbers with the environment block.
func (h *harness) writeRecord(env map[string]any, sets []map[string]*result, defs []metricDef) error {
	type wl struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]float64 `json:"metrics"`
	}
	rec := struct {
		Env  map[string]any  `json:"env"`
		Sets []map[string]wl `json:"sets"`
	}{Env: env}
	for _, set := range sets {
		out := map[string]wl{}
		for name, r := range set {
			m := map[string]float64{}
			for _, d := range defs {
				m[d.name] = r.values[d.name]
			}
			out[name] = wl{r.correct, r.attempted, r.failed, m}
		}
		rec.Sets = append(rec.Sets, out)
	}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(h.outDir, "last_run.json")
	fmt.Printf("\nrecord written to %s\n", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
