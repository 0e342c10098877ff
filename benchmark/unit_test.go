package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/metrics"
)

// streamBytes renders the first n messages of every connection of a
// workload-shaped stream as the bytes that would go on the wire.
func streamBytes(seed int64, sensors, conns, batch, n int) []byte {
	var buf bytes.Buffer
	pop := newPopulation(seed, sensors)
	rs := make([]core.Reading, batch)
	for c := 0; c < conns; c++ {
		st := newStream(pop, c, conns, batch)
		for i := 0; i < n; i++ {
			m := st.nextMessage(rs)
			buf.WriteString(pop.topics[m.sensor])
			buf.Write(core.EncodeReadings(rs))
		}
	}
	return buf.Bytes()
}

func queryDraws(seed int64, n int) []queryDraw {
	qs := newQueryStream(seed, 200)
	out := make([]queryDraw, n)
	for i := range out {
		out[i] = qs.next()
	}
	return out
}

func TestSameSeedSameStreams(t *testing.T) {
	a, b := streamBytes(7, 500, 2, 64, 600), streamBytes(7, 500, 2, 64, 600)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different message streams")
	}
	if bytes.Equal(a, streamBytes(8, 500, 2, 64, 600)) {
		t.Fatal("different seeds produced the same message stream")
	}
	if !reflect.DeepEqual(queryDraws(7, 1000), queryDraws(7, 1000)) {
		t.Fatal("the same seed produced different query streams")
	}
	if reflect.DeepEqual(queryDraws(7, 1000), queryDraws(8, 1000)) {
		t.Fatal("different seeds produced the same query stream")
	}
}

func TestQueryMixProportions(t *testing.T) {
	var n [numQueryKinds]int
	for _, d := range queryDraws(1, 20000) {
		n[d.kind]++
	}
	for kind, want := range map[queryKind]float64{queryRecent: 0.60, queryCold: 0.25, queryAggregate: 0.15} {
		if got := float64(n[kind]) / 20000; math.Abs(got-want) > 0.02 {
			t.Errorf("%s share is %.3f, want about %.2f", kind, got, want)
		}
	}
}

// The generated data must look like sensor data to the codecs:
// strictly increasing jittered timestamps, monotone integer counters,
// quantised gauges that move, set-points that almost never do.
func TestGeneratedSeriesShape(t *testing.T) {
	pop := newPopulation(3, kindsPerNode)
	const n = 2000
	for s := 0; s < kindsPerNode; s++ {
		kind := sensorKinds[s]
		distinct := map[float64]bool{}
		prev := pop.reading(s, 0)
		distinct[prev.Value] = true
		for k := int64(1); k < n; k++ {
			r := pop.reading(s, k)
			if r != pop.reading(s, k) {
				t.Fatalf("%s: reading %d is not a pure function of its index", kind.name, k)
			}
			dt := r.Timestamp - prev.Timestamp
			if dt < periodNs-2*jitterNs || dt > periodNs+2*jitterNs {
				t.Fatalf("%s: period %d ns at reading %d is outside ±2%% of %d", kind.name, dt, k, periodNs)
			}
			switch kind.class {
			case classCounter:
				if r.Value <= prev.Value || r.Value != math.Trunc(r.Value) {
					t.Fatalf("%s: counter went %v → %v at reading %d", kind.name, prev.Value, r.Value, k)
				}
			case classGauge:
				if q := r.Value / kind.quantum; math.Abs(q-math.Round(q)) > 1e-6 {
					t.Fatalf("%s: gauge value %v is not a multiple of %v", kind.name, r.Value, kind.quantum)
				}
			}
			distinct[r.Value] = true
			prev = r
		}
		switch kind.class {
		case classGauge:
			if len(distinct) < 4 {
				t.Errorf("%s: gauge took only %d distinct values in %d readings", kind.name, len(distinct), n)
			}
		case classSetpoint:
			if len(distinct) != 2 {
				t.Errorf("%s: set-point took %d distinct values, want 2 (never all equal, hardly ever changing)", kind.name, len(distinct))
			}
		}
	}
	if got := strings.Count(newPopulation(1, 8000).topics[7999], "/"); got < 5 {
		t.Errorf("topic depth is %d levels, want at least 5", got)
	}
}

func TestStreamsPartitionSensorsAndAdvance(t *testing.T) {
	pop := newPopulation(5, 100)
	seen := map[int]int{}
	for c := 0; c < 3; c++ {
		st := newStream(pop, c, 3, 4)
		rs := make([]core.Reading, 4)
		next := map[int]int64{}
		for i := 0; i < 3*len(st.order); i++ {
			m := st.nextMessage(rs)
			if m.k0 != next[m.sensor] {
				t.Fatalf("conn %d: sensor %d jumped to reading %d, want %d", c, m.sensor, m.k0, next[m.sensor])
			}
			next[m.sensor] += 4
			if rs[3] != pop.reading(m.sensor, m.k0+3) {
				t.Fatal("message readings differ from the generator's")
			}
		}
		for s := range next {
			seen[s]++
		}
	}
	if len(seen) != 100 {
		t.Fatalf("%d of 100 sensors are published", len(seen))
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("sensor %d is owned by %d connections", s, n)
		}
	}
}

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Microsecond
	}
	return out
}

func TestTailQuantilePicksWhatTheSampleSupports(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5},          // nothing has ten samples beyond it
		{40, 0.75},        // 10 beyond p75
		{100, 0.9},        // 10 beyond p90, 5 beyond p95
		{200, 0.95},       // 10 beyond p95, 2 beyond p99
		{999, 0.95},       // 9.99 beyond p99
		{1000, 0.99},      // exactly 10 beyond p99
		{10000, 0.999},    // 10 beyond p99.9
		{100000, 0.9999},  // 10 beyond p99.99
		{1000000, 0.9999}, // no higher candidate
	} {
		p, v := tailQuantile(durations(tc.n))
		if p != tc.want {
			t.Errorf("%d samples: picked p%g, want p%g", tc.n, p*100, tc.want*100)
		}
		if beyond := tc.n - int(v/time.Microsecond); tc.want > 0.5 && beyond < 9 {
			t.Errorf("%d samples: only %d samples lie beyond the chosen p%g", tc.n, beyond, p*100)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles of 10,20 = %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("relative spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name       string
		start, end int64
		children   []interval
		want       int64
	}{
		{"no children", 0, 100, nil, 100},
		{"one child", 0, 100, []interval{{10, 40}}, 70},
		{"disjoint children", 0, 100, []interval{{10, 20}, {50, 80}}, 60},
		{"overlapping children count once", 0, 100, []interval{{10, 60}, {40, 90}}, 20},
		{"nested child adds nothing", 0, 100, []interval{{10, 90}, {20, 30}}, 20},
		{"given out of order", 0, 100, []interval{{50, 80}, {10, 20}}, 60},
		{"clipped to the parent", 10, 100, []interval{{0, 20}, {90, 150}}, 70},
		{"child outside the parent", 10, 100, []interval{{200, 300}}, 90},
		{"fully covered", 0, 100, []interval{{0, 50}, {50, 100}}, 0},
	} {
		if got := selfTime(tc.start, tc.end, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// The tracer links the decorators' spans through the one request that
// can be in flight per sensor and side.
func TestTracerLinksSpansAndAccumulatesSelfTime(t *testing.T) {
	tr := newTracer(8)
	key := reqKey{id: core.SensorID{Hi: 1}}
	tr.sent(key)
	root := tr.begin(key)
	id, parent, req, saved := tr.enter(key)
	if parent != root || req != root {
		t.Fatalf("middle span has parent %d request %d, want %d", parent, req, root)
	}
	tr.leaf(key, spanRPCWrite, 20, 60)
	tr.leaf(key, spanRPCWrite, 30, 90)
	tr.leave(key, spanClusterWrite, id, parent, req, saved, 10, 100)
	tr.end(key, spanHandle, root, 5, 120)

	if st := tr.stat(spanClusterWrite); st.count != 1 || st.total != 90 || st.self != 20 || st.wait != 30 {
		t.Errorf("cluster span: %+v, want total 90, self 20 (children cover 20..90), wait 30 (60 → 90)", st)
	}
	if st := tr.stat(spanHandle); st.self != 115-90 {
		t.Errorf("handle self = %d, want %d", st.self, 115-90)
	}
	if tr.e2e.count != 1 {
		t.Errorf("publish → stored was recorded %d times, want 1", tr.e2e.count)
	}
	spans := tr.spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans recorded, want 4", len(spans))
	}
	for _, sp := range spans {
		if sp.Req != root {
			t.Errorf("span %s carries request %d, want %d", sp.Name, sp.Req, root)
		}
		if sp.Name == spanRPCWrite && sp.Parent != id {
			t.Errorf("replica span has parent %d, want the cluster span %d", sp.Parent, id)
		}
	}
	// The ring keeps only the newest spans.
	for i := 0; i < 20; i++ {
		tr.leaf(reqKey{}, "x", int64(i), int64(i+1))
	}
	if spans = tr.spans(); len(spans) != 8 || spans[7].Start != 19 || spans[0].Start != 12 {
		t.Errorf("ring holds %d spans from %d to %d, want the last 8 (12..19)", len(spans), spans[0].Start, spans[len(spans)-1].Start)
	}
	tr.reset()
	if st := tr.stat(spanHandle); st.count != 0 {
		t.Error("reset kept the accumulated figures")
	}
}

// fakeClock advances only when told to; a Sleep may overshoot.
type fakeClock struct {
	now       time.Time
	overshoot map[int]time.Duration // by Sleep call number
	sleeps    int
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.now = c.now.Add(d + c.overshoot[c.sleeps])
	c.sleeps++
}

func TestPaceChargesLatencyFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	// The generator oversleeps by 4 ms before operation 8 (its 5th sleep:
	// operation 0 and the three sends behind the stall do not sleep).
	clk := &fakeClock{now: start, overshoot: map[int]time.Duration{4: 4 * time.Millisecond}}
	const interval = 10 * time.Millisecond
	var st paceStats
	op := 0
	pace(clk, start, start.Add(100*time.Millisecond), interval, &st, func(time.Time) {
		cost := time.Millisecond
		if op == 2 {
			cost = 35 * time.Millisecond // the system stalls on the third operation
		}
		clk.now = clk.now.Add(cost)
		op++
	})
	if op != 10 {
		t.Fatalf("%d operations were sent, want all 10 due before the end", op)
	}
	want := []time.Duration{
		1, 1, 35, // on time; the stall itself
		26, 17, 8, // due at 30/40/50 ms but sent at 55/56/57 ms: the wait is charged to them
		1, 1, // caught up
		5, 1, // sent 4 ms late by the generator: charged too
	}
	// The stall is the system's doing, not the generator's: the three
	// sends behind it started the moment the connection was free.
	wantLate := []time.Duration{0, 0, 0, 0, 0, 0, 0, 0, 4, 0}
	for i := range want {
		if got := st.latency[i]; got != want[i]*time.Millisecond {
			t.Errorf("operation %d: latency %v, want %v", i, got, want[i]*time.Millisecond)
		}
		if got := st.late[i]; got != wantLate[i]*time.Millisecond {
			t.Errorf("operation %d: generator %v late, want %v", i, got, wantLate[i]*time.Millisecond)
		}
	}
	if st.misses != 1 {
		t.Errorf("%d scheduling misses, want the 1 send the generator delayed beyond %v", st.misses, lateThreshold)
	}
}

func TestResolveQueryRanges(t *testing.T) {
	for _, n := range []int64{1, 7, 999, 1000, 1001, 5000} {
		for _, off := range []float64{0, 0.5, 0.999999} {
			for kind := queryKind(0); kind < numQueryKinds; kind++ {
				lo, hi := resolve(queryDraw{kind: kind, offset: off}, n)
				if lo < 0 || hi > n || lo >= hi {
					t.Fatalf("%s over %d readings at %.2f: [%d,%d) is out of range", kind, n, off, lo, hi)
				}
				if kind != queryAggregate && hi-lo > querySpan {
					t.Fatalf("%s read spans %d readings, more than %d", kind, hi-lo, querySpan)
				}
			}
		}
	}
	if lo, hi := resolve(queryDraw{kind: queryRecent}, 5000); lo != 4000 || hi != 5000 {
		t.Errorf("recent over 5000 = [%d,%d), want the newest 1000", lo, hi)
	}
	if lo, hi := resolve(queryDraw{kind: queryAggregate}, 5000); lo != 0 || hi != 5000 {
		t.Errorf("aggregate over 5000 = [%d,%d), want everything", lo, hi)
	}
}

func TestCheckersRejectWrongAnswers(t *testing.T) {
	pop := newPopulation(1, 16)
	want := make([]core.Reading, 50)
	pop.fill(want, 3, 100)
	if err := checkReadings(append([]core.Reading(nil), want...), want); err != nil {
		t.Fatalf("identical answer rejected: %v", err)
	}
	if checkReadings(want[:49], want) == nil {
		t.Error("a short answer passed")
	}
	wrong := append([]core.Reading(nil), want...)
	wrong[20].Value = math.Nextafter(wrong[20].Value, math.Inf(1))
	if checkReadings(wrong, want) == nil {
		t.Error("a one-ulp value difference passed")
	}
	wrong = append([]core.Reading(nil), want...)
	wrong[0].Timestamp++
	if checkReadings(wrong, want) == nil {
		t.Error("a shifted timestamp passed")
	}
}

func TestMetricSetScrapeAndSamples(t *testing.T) {
	text := `# HELP dcdb_agent_readings_total Sensor readings written.
# TYPE dcdb_agent_readings_total counter
dcdb_agent_readings_total 1234
dcdb_rpc_client_net_written_bytes_total{node="0"} 100
dcdb_rpc_client_net_written_bytes_total{node="1"} 250
dcdb_rpc_client_call_latency_seconds_sum{op="query",node="0"} 0.5
dcdb_rpc_client_call_latency_seconds_sum{op="flush",node="0"} 9
dcdb_rpc_client_call_latency_seconds_count{op="query",node="0"} 10
`
	m := parsePrometheus(text)
	if got := m.sum("dcdb_agent_readings_total"); got != 1234 {
		t.Errorf("readings = %v", got)
	}
	if got := m.sum("dcdb_rpc_client_net_written_bytes_total"); got != 350 {
		t.Errorf("bytes over both nodes = %v, want 350", got)
	}
	if got := m.sum("dcdb_rpc_client_call_latency_seconds_sum", `op="query"`); got != 0.5 {
		t.Errorf("query latency sum = %v, want 0.5 (the flush series must not count)", got)
	}
	if got := m.sum("dcdb_rpc_client_call_latency_seconds"); got != 0 {
		t.Errorf("a family prefix matched other families: %v", got)
	}
	before := metricSet{"dcdb_agent_readings_total": 1000}
	if got := m.minus(before).sum("dcdb_agent_readings_total"); got != 234 {
		t.Errorf("delta = %v, want 234", got)
	}

	// Registry samples land under the names a scrape would show.
	reg := metrics.NewRegistry()
	reg.Counter("dcdb_x_total", "").Add(3)
	h := reg.LatencyHistogram(`dcdb_lat_seconds{op="a"}`, "", 1)
	h.Observe(2000)
	h.Observe(4000)
	set := metricSet{}
	set.addSamples(reg.Gather(), `node="1"`)
	if got := set[`dcdb_x_total{node="1"}`]; got != 3 {
		t.Errorf("labelled counter = %v in %v", got, set)
	}
	if got := set[`dcdb_lat_seconds_count{op="a",node="1"}`]; got != 2 {
		t.Errorf("histogram count = %v in %v", got, set)
	}
	if got := set[`dcdb_lat_seconds_sum{op="a",node="1"}`]; math.Abs(got-6e-6) > 1e-12 {
		t.Errorf("histogram sum = %v s, want 6µs", got)
	}
	if hs := histogram(reg.Gather(), "dcdb_lat_seconds"); hs.Count() != 2 {
		t.Errorf("merged histogram holds %d observations", hs.Count())
	}
}

// BENCHMARK.json, the tables in report.go and README.md name the same
// workloads and metrics: later issues cite these names verbatim.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark directory: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the code defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: the why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if !bytes.Contains(readme, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not mention workload %s", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(got), kind, len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match the code's %v", kind, d.name, d.bound)
			}
			if bounded && (d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound %v is outside (0, 0.25]", d.name, d.bound)
			}
			if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 {
				t.Errorf("%s: duplicate or over-long name or unit", d.name)
			}
			seen[d.name] = true
			if !bytes.Contains(readme, []byte("`"+d.name+"`")) {
				t.Errorf("README.md does not explain %s", d.name)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd, true)
	check("per-layer", spec.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
}
