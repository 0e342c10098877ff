package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	buildErr  error
	testBuild string
)

// testHarness builds dcdbnode and collectagent once per test binary
// and returns a harness with a short window.
func testHarness(t *testing.T, seconds float64) *harness {
	t.Helper()
	if testing.Short() {
		t.Skip("drives real processes; skipped with -short")
	}
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	buildOnce.Do(func() {
		testBuild, buildErr = os.MkdirTemp("", "dcdb-benchmark-test")
		if buildErr == nil {
			buildErr = buildBinaries(root, filepath.Join(testBuild, "bin"))
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	t.Cleanup(killAllProcs)
	return &harness{
		root:    root,
		binDir:  filepath.Join(testBuild, "bin"),
		workDir: t.TempDir(),
		outDir:  t.TempDir(),
		seed:    42,
		seconds: seconds,
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	killAllProcs()
	if testBuild != "" {
		os.RemoveAll(testBuild)
	}
	os.Exit(code)
}

// checkEmitted decodes a driver result line and checks that it carries
// exactly the metrics of defs, each once, each with its unit and a
// finite value.
func checkEmitted(t *testing.T, w string, r *result, defs []metricDef, nonZero bool) {
	t.Helper()
	b, err := encodeResult(r, defs)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("%s: result line does not parse: %v\n%s", w, err, b)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d; notes: %v", w, out.Correct, out.Attempted, out.Failed, r.notes)
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", w, len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: %s was not emitted", w, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: %s has unit %q, want %q", w, d.name, m.Unit, d.unit)
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s: %s has no finite value", w, d.name)
		case nonZero && *m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s is %v; every workload must exercise every one", w, d.name, *m.Value)
		}
		if _, measured := r.values[d.name]; !measured {
			t.Errorf("%s: %s was never measured (the emitted 0 is a default)", w, d.name)
		}
	}
}

// TestBenchmarkSmoke runs all four workloads with a two-second window
// against real processes, once for the end-to-end metrics and once
// traced for the per-layer metrics. Fleets and preload are cut down:
// three set-ups and three verifications of 20 000 sensors alone would
// take half a minute.
func TestBenchmarkSmoke(t *testing.T) {
	h := testHarness(t, 2)
	for i := range workloads {
		small := workloads[i]
		small.sensors, small.preload = min(small.sensors, 1000), min(small.preload, 640)
		w := &small
		r, err := h.measureEndToEnd(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkEmitted(t, w.name, r, endToEnd, true)

		r, err = h.measureLayers(w)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkEmitted(t, w.name+" traced", r, perLayer, false)
		v := r.values
		if v["loadgen.failed_ops_frac"] != 0 || v["loadgen.lost_readings"] != 0 {
			t.Errorf("%s: failed_ops_frac %v, lost_readings %v", w.name, v["loadgen.failed_ops_frac"], v["loadgen.lost_readings"])
		}
		// The generator, the broker and the agent agree on what was sent.
		if v["mqtt.published"] != v["collectagent.messages"] || v["collectagent.readings"] != v["mqtt.published"]*float64(w.batch) {
			t.Errorf("%s: broker saw %v messages, agent handled %v messages and %v readings at %d per message",
				w.name, v["mqtt.published"], v["collectagent.messages"], v["collectagent.readings"], w.batch)
		}
		if v["collectagent.errors"] != 0 || v["cluster.hints_queued"] != 0 || v["rpc.call_errors"] != 0 {
			t.Errorf("%s: the run was unhealthy: agent errors %v, hints %v, rpc errors %v",
				w.name, v["collectagent.errors"], v["cluster.hints_queued"], v["rpc.call_errors"])
		}
		positive := []string{"collectagent.handle_self_ns_per_msg", "cluster.insert_self_ns_per_batch", "rpc.insert_rtt_us_per_call",
			"trace.stored_us_per_msg", "node.insert_durable_ns_per_reading", "node.query_cold_us", "loadgen.ack_p50_ms", "loadgen.capacity_per_s"}
		wantSpans := []string{spanHandle, spanClusterWrite, spanRPCWrite}
		// What only queries exercise is zero, not missing, elsewhere.
		queryOnly := []string{"cluster.query_self_us", "libdcdb.query_self_us",
			"loadgen.query_recent_p50_ms", "loadgen.query_cold_p50_ms", "loadgen.aggregate_p50_ms"}
		if w.queries {
			positive = append(positive, queryOnly...)
			wantSpans = append(wantSpans, spanLibQuery, spanClusterRead, spanRPCRead)
		} else {
			for _, name := range queryOnly {
				if v[name] != 0 {
					t.Errorf("%s: %s = %v on a workload without queries", w.name, name, v[name])
				}
			}
		}
		for _, name := range positive {
			if v[name] <= 0 {
				t.Errorf("%s: %s = %v, want a measured positive figure", w.name, name, v[name])
			}
		}
		trace := filepath.Join(h.outDir, w.name+".trace.json")
		var file struct {
			Spans []span
		}
		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatalf("%s: no span file: %v", w.name, err)
		}
		if err := json.Unmarshal(raw, &file); err != nil || len(file.Spans) == 0 {
			t.Fatalf("%s: span file %s holds %d spans, err %v", w.name, trace, len(file.Spans), err)
		}
		names := map[string]bool{}
		for _, sp := range file.Spans {
			names[sp.Name] = true
			if sp.End < sp.Start {
				t.Fatalf("%s: span %+v ends before it starts", w.name, sp)
			}
		}
		for _, want := range wantSpans {
			if !names[want] {
				t.Errorf("%s: span file has no %s span", w.name, want)
			}
		}
	}
}

// TestVerifierFailsACorruptedRun corrupts one acknowledged reading's
// expectation; the run must come back incorrect, which is what makes
// the command exit non-zero.
func TestVerifierFailsACorruptedRun(t *testing.T) {
	h := testHarness(t, 1)
	h.corrupt = true
	r, err := h.measureEndToEnd(workloadByName("burst_batch"))
	if err != nil {
		t.Fatal(err)
	}
	if r.correct || r.failed != 1 {
		t.Fatalf("a corrupted expectation went unnoticed: correct=%v failed=%d", r.correct, r.failed)
	}
	found := false
	for _, n := range r.notes {
		found = found || strings.Contains(n, "were acknowledged")
	}
	if !found {
		t.Errorf("the failure does not name the mismatching sensor: %v", r.notes)
	}
}

// A child that dies must be noticed, its log shown, and nothing may be
// left running.
func TestDeadChildIsReported(t *testing.T) {
	h := testHarness(t, 1)
	s, err := startSUT(h.binDir, filepath.Join(h.workDir, "dead"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	if dead := s.died(); len(dead) != 0 {
		t.Fatalf("healthy cluster reported dead children: %v", dead)
	}
	victim := s.nodes[1]
	syscall.Kill(victim.pid(), syscall.SIGKILL)
	<-victim.exited
	dead := s.died()
	if len(dead) != 1 || !strings.Contains(dead[0], "node1") || !strings.Contains(dead[0], "dcdbnode: serving") {
		t.Fatalf("died() = %v, want node1 with its log tail", dead)
	}
	pids := []int{s.agent.pid(), s.nodes[0].pid(), s.nodes[1].pid()}
	s.stop()
	deadline := time.Now().Add(5 * time.Second)
	for _, pid := range pids {
		for syscall.Kill(pid, 0) == nil {
			if time.Now().After(deadline) {
				t.Fatalf("process %d survived stop()", pid)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if _, err := os.Stat(s.dir); !os.IsNotExist(err) {
		t.Errorf("stop() left %s behind", s.dir)
	}
}

func TestStartFailureShowsTheLog(t *testing.T) {
	h := testHarness(t, 1)
	dir := t.TempDir()
	p, err := startProc(dir, "broken", filepath.Join(h.binDir, "dcdbnode"), "-listen", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.waitLine("dcdbnode: serving ", 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "-data is required") {
		t.Fatalf("waitLine = %v, want the child's own complaint about -data", err)
	}
	p.kill()
}
