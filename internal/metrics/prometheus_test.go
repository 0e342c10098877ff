package metrics

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exposition format byte for byte:
// family grouping under one HELP/TYPE header, label injection, inline
// labels merged with injected ones, histogram bucket/sum/count series,
// and integer rendering without decimal points.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("dcdb_ops_total", "Operations.").Add(5)
	r.Counter(`dcdb_shard_ops_total{shard="1"}`, "Per-shard ops.").Add(2)
	r.Counter(`dcdb_shard_ops_total{shard="0"}`, "Per-shard ops.").Add(3)
	r.Gauge("dcdb_depth", "Queue depth.").Add(7)
	h := r.Histogram("dcdb_batch", "Batch sizes.")
	h.Observe(1) // bucket le=1
	h.Observe(2) // bucket le=2
	h.Observe(3) // bucket le=4
	h.Observe(3)

	var sb strings.Builder
	if err := WritePrometheus(&sb, Part{Reg: r, Labels: `node="0"`}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP dcdb_batch Batch sizes.
# TYPE dcdb_batch histogram
dcdb_batch_bucket{node="0",le="1"} 1
dcdb_batch_bucket{node="0",le="2"} 2
dcdb_batch_bucket{node="0",le="4"} 4
dcdb_batch_bucket{node="0",le="+Inf"} 4
dcdb_batch_sum{node="0"} 9
dcdb_batch_count{node="0"} 4
# HELP dcdb_depth Queue depth.
# TYPE dcdb_depth gauge
dcdb_depth{node="0"} 7
# HELP dcdb_ops_total Operations.
# TYPE dcdb_ops_total counter
dcdb_ops_total{node="0"} 5
# HELP dcdb_shard_ops_total Per-shard ops.
# TYPE dcdb_shard_ops_total counter
dcdb_shard_ops_total{shard="0",node="0"} 3
dcdb_shard_ops_total{shard="1",node="0"} 2
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusLatencyScale: nanosecond histograms expose bounds
// and sums in seconds.
func TestWritePrometheusLatencyScale(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("dcdb_lat_seconds", "Latency.", 1)
	h.Observe(1024) // ns; bucket upper bound 1024ns = 1.024e-06 s
	var sb strings.Builder
	if err := WritePrometheus(&sb, Part{Reg: r}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, `dcdb_lat_seconds_bucket{le="1.024e-06"} 1`) {
		t.Fatalf("missing scaled bucket bound:\n%s", got)
	}
	if !strings.Contains(got, "dcdb_lat_seconds_sum 1.024e-06") {
		t.Fatalf("missing scaled sum:\n%s", got)
	}
	if strings.Contains(got, "sampled") {
		t.Fatalf("sampling note should not appear for sampling=1:\n%s", got)
	}
}

func TestHandlerServesScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("dcdb_x_total", "").Inc()
	srv := httptest.NewServer(Handler(Part{Reg: r}, Part{Reg: Runtime()}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "dcdb_x_total 1") {
		t.Fatalf("scrape missing counter:\n%s", body)
	}
	if !strings.Contains(body, "dcdb_process_goroutines") {
		t.Fatalf("scrape missing runtime part:\n%s", body)
	}
}

// TestSamplingHelpNote: sampled latency histograms document the rate
// in HELP so dashboards do not misread _count as an ops counter.
func TestSamplingHelpNote(t *testing.T) {
	r := NewRegistry()
	r.LatencyHistogram("dcdb_s_seconds", "Insert latency.", 64)
	var sb strings.Builder
	if err := WritePrometheus(&sb, Part{Reg: r}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(sampled 1 in 64)") {
		t.Fatalf("missing sampling note:\n%s", sb.String())
	}
}

// A labeled histogram family keeps its labels on every suffixed
// series: the _count/_sum/_bucket suffix goes before the brace.
func TestLabeledHistogramExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.LatencyHistogram(`dcdb_x_seconds{shard="1"}`, "x", 1)
	h.Observe(100)
	var sb strings.Builder
	if err := WritePrometheus(&sb, Part{Reg: reg, Labels: `node="0"`}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`dcdb_x_seconds_count{shard="1",node="0"} 1`,
		`dcdb_x_seconds_sum{shard="1",node="0"}`,
		`dcdb_x_seconds_bucket{shard="1",node="0",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
