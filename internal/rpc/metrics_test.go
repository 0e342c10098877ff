package rpc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/metrics"
	"dcdb/internal/store"
)

// TestStatsFullRoundTrip: the versioned Stats body carries the node's
// full metrics snapshot over the wire, merged with the server's own
// RPC metrics, while the legacy call keeps its exact shape.
func TestStatsFullRoundTrip(t *testing.T) {
	_, srv, cl := testPair(t, ClientOptions{})
	id := sid(7, 7)
	if err := cl.InsertBatch(id, []core.Reading{rd(1, 1.0)}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(id, 0, 1<<60); err != nil {
		t.Fatal(err)
	}

	ins, q, entries, samples, err := cl.StatsFull()
	if err != nil {
		t.Fatalf("StatsFull: %v", err)
	}
	if ins != 1 || q != 1 || entries != 1 {
		t.Fatalf("counters = %d/%d/%d, want 1/1/1", ins, q, entries)
	}
	byName := map[string]metrics.Sample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	if got := byName["dcdb_store_inserts_total"].Value; got != 1 {
		t.Fatalf("snapshot dcdb_store_inserts_total = %v, want 1", got)
	}
	// Server-side RPC metrics ride along in the same snapshot, and the
	// server's own registry agrees.
	if got := byName["dcdb_rpc_server_requests_total"].Value; got < 2 {
		t.Fatalf("snapshot dcdb_rpc_server_requests_total = %v, want >= 2", got)
	}
	srvReqs := -1.0
	for _, s := range srv.Metrics().Gather() {
		if s.Name == "dcdb_rpc_server_requests_total" {
			srvReqs = s.Value
		}
	}
	if srvReqs < byName["dcdb_rpc_server_requests_total"].Value {
		t.Fatalf("server registry requests %v < wire snapshot %v", srvReqs, byName["dcdb_rpc_server_requests_total"].Value)
	}
	// Query latency histograms survive the wire as histograms.
	found := false
	for name, s := range byName {
		if strings.HasPrefix(name, "dcdb_store_query_latency_seconds") && s.Hist != nil && s.Hist.Count() > 0 {
			found = true
			if s.Hist.Scale != 1e-9 {
				t.Fatalf("%s scale = %v, want 1e-9", name, s.Hist.Scale)
			}
		}
	}
	if !found {
		t.Fatal("no populated query latency histogram crossed the wire")
	}

	// Legacy path unchanged.
	ins, q, entries = cl.Stats()
	if ins != 1 || q != 1 || entries != 1 {
		t.Fatalf("legacy Stats = %d/%d/%d, want 1/1/1", ins, q, entries)
	}

	// MetricsSnapshot implements store.MetricsSource over the wire.
	snap, err := cl.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("MetricsSnapshot returned no samples")
	}
}

// TestClientMetricsCounters: the client's registry tracks call latency,
// byte counters (matching NetBytes) and connects.
func TestClientMetricsCounters(t *testing.T) {
	_, _, cl := testPair(t, ClientOptions{})
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	read, written := cl.NetBytes()
	if read <= 0 || written <= 0 {
		t.Fatalf("NetBytes = %d/%d after a call", read, written)
	}
	byName := map[string]metrics.Sample{}
	for _, s := range cl.Metrics().Gather() {
		byName[s.Name] = s
	}
	if got := byName["dcdb_rpc_client_net_read_bytes_total"].Value; got != float64(read) {
		t.Fatalf("registry read bytes %v != NetBytes %d", got, read)
	}
	if got := byName["dcdb_rpc_client_net_written_bytes_total"].Value; got != float64(written) {
		t.Fatalf("registry written bytes %v != NetBytes %d", got, written)
	}
	if got := byName["dcdb_rpc_client_connects_total"].Value; got != 1 {
		t.Fatalf("connects = %v, want 1", got)
	}
	ping := byName[`dcdb_rpc_client_call_latency_seconds{op="ping"}`]
	if ping.Hist == nil || ping.Hist.Count() != 1 {
		t.Fatalf("ping latency histogram = %+v, want count 1", ping)
	}
	if byName["dcdb_rpc_client_inflight_requests"].Value != 0 {
		t.Fatal("in-flight gauge did not return to zero")
	}
}

// TestStatsOneRequestShape: Stats and StatsFull are the same request —
// the three numbers Stats returns are the head of the one response —
// and the server refuses a Stats body that is not exactly one version
// byte >= 1 (the empty body of pre-versioning clients included).
func TestStatsOneRequestShape(t *testing.T) {
	n, _, cl := testPair(t, ClientOptions{})
	if err := n.InsertBatch(sid(2, 2), []core.Reading{rd(1, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	ins, q, entries := cl.Stats()
	fins, fq, fentries, samples, err := cl.StatsFull()
	if err != nil || len(samples) == 0 {
		t.Fatalf("StatsFull: %d samples, %v", len(samples), err)
	}
	if ins != 1 || ins != fins || q != fq || entries != fentries {
		t.Fatalf("Stats = %d/%d/%d, StatsFull = %d/%d/%d", ins, q, entries, fins, fq, fentries)
	}
	for _, body := range [][]byte{nil, {0}, {1, 2}} {
		if _, err := cl.call(opStats, body); err == nil {
			t.Fatalf("server accepted stats body %v", body)
		}
	}
}

// TestEveryOpHasNameAndHistogram walks the op* constants declared in
// protocol.go (parsed from source: Go cannot enumerate constants) and
// fails when one lacks a metric label, falls outside the per-op
// histogram arrays — how the op of every write once went without
// latency histograms on either side — or reuses the number of a retired
// op.
func TestEveryOpHasNameAndHistogram(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "protocol.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]byte{}
	ast.Inspect(file, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
			return true
		}
		name := vs.Names[0].Name
		lit, ok := vs.Values[0].(*ast.BasicLit)
		if !ok || !strings.HasPrefix(name, "op") || name[2] < 'A' || name[2] > 'Z' {
			return true
		}
		v, err := strconv.ParseUint(lit.Value, 0, 8)
		if err != nil {
			t.Fatalf("%s = %s: %v", name, lit.Value, err)
		}
		ops[name] = byte(v)
		return true
	})
	if len(ops) != 15 || ops["opWrite"] != opWrite {
		t.Fatalf("parsed %d op constants from protocol.go: %v", len(ops), ops)
	}
	// 2, 3 and 16 were Insert, InsertBatch and InsertVersioned (a write
	// is an opWrite frame now), 4 and 5 the one-frame Query and
	// QueryPrefix, 17 the one-frame QueryVersioned (a stream now), 18
	// Digest (an OpSummary Aggregate now), 20 the write frame whose body
	// led with an entry count, 21 the write answered per entry. A peer
	// that still sends them must get "unknown op", never another op's
	// behaviour.
	reserved := []byte{2, 3, 4, 5, 16, 17, 18, 20, 21}
	client, server := newClientMetrics(), NewServer(store.NewNode(0), true).met
	labels := map[string]string{}
	for _, op := range reserved {
		if opName(op) != "unknown" || client.callLat[op] != nil || server.handleLat[op] != nil {
			t.Errorf("reserved op number %d has a name or a histogram", op)
		}
	}
	for name, op := range ops {
		if slices.Contains(reserved, op) {
			t.Errorf("%s reuses the reserved op number %d", name, op)
		}
		label := opName(op)
		if label == "unknown" {
			t.Errorf("%s (%d) has no opName", name, op)
		}
		if other, dup := labels[label]; dup {
			t.Errorf("%s and %s share the label %q", name, other, label)
		}
		labels[label] = name
		if op > lastOp {
			t.Errorf("%s (%d) lies beyond lastOp (%d): it has no latency histogram", name, op, lastOp)
			continue
		}
		if client.callLat[op] == nil || server.handleLat[op] == nil {
			t.Errorf("%s (%d) has no client or server latency histogram", name, op)
		}
	}
	if int(lastOp) != len(ops)+len(reserved) {
		t.Errorf("lastOp = %d but %d ops are declared and %d numbers reserved", lastOp, len(ops), len(reserved))
	}
}
