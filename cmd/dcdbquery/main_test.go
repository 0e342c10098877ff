package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/membership/membershiptest"
	"dcdb/internal/metrics"
	"dcdb/internal/store"
)

func TestPrintSamples(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("dcdb_test_b_total", "b").Add(3)
	reg.Gauge("dcdb_test_a_gauge", "a").Add(15)
	h := reg.LatencyHistogram("dcdb_test_lat_seconds", "lat", 1)
	h.Observe(1000)
	h.Observe(3000)

	var buf bytes.Buffer
	printSamples(&buf, reg.Gather())
	out := buf.String()

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), out)
	}
	// Sorted by name: gauge, counter, histogram.
	if !strings.Contains(lines[0], "dcdb_test_a_gauge") || !strings.Contains(lines[0], "15") {
		t.Errorf("gauge line wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "dcdb_test_b_total") || !strings.Contains(lines[1], "3") {
		t.Errorf("counter line wrong: %q", lines[1])
	}
	hl := lines[2]
	if !strings.Contains(hl, "count=2") {
		t.Errorf("histogram count missing: %q", hl)
	}
	// Sum is 4000ns scaled to seconds (float rounding may show as
	// 4.000000000000001e-06).
	if !strings.Contains(hl, "sum=4") || !strings.Contains(hl, "e-06 p50=") {
		t.Errorf("histogram sum wrong: %q", hl)
	}
	// p50 falls in the (512,1024] bucket, p99 in (2048,4096]; upper
	// bounds scaled by 1e-9.
	if !strings.Contains(hl, "p50=1.024e-06") || !strings.Contains(hl, "p99=4.096e-06") {
		t.Errorf("histogram quantiles wrong: %q", hl)
	}
}

func TestPrintStats(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("dcdb_test_x_total", "x").Add(9)

	var buf bytes.Buffer
	printStats(&buf, []store.NodeStats{
		{Index: 0, Inserts: 10, Queries: 2, Entries: 10, Samples: reg.Gather()},
		{Index: 1, Addr: "127.0.0.1:4441", Err: errors.New("dial refused")},
	})
	out := buf.String()

	if !strings.Contains(out, "node 0 (local): inserts=10 queries=2 entries=10") {
		t.Errorf("local node line missing:\n%s", out)
	}
	if !strings.Contains(out, "dcdb_test_x_total") {
		t.Errorf("local node samples missing:\n%s", out)
	}
	if !strings.Contains(out, "node 1 (127.0.0.1:4441):") {
		t.Errorf("remote node line missing:\n%s", out)
	}
	if !strings.Contains(out, "metrics unavailable: dial refused") {
		t.Errorf("error line missing:\n%s", out)
	}
}

// parseArgs parses a command line the way main does, without exiting.
func parseArgs(args ...string) (*flags, error) {
	fs := flag.NewFlagSet("dcdbquery", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := registerFlags(fs)
	return f, fs.Parse(args)
}

// TestOpenPlacementWiring connects to one live cluster through an
// address list and through a gossip seed: both must place every sensor
// identically at every -depth, and -depth must reach the ring.
func TestOpenPlacementWiring(t *testing.T) {
	addrs := membershiptest.StartNodes(t, 3)
	db := t.TempDir()
	owners := func(args ...string) [][]string {
		t.Helper()
		f, err := parseArgs(append(args, "-db", db, "-replication", "2")...)
		if err != nil {
			t.Fatal(err)
		}
		_, cluster, err := open(f)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		if n := len(cluster.Backends()); n != 3 {
			t.Fatalf("%v: %d members, want 3", args, n)
		}
		// Sixteen leaves under each of sixteen depth-4 subtrees.
		var out [][]string
		for i := uint64(0); i < 256; i++ {
			out = append(out, cluster.Owners(core.SensorID{Hi: (i/16 + 1) * 0x9e3779b97f4a7c15, Lo: i * 0xbf58476d1ce4e5b9}))
		}
		return out
	}
	list, seed := strings.Join(addrs, ","), addrs[1]
	byDepth := make(map[string][][]string)
	for _, depth := range []string{"", "0", "2", "4"} {
		var extra []string
		if depth != "" {
			extra = []string{"-depth", depth}
		}
		fromList := owners(append([]string{"-nodes", list}, extra...)...)
		fromSeed := owners(append([]string{"-join", seed}, extra...)...)
		if !reflect.DeepEqual(fromList, fromSeed) {
			t.Errorf("-depth %q: -nodes %s and -join %s place sensors differently", depth, list, seed)
		}
		byDepth[depth] = fromList
	}
	if !reflect.DeepEqual(byDepth[""], byDepth["4"]) {
		t.Error("the default is not -depth 4")
	}
	if reflect.DeepEqual(byDepth[""], byDepth["0"]) {
		t.Error("-depth 0 changed nothing")
	}
}

func TestPlacementHasNoPartitionerFlag(t *testing.T) {
	if _, err := parseArgs("-partitioner", "hash"); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("-partitioner: %v, want an unknown-flag error", err)
	}
}
