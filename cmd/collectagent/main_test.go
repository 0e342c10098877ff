package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/membership/membershiptest"
)

func TestParseNodes(t *testing.T) {
	count, addrs, desc := parseNodes("3")
	if count != 3 || addrs != nil {
		t.Errorf("parseNodes(3) = %d, %v", count, addrs)
	}
	if desc == "" {
		t.Error("empty description for a node count")
	}

	count, addrs, _ = parseNodes(" 0 ")
	if count != 1 || addrs != nil {
		t.Errorf("parseNodes(0) = %d, %v — counts clamp to 1", count, addrs)
	}

	count, addrs, desc = parseNodes("127.0.0.1:4441, 127.0.0.1:4442")
	if count != 0 || len(addrs) != 2 || addrs[0] != "127.0.0.1:4441" || addrs[1] != "127.0.0.1:4442" {
		t.Errorf("parseNodes(addr list) = %d, %v", count, addrs)
	}
	if desc == "" {
		t.Error("empty description for an address list")
	}
}

// TestUnreadableTopicMapRefused: an agent restarted over a topic map
// it cannot read must not start over with an empty one — it would give
// new topics the codes the stored readings already use, and its first
// save would overwrite the old names. newAgent refuses, naming the
// file, and leaves it byte for byte as it was.
func TestUnreadableTopicMapRefused(t *testing.T) {
	dir := t.TempDir()
	f, err := parseArgs("-nodes", "1", "-data", dir)
	if err != nil {
		t.Fatal(err)
	}
	cluster, _, _, err := openCluster(f)
	if err != nil {
		t.Fatal(err)
	}
	agent, topics, err := newAgent(f, cluster)
	if err != nil {
		t.Fatal(err)
	}
	agent.Handle("/a/b", core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 1}}))
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}
	agent.Close()
	topics.Close()

	path := filepath.Join(dir, "topics")
	tf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.WriteString("2/zz\n"); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	before, err := os.ReadFile(path)
	if err != nil || string(before) != "0/a 1\n1/b 1\n2/zz\n" {
		t.Fatalf("topic map %q (%v), want /a/b's codes and the bad line", before, err)
	}

	cluster, _, _, err = openCluster(f)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, _, err := newAgent(f, cluster); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "2/zz") {
		t.Fatalf("agent over an unreadable topic map: %v, want an error naming %s and its line", err, path)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused topic map changed: %q, want %q (%v)", after, before, err)
	}
}

// parseArgs parses a command line the way main does, without exiting.
func parseArgs(args ...string) (*flags, error) {
	fs := flag.NewFlagSet("collectagent", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := registerFlags(fs)
	return f, fs.Parse(args)
}

// TestOpenClusterPlacementWiring builds the backend from each form of
// the command line: an embedded count, an address list and a gossip
// seed. The two remote forms must place every sensor identically at
// every -depth, and -depth must reach the ring in all three.
func TestOpenClusterPlacementWiring(t *testing.T) {
	addrs := membershiptest.StartNodes(t, 3)
	owners := func(args ...string) [][]string {
		t.Helper()
		f, err := parseArgs(append(args, "-replication", "2")...)
		if err != nil {
			t.Fatal(err)
		}
		cluster, watcher, _, err := openCluster(f)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		if watcher != nil {
			defer watcher.Stop()
		}
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
	for _, depth := range [][]string{nil, {"-depth", "0"}, {"-depth", "2"}} {
		fromList := owners(append([]string{"-nodes", list}, depth...)...)
		fromSeed := owners(append([]string{"-join", seed}, depth...)...)
		if !reflect.DeepEqual(fromList, fromSeed) {
			t.Errorf("%v: -nodes %s and -join %s place sensors differently", depth, list, seed)
		}
	}
	for _, form := range [][]string{{"-nodes", "3"}, {"-nodes", list}, {"-join", seed}} {
		def := owners(form...)
		if !reflect.DeepEqual(def, owners(append(form, "-depth", "4")...)) {
			t.Errorf("%v: the default is not -depth 4", form)
		}
		for i := range def {
			if !reflect.DeepEqual(def[i], def[i-i%16]) {
				t.Fatalf("%v: sensors %d and %d share four levels but not their owners", form, i, i-i%16)
			}
		}
		if reflect.DeepEqual(def, owners(append(form, "-depth", "0")...)) {
			t.Errorf("%v: -depth 0 changed nothing", form)
		}
	}
}

func TestPlacementHasNoPartitionerFlag(t *testing.T) {
	if _, err := parseArgs("-partitioner", "hash"); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("-partitioner: %v, want an unknown-flag error", err)
	}
}

// TestSnapshotIsNotAFlag: the data directory is the agent's one way to
// persist; the snapshot mode and its timer are gone.
func TestSnapshotIsNotAFlag(t *testing.T) {
	for _, args := range [][]string{{"-snapshot", "agent"}, {"-snapshot-interval", "5m"}} {
		if _, err := parseArgs(args...); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Fatalf("%s: %v, want an unknown-flag error", args[0], err)
		}
	}
}
