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
	if addrs, err := parseNodes(" 1 "); addrs != nil || err != nil {
		t.Errorf("parseNodes(1) = %v, %v, want the embedded store", addrs, err)
	}
	addrs, err := parseNodes("127.0.0.1:4441, 127.0.0.1:4442")
	if err != nil || len(addrs) != 2 || addrs[0] != "127.0.0.1:4441" || addrs[1] != "127.0.0.1:4442" {
		t.Errorf("parseNodes(addr list) = %v, %v", addrs, err)
	}
	for _, s := range []string{"0", "3", ","} {
		if addrs, err := parseNodes(s); err == nil {
			t.Errorf("parseNodes(%q) = %v, want an error", s, addrs)
		}
	}
}

// TestEmbeddedReplicasRefused: the embedded agent runs one store, so a
// node count above 1, and a replication above 1 without storage nodes,
// are refused by name with the way out, and leave the data directory
// empty; -join with a replication starts.
func TestEmbeddedReplicasRefused(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-nodes", "3"}, "-nodes 3"},
		{[]string{"-nodes", "3", "-data", dir}, "-nodes 3"},
		{[]string{"-nodes", "1", "-replication", "2"}, "-replication 2"},
		{[]string{"-replication", "2", "-data", dir}, "-replication 2"},
	} {
		f, err := parseArgs(c.args...)
		if err != nil {
			t.Fatal(err)
		}
		cluster, _, _, err := openCluster(f)
		if err == nil {
			cluster.Close()
		}
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "dcdbnode processes") {
			t.Errorf("%v: %v, want a refusal naming %s and the way out", c.args, err, c.want)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("the refusals left %v in the data directory (%v)", entries, err)
	}

	f, err := parseArgs("-join", membershiptest.StartNodes(t, 2)[0], "-replication", "2")
	if err != nil {
		t.Fatal(err)
	}
	cluster, watcher, _, err := openCluster(f)
	if err != nil {
		t.Fatalf("-join with -replication 2: %v", err)
	}
	watcher.Stop()
	cluster.Close()
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

// TestOpenClusterPlacementWiring builds the backend from each remote
// form of the command line: an address list and a gossip seed. Both
// must place every sensor identically at every -depth, and -depth must
// reach the ring in both.
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
	for _, form := range [][]string{{"-nodes", list}, {"-join", seed}} {
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
