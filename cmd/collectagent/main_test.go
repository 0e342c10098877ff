package main

import (
	"errors"
	"flag"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
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

func TestTopicSaverGroupsConcurrentSaves(t *testing.T) {
	var saves atomic.Int64
	var inFlight atomic.Int64
	gate := make(chan struct{})
	s := newTopicSaver(func() error {
		if inFlight.Add(1) != 1 {
			t.Error("overlapping saves")
		}
		<-gate
		inFlight.Add(-1)
		saves.Add(1)
		return nil
	})

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.saveIncluding()
		}(i)
	}
	// Release saves until every caller returns; group commit means far
	// fewer saves than callers are needed (at most callers, typically 2).
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case gate <- struct{}{}:
		case <-done:
			for i, err := range errs {
				if err != nil {
					t.Errorf("caller %d: %v", i, err)
				}
			}
			if n := saves.Load(); n < 1 || n > callers {
				t.Errorf("%d saves for %d callers", n, callers)
			}
			return
		}
	}
}

func TestTopicSaverPropagatesError(t *testing.T) {
	boom := errors.New("disk full")
	s := newTopicSaver(func() error { return boom })
	if err := s.saveIncluding(); !errors.Is(err, boom) {
		t.Fatalf("saveIncluding = %v, want %v", err, boom)
	}
	// A failed save leaves the generation unpersisted; a later success
	// still covers it.
	calls := 0
	s2 := newTopicSaver(func() error { calls++; return nil })
	if err := s2.saveIncluding(); err != nil {
		t.Fatal(err)
	}
	if err := s2.saveIncluding(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("%d saves for 2 sequential callers, want 2", calls)
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
		if ms, _ := cluster.Members(); len(ms) != 3 {
			t.Fatalf("%v: %d members, want 3", args, len(ms))
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
