package tooldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
	"dcdb/internal/membership"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
)

func TestOpenEmpty(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "fresh")
	conn, node, err := Open(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if conn == nil || node == nil {
		t.Fatal("nil connection or node")
	}
	if got := conn.ListSensors(""); len(got) != 0 {
		t.Errorf("fresh db lists %v", got)
	}
}

func TestSaveOpenRoundtrip(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "db")
	conn, c, err := Edit(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.PublishSensor(core.Metadata{Topic: "/a/power", Unit: "W", Scale: 1}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := conn.InsertBatch("/a/power", []core.Reading{{Timestamp: i * 1000, Value: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.PublishSensor(core.Metadata{Topic: "/a/double", Virtual: true, Expression: "</a/power> * 2"}); err != nil {
		t.Fatal(err)
	}
	if err := Save(conn, c, prefix); err != nil {
		t.Fatal(err)
	}

	conn2, node2, err := Open(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if node2 == nil {
		t.Fatal("nil node")
	}
	rs, err := conn2.Query("/a/power", 0, 1<<62)
	if err != nil || len(rs) != 10 {
		t.Fatalf("reloaded query: %d readings, %v", len(rs), err)
	}
	// Metadata survived, including the virtual sensor.
	m, ok := conn2.Metadata("/a/power")
	if !ok || m.Unit != "W" {
		t.Fatalf("metadata = %+v, %v", m, ok)
	}
	vs, err := conn2.Query("/a/double", 0, 1<<62)
	if err != nil || len(vs) != 10 || vs[3].Value != 6 {
		t.Fatalf("virtual query after reload: %v, %v", vs, err)
	}
	// Hierarchy rebuilt from the topic map.
	if got := conn2.ListSensors("/a"); len(got) < 1 {
		t.Errorf("hierarchy = %v", got)
	}
}

// TestOpenRefusesSnapshotPrefix: the snapshot files agents once wrote
// instead of a data directory are refused, by every open, with the way
// out — and left as they are.
func TestOpenRefusesSnapshotPrefix(t *testing.T) {
	for _, suffix := range []string{".node0.snap", ".topics"} {
		prefix := filepath.Join(t.TempDir(), "cluster")
		file := prefix + suffix
		if err := os.WriteFile(file, []byte("DCDBSNAP"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(prefix)
		if !errors.Is(err, errSnapshotPrefix) || !strings.Contains(err.Error(), "dcdbcsvimport") {
			t.Fatalf("Open over %s: %v, want the snapshot refusal", file, err)
		}
		if _, _, err := OpenRemote(prefix, RemoteOptions{Addrs: []string{"127.0.0.1:1"}}); !errors.Is(err, errSnapshotPrefix) {
			t.Fatalf("OpenRemote over %s: %v, want the snapshot refusal", file, err)
		}
		if got, _ := os.ReadFile(file); string(got) != "DCDBSNAP" {
			t.Fatalf("refused %s was modified", file)
		}
		if _, err := os.Stat(prefix); !os.IsNotExist(err) {
			t.Fatalf("refusal created the directory %s: %v", prefix, err)
		}
	}
}

// TestImportIntoFreshDirectory is the way out the refusal names, from
// its second step: a path that does not exist opens as an empty
// database, takes a dcdbquery CSV export, and after Save reopens with
// every reading.
func TestImportIntoFreshDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "agent")
	conn, c, err := Edit(dir)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	csv.WriteString("sensor,timestamp,value\n")
	topics := []string{"/c/n0/v", "/c/n1/v"}
	for i, tp := range topics {
		for ts := int64(1); ts <= 3; ts++ {
			fmt.Fprintf(&csv, "%s,%s,%d\n", tp, time.Unix(0, ts).UTC().Format(time.RFC3339Nano), 10*i+int(ts))
		}
	}
	if n, err := conn.ImportCSV(strings.NewReader(csv.String())); err != nil || n != 6 {
		t.Fatalf("imported %d readings: %v", n, err)
	}
	if err := Save(conn, c, dir); err != nil {
		t.Fatal(err)
	}
	conn2, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range topics {
		rs, err := conn2.Query(tp, 0, 10)
		if err != nil || len(rs) != 3 {
			t.Fatalf("%s after reopen: %v, %v", tp, rs, err)
		}
		for j, r := range rs {
			if r.Timestamp != int64(j+1) || r.Value != float64(10*i+j+1) {
				t.Fatalf("%s reading %d: %+v", tp, j, r)
			}
		}
	}
}

func TestOpenDataDirectory(t *testing.T) {
	dir := t.TempDir()
	// Simulate an agent that wrote its durable store and then crashed:
	// data recovered from run files and the WAL.
	c, err := collectagent.OpenBackendOptions(dir, store.DiskOptions{}, store.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mapper := core.NewTopicMapper()
	topics := []string{"/dc/r1/power", "/dc/r2/power"}
	for i, tp := range topics {
		id, _ := mapper.Map(tp)
		for ts := int64(0); ts < 5; ts++ {
			if err := c.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: float64(i)}}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := collectagent.SaveTopics(dir, mapper); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	conn, node, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(node.SensorIDs()); got != 2 {
		t.Fatalf("merged %d sensors, want 2", got)
	}
	for _, tp := range topics {
		rs, err := conn.Query(tp, 0, 1<<62)
		if err != nil || len(rs) != 5 {
			t.Fatalf("topic %q: %d readings, %v", tp, len(rs), err)
		}
	}

	// Tool-side edits flow back into the durable layout.
	if err := conn.PublishSensor(core.Metadata{Topic: "/dc/r1/virt", Virtual: true, Expression: "</dc/r1/power> * 2"}); err != nil {
		t.Fatal(err)
	}
	if err := Save(conn, node, dir); err != nil {
		t.Fatal(err)
	}
	conn2, node2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(node2.SensorIDs()); got != 2 {
		t.Fatalf("re-opened data dir has %d sensors", got)
	}
	if _, ok := conn2.Metadata("/dc/r1/virt"); !ok {
		t.Error("virtual sensor metadata lost in data-dir save")
	}
	// The edit kept the agent's layout: node0 still holds the readings.
	if entries, err := os.ReadDir(filepath.Join(dir, "node0")); err != nil || len(entries) == 0 {
		t.Errorf("node0 did not survive the edit: %v, %v", entries, err)
	}
}

// TestOpenServesNewestReplicaWrite: when two writes of the agent's
// store disagree on a timestamp, Open serves the newest write — the
// higher version, in the first run file here — not the run file it
// reads last, nor the larger value that breaks a tie between equal
// versions.
func TestOpenServesNewestReplicaWrite(t *testing.T) {
	dir := t.TempDir()
	id := core.SensorID{Hi: 3, Lo: 4}
	for _, vr := range []store.VersionedReading{
		{Timestamp: 5, Value: 1, Version: 2},
		{Timestamp: 5, Value: 2, Version: 1},
	} {
		n := store.NewNode(0)
		if err := n.OpenOptions(filepath.Join(dir, "node0"), store.DiskOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := n.InsertVersioned(id, []store.VersionedReading{vr}); err != nil {
			t.Fatal(err)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	_, c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Query(id, 0, 10)
	if err != nil || len(rs) != 1 || rs[0].Value != 1 {
		t.Fatalf("the store serves %+v (%v), want the write of version 2, value 1", rs, err)
	}
}

// TestOpenRefusesInterruptedSave: both tool opens refuse the staging
// directory an earlier build's Save left, and change nothing.
func TestOpenRefusesInterruptedSave(t *testing.T) {
	for _, staged := range []string{"node0.building", "node0.ready"} {
		for name, open := range map[string]func(string) (*libdcdb.Connection, *store.Cluster, error){"Open": Open, "Edit": Edit} {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, staged, "shard-00"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "topics"), []byte("0/a 1\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			before := storetest.Files(t, dir)
			if _, _, err := open(dir); err == nil || !strings.Contains(err.Error(), staged) ||
				!strings.Contains(err.Error(), "with the build that wrote it") {
				t.Fatalf("%s over %s: %v, want the refusal naming it and the way out", name, staged, err)
			}
			if after := storetest.Files(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("the refused %s over %s changed the directory", name, staged)
			}
		}
	}
}

func TestOpenRemoteQueriesLiveCluster(t *testing.T) {
	// A "multi-process" cluster in miniature: two storage nodes behind
	// loopback RPC servers, a topics file where the agent would keep
	// it, and a tool connection querying the live nodes.
	mapper := core.NewTopicMapper()
	topics := []string{"/dc/r1/power", "/dc/r1/temp", "/dc/r2/power"}
	part := store.RingPartitioner{Depth: 2}

	nodes := []*store.Node{store.NewNode(0), store.NewNode(0)}
	var addrs []string
	for _, n := range nodes {
		srv := rpc.NewServer(n, true)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	// Populate through a writer cluster the way the agent would, so
	// placement matches what OpenRemote's reader cluster expects.
	var writers []store.NodeBackend
	for _, addr := range addrs {
		writers = append(writers, rpc.NewClient(addr, rpc.ClientOptions{}))
	}
	wc, err := store.NewClusterOptions(writers, store.ClusterOptions{Partitioner: part, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range topics {
		id, merr := mapper.Map(tp)
		if merr != nil {
			t.Fatal(merr)
		}
		for ts := int64(1); ts <= 4; ts++ {
			if err := wc.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: float64(i)}}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	dir := t.TempDir()
	if err := collectagent.SaveTopics(dir, mapper); err != nil {
		t.Fatal(err)
	}
	conn, cluster, err := OpenRemote(dir, RemoteOptions{
		Addrs: addrs, Replication: 1, Depth: part.Depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if got := conn.ListSensors(""); len(got) != len(topics) {
		t.Fatalf("remote connection lists %v, want %d sensors", got, len(topics))
	}
	for _, tp := range topics {
		rs, err := conn.Query(tp, 0, 1<<62)
		if err != nil || len(rs) != 4 {
			t.Fatalf("remote query %q: %d readings, %v", tp, len(rs), err)
		}
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRemoteRejectsEmptyAddrs(t *testing.T) {
	if _, _, err := OpenRemote(t.TempDir(), RemoteOptions{}); err == nil {
		t.Fatal("OpenRemote with no addresses succeeded")
	}
}

// TestOpenRemoteDiscoversFromSeeds covers Seeds mode: the tool is given
// one gossip seed instead of the node list, discovers the ring, and
// queries with the same ring placement the agent's coordinator derives.
func TestOpenRemoteDiscoversFromSeeds(t *testing.T) {
	type gossiper struct {
		srv   *rpc.Server
		agent *membership.Agent
	}
	start := func(seeds ...string) *gossiper {
		n := store.NewNode(0)
		srv := rpc.NewServer(n, true)
		g := &gossiper{srv: srv}
		srv.SetGossip(func(peerState []byte) ([]byte, error) {
			if g.agent == nil {
				return nil, rpc.ErrGossipUnavailable
			}
			return g.agent.Handle(peerState)
		})
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		a, err := membership.New(membership.Config{
			ID:       srv.Addr(),
			Interval: 10 * time.Millisecond,
			Seeds:    seeds,
			Logf:     func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		g.agent = a
		if len(seeds) > 0 {
			_ = a.Join(seeds...)
		}
		a.Start()
		t.Cleanup(func() {
			a.Stop()
			srv.Close()
			n.Close()
		})
		return g
	}
	g0 := start()
	start(g0.srv.Addr())
	seeds := []string{g0.srv.Addr()}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ms, err := membership.DiscoverRing(seeds...)
		if err == nil && len(ms) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip ring never reached 2 members (err %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Populate through a discovery-built writer so placement matches
	// what the tool's reader cluster derives from the same ring.
	writer, err := collectagent.OpenDiscoveredBackend(seeds,
		store.ClusterOptions{Replication: 2}, rpc.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mapper := core.NewTopicMapper()
	topics := []string{"/dc/r1/power", "/dc/r2/temp"}
	for i, tp := range topics {
		id, merr := mapper.Map(tp)
		if merr != nil {
			t.Fatal(merr)
		}
		for ts := int64(1); ts <= 3; ts++ {
			if err := writer.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: float64(i)}}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := collectagent.SaveTopics(dir, mapper); err != nil {
		t.Fatal(err)
	}
	conn, cluster, err := OpenRemote(dir, RemoteOptions{Seeds: seeds, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if got := conn.ListSensors(""); len(got) != len(topics) {
		t.Fatalf("discovered connection lists %v, want %d sensors", got, len(topics))
	}
	for _, tp := range topics {
		rs, err := conn.Query(tp, 0, 1<<62)
		if err != nil || len(rs) != 3 {
			t.Fatalf("discovered query %q: %d readings, %v", tp, len(rs), err)
		}
	}
}
