package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
	"dcdb/internal/tooldb"
)

var topics = []string{"/dc/r1/power", "/dc/r1/temp", "/dc/r2/power"}

// t0 is the first reading's timestamp; the readings of a topic follow
// a second apart.
var t0 = time.Unix(1_560_000_000, 0)

// openAgentStore opens the store of the agent data directory dir as the
// agent does.
func openAgentStore(t *testing.T, dir string) *store.Cluster {
	t.Helper()
	c, err := collectagent.OpenBackendOptions(dir, store.DiskOptions{}, store.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// agentDir writes the data directory an agent leaves behind: run files
// holding ten readings of each topic, and the topic map.
func agentDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	c := openAgentStore(t, dir)
	mapper := core.NewTopicMapper()
	for i, tp := range topics {
		id, err := mapper.Map(tp)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			r := core.Reading{Timestamp: t0.Add(time.Duration(k) * time.Second).UnixNano(), Value: float64(100*i + k)}
			if err := c.InsertBatch(id, []core.Reading{r}, 0); err != nil {
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
	return dir
}

// runOK runs one command line and returns what it printed.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("dcdbconfig %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// answers reads every topic of the directory back.
func answers(t *testing.T, dir string) map[string][]core.Reading {
	t.Helper()
	conn, _, err := tooldb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]core.Reading{}
	for _, tp := range topics {
		rs, err := conn.Query(tp, 0, 1<<62)
		if err != nil {
			t.Fatal(err)
		}
		got[tp] = rs
	}
	return got
}

// runFileMagics returns the magic of every run file under dir.
func runFileMagics(t *testing.T, dir string) []string {
	t.Helper()
	var magics []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".sst" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		magics = append(magics, string(data[:8]))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return magics
}

// TestCommands drives every command over one agent data directory:
// publish and show a sensor's properties, list a subtree, delete the
// head of one series, and compact, after which every run file is in
// the current format and every topic answers as before.
func TestCommands(t *testing.T) {
	dir := agentDir(t)
	want := answers(t, dir)
	if len(want[topics[0]]) != 10 {
		t.Fatalf("the directory serves %d readings of %s, want 10", len(want[topics[0]]), topics[0])
	}

	if out := runOK(t, "-db", dir, "publish", "/dc/r1/power", "-unit", "W", "-scale", "0.5", "-integrable"); out != "published /dc/r1/power\n" {
		t.Errorf("publish printed %q", out)
	}
	for i := range want["/dc/r1/power"] {
		want["/dc/r1/power"][i].Value *= 0.5 // reads apply the published scale
	}
	if got := answers(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("after publish the directory serves %v, want %v", got, want)
	}
	out := runOK(t, "-db", dir, "show", "/dc/r1/power")
	for _, line := range []string{"unit: W", "scale: 0.5", "integrable: true", "virtual: false"} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("show printed %q, want a line %q", out, line)
		}
	}
	if out := runOK(t, "-db", dir, "vsensor", "/dc/r1/double", "</dc/r1/power> * 2"); !strings.Contains(out, "defined virtual sensor /dc/r1/double") {
		t.Errorf("vsensor printed %q", out)
	}
	if out := runOK(t, "-db", dir, "list", "/dc/r1"); out != "/dc/r1/double\n/dc/r1/power\n/dc/r1/temp\n" {
		t.Errorf("list /dc/r1 printed %q", out)
	}

	cutoff := t0.Add(3 * time.Second).UTC().Format(time.RFC3339)
	if out := runOK(t, "-db", dir, "cleanup", "/dc/r2/power", cutoff); out != "deleted /dc/r2/power readings before "+cutoff+"\n" {
		t.Errorf("cleanup printed %q", out)
	}
	want["/dc/r2/power"] = want["/dc/r2/power"][3:]
	if got := answers(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("after cleanup the directory serves %v, want %v", got, want)
	}

	if out := runOK(t, "-db", dir, "compact"); out != "compacted\n" {
		t.Errorf("compact printed %q", out)
	}
	magics := runFileMagics(t, dir)
	if len(magics) == 0 {
		t.Fatal("no run file after the compaction")
	}
	for _, m := range magics {
		if m != "DCDBRUN7" {
			t.Errorf("a run file after the compaction is %q", m)
		}
	}
	if got := answers(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("after compact the directory serves %v, want %v", got, want)
	}
	if out := runOK(t, "-db", dir, "show", "/dc/r1/double"); !strings.Contains(out, "expression: </dc/r1/power> * 2\n") {
		t.Errorf("the virtual sensor did not survive the rewrites: %q", out)
	}
}

// TestCompactKeepsStamps: a reading written with a one-hour TTL comes
// out of a compaction with its expiry and its write version.
func TestCompactKeepsStamps(t *testing.T) {
	dir := t.TempDir()
	c := openAgentStore(t, dir)
	id := core.SensorID{Hi: 7, Lo: 7}
	before := time.Now()
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: t0.UnixNano(), Value: 1}}, time.Hour); err != nil {
		t.Fatal(err)
	}
	after := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	runOK(t, "-db", dir, "compact")

	_, tc, err := tooldb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	vrs, err := storetest.Versioned(tc.Backends()[0], id, 0, 1<<62)
	if err != nil || len(vrs) != 1 {
		t.Fatalf("after compact: %+v", vrs)
	}
	if e := vrs[0].Expire; e < before.Add(time.Hour).UnixNano() || e > after.Add(time.Hour).UnixNano() {
		t.Errorf("after compact the reading expires at %d, want an hour after it was written", e)
	}
	if vrs[0].Version == 0 {
		t.Error("after compact the reading lost its write version")
	}
}

// wideAgentDir writes what an agent leaves behind after twenty sensors
// under ten subtrees sent ten readings each, and returns the topics.
func wideAgentDir(t *testing.T) (dir string, topics []string) {
	t.Helper()
	dir = t.TempDir()
	c := openAgentStore(t, dir)
	mapper := core.NewTopicMapper()
	for i := 0; i < 20; i++ {
		tp := fmt.Sprintf("/dc/r%d/n%d/power", i/2, i%2)
		topics = append(topics, tp)
		id, err := mapper.Map(tp)
		if err != nil {
			t.Fatal(err)
		}
		rs := make([]core.Reading, 10)
		for k := range rs {
			rs[k] = core.Reading{Timestamp: t0.Add(time.Duration(k) * time.Second).UnixNano(), Value: float64(100*i + k)}
		}
		if err := c.InsertBatch(id, rs, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := collectagent.SaveTopics(dir, mapper); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, topics
}

// TestEditsKeepPlacement: after the tools edit an agent's directory —
// publish, cleanup, compact — the agent reopened over it serves every
// sensor whole: the tools keep the readings in the store the agent
// reads.
func TestEditsKeepPlacement(t *testing.T) {
	dir, topics := wideAgentDir(t)
	cutoff := t0.Add(4 * time.Second)
	runOK(t, "-db", dir, "publish", topics[0], "-unit", "W")
	runOK(t, "-db", dir, "cleanup", topics[1], cutoff.UTC().Format(time.RFC3339))
	runOK(t, "-db", dir, "compact")

	c := openAgentStore(t, dir)
	defer c.Close()
	mapper := core.NewTopicMapper()
	if err := collectagent.LoadTopics(dir, mapper); err != nil {
		t.Fatal(err)
	}
	served := 0
	for i, tp := range topics {
		id, ok := mapper.Lookup(tp)
		if !ok {
			t.Fatalf("%s lost from the topic map", tp)
		}
		rs, err := c.Query(id, 0, 1<<62)
		if err != nil {
			t.Fatal(err)
		}
		want := 10
		if i == 1 {
			want = 6
		}
		if len(rs) != want || rs[len(rs)-1].Value != float64(100*i+9) {
			t.Errorf("the agent serves %d readings of %s (%v), want %d", len(rs), tp, rs, want)
			continue
		}
		served++
	}
	if served != len(topics) {
		t.Fatalf("the agent serves %d of %d sensors whole after the tools' edits", served, len(topics))
	}
}

// TestPublishLeavesRunFiles: a metadata-only command writes the topics
// and meta files and no other byte of the directory.
func TestPublishLeavesRunFiles(t *testing.T) {
	dir, topics := wideAgentDir(t)
	before := storetest.Files(t, dir)
	runOK(t, "-db", dir, "publish", topics[3], "-unit", "W", "-scale", "2")
	runOK(t, "-db", dir, "vsensor", "/dc/v/double", "<"+topics[3]+"> * 2")
	after := storetest.Files(t, dir)
	for _, f := range []string{"topics", "meta"} {
		delete(before, f)
		delete(after, f)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("publish changed the store: %d entries before, %d after", len(before), len(after))
	}
	if out := runOK(t, "-db", dir, "show", topics[3]); !strings.Contains(out, "unit: W\n") {
		t.Errorf("show after publish printed %q", out)
	}
}

// TestErrors: a command line that cannot be carried out is an error,
// never an exit from inside run — among them a run file in a format
// this build refuses, whose error names the way out.
func TestErrors(t *testing.T) {
	dir := agentDir(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-db", dir}, "no command"},
		{[]string{"-db", dir, "frobnicate"}, `unknown command "frobnicate"`},
		{[]string{"-db", dir, "publish"}, "missing topic"},
		{[]string{"-db", dir, "publish", "/dc/r1/power", "-scale", "x"}, "invalid value"},
		{[]string{"-db", dir, "vsensor", "/dc/v"}, "need TOPIC EXPRESSION"},
		{[]string{"-db", dir, "show"}, "missing topic"},
		{[]string{"-db", dir, "show", "/dc/r9/none"}, "no metadata for /dc/r9/none"},
		{[]string{"-db", dir, "cleanup", "/dc/r1/power"}, "need TOPIC BEFORE"},
		{[]string{"-db", dir, "cleanup", "/dc/r1/power", "yesterday"}, "bad cutoff"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		err := run(c.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("dcdbconfig %s: %v, want an error containing %q", strings.Join(c.args, " "), err, c.want)
		}
	}

	old := filepath.Join(dir, "node0", "run-0000000000000001-0000000000000001.sst")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	data := append([]byte("DCDBRUN4"), make([]byte, 64)...)
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-db", dir, "compact"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "format v4 (DCDBRUN4)") ||
		!strings.Contains(err.Error(), "dcdbconfig -db DIR compact") {
		t.Errorf("compact over a v4 run file: %v, want the refusal naming the file and the way out", err)
	}
	if got, _ := os.ReadFile(old); !bytes.Equal(got, data) {
		t.Error("the refused v4 file was modified")
	}
}
