package main

import (
	"bytes"
	"fmt"
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

// writeCSV writes a dcdbquery-style export of n readings per topic, a
// second apart, and returns its path.
func writeCSV(t *testing.T, topics []string, n int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("sensor,timestamp,value\n")
	for i, tp := range topics {
		for k := 0; k < n; k++ {
			ts := time.Unix(1_560_000_000+int64(k), 0).UTC().Format(time.RFC3339Nano)
			fmt.Fprintf(&b, "%s,%s,%d\n", tp, ts, 100*i+k)
		}
	}
	path := filepath.Join(t.TempDir(), "readings.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestImport loads an export into a data directory that does not exist
// yet, then a second one into the same directory, and reads every
// reading back through the tools' view of the directory.
func TestImport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "agent")
	first := []string{"/dc/r1/power", "/dc/r1/temp"}
	var out bytes.Buffer
	if err := run([]string{"-db", dir, writeCSV(t, first, 5)}, &out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("imported 10 readings into %s\n", dir); out.String() != want {
		t.Errorf("printed %q, want %q", out.String(), want)
	}
	if err := run([]string{"-db", dir, writeCSV(t, []string{"/dc/r2/power"}, 3)}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	conn, _, err := tooldb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := conn.ListSensors(""); len(got) != 3 {
		t.Fatalf("the directory lists %v, want 3 sensors", got)
	}
	for tp, n := range map[string]int{"/dc/r1/power": 5, "/dc/r1/temp": 5, "/dc/r2/power": 3} {
		rs, err := conn.Query(tp, 0, 1<<62)
		if err != nil || len(rs) != n {
			t.Fatalf("%s: %d readings, %v; want %d", tp, len(rs), err, n)
		}
		if tp == "/dc/r1/temp" && (rs[2].Value != 102 || rs[2].Timestamp != time.Unix(1_560_000_002, 0).UnixNano()) {
			t.Errorf("%s reading 2: %+v", tp, rs[2])
		}
	}
}

// TestErrors: a command line that cannot be carried out is an error,
// never an exit from inside run, and leaves no directory behind.
func TestErrors(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "agent")
	badHeader := filepath.Join(base, "bad.csv")
	if err := os.WriteFile(badHeader, []byte("topic,time,reading\n/a,2019-06-08T00:00:00Z,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(base, "old")
	if err := os.WriteFile(snap+".topics", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := writeCSV(t, []string{"/dc/r1/power"}, 2)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-db", dir}, "need exactly one CSV file"},
		{[]string{"-db", dir, good, good}, "need exactly one CSV file"},
		{[]string{"-db", dir, filepath.Join(base, "missing.csv")}, "no such file"},
		{[]string{"-db", dir, badHeader}, "unexpected CSV header"},
		{[]string{"-db", snap, good}, "snapshot file prefix"},
		{[]string{"-no-such-flag", good}, "flag provided but not defined"},
	} {
		err := run(c.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("dcdbcsvimport %s: %v, want an error containing %q", strings.Join(c.args, " "), err, c.want)
		}
	}
	for _, p := range []string{dir, snap} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("a failed import left %s behind: %v", p, err)
		}
	}
}

// TestBadRowChangesNothing: a row that does not parse, after a thousand
// that do, fails the import and leaves the directory byte-identical.
func TestBadRowChangesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "agent")
	if err := run([]string{"-db", dir, writeCSV(t, []string{"/dc/r1/power"}, 5)}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(writeCSV(t, []string{"/dc/r2/power"}, 1000))
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, append(data, "/dc/r2/power,yesterday,1\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	before := storetest.Files(t, dir)
	err = run([]string{"-db", dir, bad}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "after 1000 readings") || !strings.Contains(err.Error(), "bad timestamp") {
		t.Fatalf("importing a bad row: %v, want the parse error after 1000 readings", err)
	}
	if after := storetest.Files(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("the failed import changed the directory")
	}
}

// TestImportServedByAgent: readings imported into the data directory
// of an agent that already stored some are served whole, beside the
// agent's own, by the agent reopened over the directory.
func TestImportServedByAgent(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Cluster {
		t.Helper()
		c, err := collectagent.OpenBackendOptions(dir, store.DiskOptions{}, store.ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := open()
	a := collectagent.New(c, nil, collectagent.Options{Quiet: true})
	a.Handle("/dc/r0/power", core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 1}, {Timestamp: 2, Value: 2}}))
	if err := collectagent.SaveTopics(dir, a.Mapper()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	a.Close()

	imported := []string{"/dc/r1/power", "/dc/r1/temp", "/dc/r2/power"}
	if err := run([]string{"-db", dir, writeCSV(t, imported, 4)}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	c = open()
	defer c.Close()
	mapper := core.NewTopicMapper()
	if err := collectagent.LoadTopics(dir, mapper); err != nil {
		t.Fatal(err)
	}
	for tp, n := range map[string]int{"/dc/r0/power": 2, "/dc/r1/power": 4, "/dc/r1/temp": 4, "/dc/r2/power": 4} {
		id, ok := mapper.Lookup(tp)
		if !ok {
			t.Fatalf("%s is not in the topic map", tp)
		}
		if rs, err := c.Query(id, 0, 1<<62); err != nil || len(rs) != n {
			t.Errorf("the agent serves %d readings of %s (%v), want %d", len(rs), tp, err, n)
		}
	}
}
