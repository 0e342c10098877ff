// The refusal of a data directory that an earlier build's multi-node
// embedded agent wrote: node0/ and node1/ each hold some of its
// sensors, placed by flags the directory does not record. Every way in
// — the agent, the tools' read and write opens, and the commands built
// on them — refuses it by name, with the way out, and leaves it byte
// for byte as it was. Each printed refusal names its program, and each
// program or package, once.
package main_test

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
	"dcdb/internal/tooldb"
)

// severalStoresDir writes a directory of two stores, written through
// store.Node directly, and a topic map naming their one sensor.
func severalStoresDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for i, name := range []string{"node0", "node1"} {
		n := store.NewNode(0)
		if err := n.OpenOptions(filepath.Join(dir, name), store.DiskOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := n.InsertBatch(core.SensorID{Hi: 1, Lo: uint64(i)}, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
			t.Fatal(err)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "topics"), []byte("0/a 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runCommand runs a built command and returns its failure with its
// output; a command still running after a minute has not refused and
// is killed.
func runCommand(bin string, args ...string) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%v: %s", err, out)
	}
	return nil
}

func TestSeveralNodeDirsRefused(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/collectagent", "./cmd/dcdbcsvimport", "./cmd/dcdbconfig", "./cmd/dcdbquery").CombinedOutput(); err != nil {
		t.Fatalf("building the commands: %v\n%s", err, out)
	}
	csv := filepath.Join(t.TempDir(), "readings.csv")
	if err := os.WriteFile(csv, []byte("sensor,timestamp,value\n/a/b,2019-06-08T00:00:00Z,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		prints string // the program printing the refusal, "" for a package
		run    func(dir string) error
	}{
		{"collectagent", "collectagent", func(dir string) error {
			return runCommand(filepath.Join(bin, "collectagent"), "-listen", "127.0.0.1:0", "-data", dir)
		}},
		{"tooldb.Open", "", func(dir string) error { _, _, err := tooldb.Open(dir); return err }},
		{"tooldb.Edit", "", func(dir string) error { _, _, err := tooldb.Edit(dir); return err }},
		{"dcdbcsvimport", "dcdbcsvimport", func(dir string) error {
			return runCommand(filepath.Join(bin, "dcdbcsvimport"), "-db", dir, csv)
		}},
		{"dcdbconfig list", "dcdbconfig", func(dir string) error {
			return runCommand(filepath.Join(bin, "dcdbconfig"), "-db", dir, "list")
		}},
		{"dcdbconfig compact", "dcdbconfig", func(dir string) error {
			return runCommand(filepath.Join(bin, "dcdbconfig"), "-db", dir, "compact")
		}},
		{"dcdbquery", "dcdbquery", func(dir string) error {
			return runCommand(filepath.Join(bin, "dcdbquery"), "-db", dir, "-list", "/a")
		}},
	} {
		dir := severalStoresDir(t)
		before := storetest.Files(t, dir)
		err := c.run(dir)
		if err == nil {
			t.Errorf("%s over node0 and node1: no error, want the refusal", c.name)
			continue
		}
		for _, want := range []string{"node1", "dcdbquery -db", "dcdbcsvimport"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s over node0 and node1: %v, want the refusal naming %q", c.name, err, want)
			}
		}
		if c.prints != "" && !strings.Contains(err.Error(), c.prints+": ") {
			t.Errorf("%s over node0 and node1: %v, want the refusal printed under the program's name", c.name, err)
		}
		for _, name := range []string{"collectagent", "tooldb", "dcdbcsvimport", "dcdbconfig", "dcdbquery", "store"} {
			if n := strings.Count(err.Error(), name+": "); n > 1 {
				t.Errorf("%s over node0 and node1: %v, names %s %d times", c.name, err, name, n)
			}
		}
		if after := storetest.Files(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("the refused %s changed the directory", c.name)
		}
	}
}
