package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcdb/internal/collectagent"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
	"dcdb/internal/tooldb"
)

// TestShardDirsRefused: a node directory of an older build, which kept
// its run files (and before that a WAL) per memtable shard in
// shard-NN/, fails the node's open in every mode, the tools' read-only
// open and the agent's open. Each refusal names the shard directory and
// the way out, and the directory is left byte for byte as it was.
func TestShardDirsRefused(t *testing.T) {
	run, err := os.ReadFile(filepath.Join("testdata", "run-v5.sst"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, file string
		data       []byte
	}{
		{"run file", "run-0000000000000001-0000000000000002.sst", run},
		{"per-shard WAL", "wal-0000000000000011.log", []byte("a record of an older build")},
	} {
		agentDir := t.TempDir()
		nodeDir := filepath.Join(agentDir, "node0")
		shardDir := filepath.Join(nodeDir, "shard-00")
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shardDir, c.file), c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(agentDir, "topics"), []byte("0/a 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		opens := map[string]func() error{
			"the tools' read-only open": func() error {
				_, _, err := tooldb.Open(agentDir)
				return err
			},
			"the agent's open": func() error {
				_, err := collectagent.OpenBackendOptions(agentDir, store.DiskOptions{}, store.ClusterOptions{})
				return err
			},
		}
		for _, o := range []store.DiskOptions{{}, {ReadOnly: true}, {CacheBytes: 1 << 14}} {
			opens[fmt.Sprintf("the node's open %+v", o)] = func() error {
				return store.NewNode(0).OpenOptions(nodeDir, o)
			}
		}
		before := storetest.Files(t, agentDir)
		for name, open := range opens {
			err := open()
			if err == nil || !strings.Contains(err.Error(), shardDir) || !strings.Contains(err.Error(), "dcdbcsvimport") {
				t.Fatalf("%s: %s over a shard directory: %v, want the refusal naming %s and the way out", c.name, name, err, shardDir)
			}
			if after := storetest.Files(t, agentDir); !reflect.DeepEqual(after, before) {
				t.Fatalf("%s: the refused %s changed the directory", c.name, name)
			}
		}
	}
}
