// Package storetest holds the read-path contract tests that must pass
// for every kind of replica — in-process nodes and nodes behind the RPC
// client — so the store and rpc packages run the same table instead of
// near-copies of it, and the helpers the tests of the packages above
// the store share.
package storetest

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/store"
)

// Build returns a fresh cluster of three replicas per sensor (write
// ONE, read QUORUM, no hinted handoff) and the node behind each member
// ID. The caller of the table closes the cluster.
type Build func(t *testing.T) (*store.Cluster, map[string]*store.Node)

// ReadForms are the four ways to read one sensor's [0, 100] window from
// a cluster. Each reports how many readings it was served and their
// sum — all an Aggregate has to show for itself.
var ReadForms = []struct {
	Name string
	Read func(c *store.Cluster, id core.SensorID) (n int, sum float64, err error)
}{
	{"Query", func(c *store.Cluster, id core.SensorID) (int, float64, error) {
		return total(c.Query(id, 0, 100))
	}},
	{"QueryStream", func(c *store.Cluster, id core.SensorID) (int, float64, error) {
		st, err := c.QueryStream(id, 0, 100)
		if err != nil {
			return 0, 0, err
		}
		return total(store.Drain(st))
	}},
	{"QueryPrefixStream", func(c *store.Cluster, id core.SensorID) (int, float64, error) {
		m, err := DrainPrefix(c.QueryPrefixStream(core.SensorID{}, 0, 0, 100))
		return total(m[id], err)
	}},
	{"Aggregate", func(c *store.Cluster, id core.SensorID) (int, float64, error) {
		st, err := c.Aggregate(id, fold.Spec{Op: fold.OpSummary, From: 0, To: 100})
		if err != nil {
			return 0, 0, err
		}
		return int(st.Count()), st.(*fold.Summary).Sum, nil
	}},
}

// DrainPrefix drains an opened prefix stream into a map keyed by SID:
// the readings of every sensor that has any.
func DrainPrefix(st store.KeyedReadingStream, err error) (map[core.SensorID][]core.Reading, error) {
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out := make(map[core.SensorID][]core.Reading)
	for {
		id, chunk, err := st.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out[id] = append(out[id], chunk...)
	}
}

// Rebalancing reports whether c is streaming a ring transition, as its
// dcdb_cluster_rebalance_active gauge shows it.
func Rebalancing(c *store.Cluster) bool {
	for _, s := range c.Metrics().Gather() {
		if s.Name == "dcdb_cluster_rebalance_active" {
			return s.Value == 1
		}
	}
	panic("the cluster exports no dcdb_cluster_rebalance_active gauge")
}

func total(rs []core.Reading, err error) (int, float64, error) {
	sum := 0.0
	for _, r := range rs {
		sum += r.Value
	}
	return len(rs), sum, err
}

// Versioned reads a replica's versioned stream of id over [from, to]
// to its end: every winning reading with the stamp its write carried.
func Versioned(b store.NodeBackend, id core.SensorID, from, to int64) ([]store.VersionedReading, error) {
	st, err := b.QueryVersionedStream(id, from, to)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var out []store.VersionedReading
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
}

// Files returns every entry under dir, keyed by its path relative to
// dir: a file's contents, or "/" for a directory; nil when dir does not
// exist. Comparing it before and after an operation shows whether the
// operation changed a name or a byte of the directory.
func Files(t testing.TB, dir string) map[string]string {
	t.Helper()
	var files map[string]string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		data := []byte("/")
		if err == nil && !d.IsDir() {
			data, err = os.ReadFile(path)
		}
		if files == nil {
			files = map[string]string{}
		}
		files[rel] = string(data)
		return err
	})
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return files
}

// ConflictTable is the read path's QUORUM invariant as a test: a
// primary that missed the rewrite of a timestamp must not decide what a
// read returns. For every read form, on a fresh cluster: write (ts=1,
// v=1), take the primary down, rewrite (ts=1, v=2), bring it back — the
// read serves v=2, and once the background repairs have landed every
// replica holds v=2 at the rewrite's version.
func ConflictTable(t *testing.T, build Build) {
	id := core.SensorID{Hi: 82, Lo: 1}
	for _, form := range ReadForms {
		t.Run(form.Name, func(t *testing.T) {
			c, nodes := build(t)
			if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
				t.Fatal(err)
			}
			owners := c.Owners(id)
			if len(owners) != 3 {
				t.Fatalf("sensor has %d replicas, want 3", len(owners))
			}
			primary := nodes[owners[0]]
			primary.SetDown(true)
			if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 2}}, 0); err != nil {
				t.Fatal(err)
			}
			primary.SetDown(false)
			want, err := Versioned(nodes[owners[1]], id, 0, 100)
			if err != nil || len(want) != 1 || want[0].Value != 2 {
				t.Fatalf("the rewrite did not land on a live replica: %+v, %v", want, err)
			}

			n, sum, err := form.Read(c, id)
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 || sum != 2 {
				t.Fatalf("served %d readings summing to %g, want the rewrite alone (v=2): the stale primary outranked the newer version", n, sum)
			}
			c.Close() // joins the background repairs
			for _, member := range owners {
				got, err := Versioned(nodes[member], id, 0, 100)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || got[0] != want[0] {
					t.Fatalf("replica %s holds %+v after the repairing read, want %+v", member, got, want)
				}
			}
		})
	}
}
