// Package tooldb gives the command-line tools (dcdbquery, dcdbconfig,
// dcdbcsvimport, dcdbgrafana) access to a Storage Backend persisted by
// a Collect Agent. A database has one layout, the agent's data
// directory (-data): one node<i>/ directory of run files and WALs per
// embedded storage node, plus the topics and meta files. Open loads its
// contents into an in-process backend wrapped in a libDCDB connection;
// OpenRemote takes only the topic map from it and queries a running
// storage cluster live.
package tooldb

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/fsutil"
	"dcdb/internal/libdcdb"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

// toolReadOptions recover a durable node without touching its files —
// a crashed agent's directory is inspected exactly as the crash left
// it. toolWriteOptions are for Save, which rewrites the directory. Both
// read run files through the same 1 MiB block cache: a durable node
// keeps only its files' indexes in memory, so an open costs the
// indexes, and a Save holds no copy of the data it has spilled.
var (
	toolReadOptions  = store.DiskOptions{SyncInterval: -1, CompactInterval: -1, ReadOnly: true, CacheBytes: 1 << 20}
	toolWriteOptions = store.DiskOptions{SyncInterval: -1, CompactInterval: -1, CacheBytes: 1 << 20}
)

// errSnapshotPrefix refuses the snapshot files (<prefix>.node<i>.snap,
// <prefix>.topics) that agents once wrote instead of a data directory.
var errSnapshotPrefix = errors.New("is a snapshot file prefix, which this build no longer reads: " +
	"export its readings with dcdbquery from a build that still reads snapshots, " +
	"then load the CSV into an agent data directory with dcdbcsvimport")

// refuseSnapshots fails when dir names a snapshot prefix.
func refuseSnapshots(dir string) error {
	for _, p := range []string{dir + ".node0.snap", dir + ".topics"} {
		if _, err := os.Stat(p); err == nil {
			return fmt.Errorf("tooldb: %s %w (found %s)", dir, errSnapshotPrefix, p)
		}
	}
	return nil
}

// Open recovers every node directory of the agent data directory dir
// and merges them into one tool-side memory node; a dir that does not
// exist is an empty database. The recovery path is identical to the
// agent's: run files are mapped and WAL segments replayed, so the tools
// see every acknowledged write, including those from a crashed agent.
func Open(dir string) (*libdcdb.Connection, *store.Node, error) {
	if err := refuseSnapshots(dir); err != nil {
		return nil, nil, err
	}
	if err := collectagent.HealInterruptedSave(dir); err != nil {
		return nil, nil, fmt.Errorf("tooldb: healing interrupted save: %w", err)
	}
	node := store.NewNode(0)
	for i := 0; ; i++ {
		nd := collectagent.NodeDir(dir, i)
		if _, err := os.Stat(nd); err != nil {
			break
		}
		tmp := store.NewNode(0)
		if err := tmp.OpenOptions(nd, toolReadOptions); err != nil {
			return nil, nil, fmt.Errorf("tooldb: opening %s: %w", nd, err)
		}
		err := mergeInto(node, tmp)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return finish(node, dir)
}

// mergeInto copies every reading of src into dst under the write
// version and expiry it was stored with: replicas that disagree on a
// timestamp resolve to the newest write, whichever directory merges
// last, and a Save keeps every TTL. Readings the tools write themselves
// (dcdbcsvimport) are unstamped, version 0, like any write no
// coordinator stamped: a stamped reading at the same timestamp outranks
// them. Each sensor is streamed over the whole timestamp range, a chunk
// at a time, and a durable dst is spilled every mergeSpillReadings, so
// it never holds more than that much not yet in its files.
func mergeInto(dst, src *store.Node) error {
	copied := 0
	for _, id := range src.SensorIDs() {
		st, err := src.QueryVersionedStream(id, math.MinInt64, math.MaxInt64)
		if err != nil {
			return err
		}
		for {
			vrs, err := st.Next()
			if err == io.EOF {
				break
			}
			if err == nil {
				err = dst.InsertVersioned(id, vrs)
			}
			if err == nil && copied/mergeSpillReadings != (copied+len(vrs))/mergeSpillReadings {
				err = dst.Spill()
			}
			if err != nil {
				st.Close()
				return err
			}
			copied += len(vrs)
		}
	}
	return nil
}

// mergeSpillReadings is how many readings mergeInto copies between
// spills of its destination: 8 MB of memtable entries.
const mergeSpillReadings = 1 << 18

// finish wraps the merged node in a connection and loads the topic map
// and metadata files of dir.
func finish(node *store.Node, dir string) (*libdcdb.Connection, *store.Node, error) {
	mapper := core.NewTopicMapper()
	if err := collectagent.LoadTopics(dir, mapper); err != nil {
		return nil, nil, fmt.Errorf("tooldb: topic map: %w", err)
	}
	conn := libdcdb.Connect(node, mapper)
	// Register every mapped sensor in the hierarchy so listing works.
	conn.RegisterStored(node.SensorIDs())
	if err := conn.LoadMetadataFile(filepath.Join(dir, "meta")); err != nil {
		return nil, nil, fmt.Errorf("tooldb: metadata: %w", err)
	}
	return conn, node, nil
}

// RemoteOptions configure a live-cluster connection for the tools.
type RemoteOptions struct {
	// Addrs are the dcdbnode RPC addresses, spelled as the nodes
	// advertise them (order is irrelevant). Leave empty and set Seeds
	// to discover the node set from gossip instead.
	Addrs []string
	// Seeds are gossip seed addresses: any one live member answers with
	// the full ring, so the tools need a seed, not the complete list.
	Seeds []string
	// Replication and Depth (the placement-key depth, see
	// store.RingPartitioner) must match the agent's configuration or
	// queries route to the wrong replicas.
	Replication int
	Depth       int
	// ReadConsistency for queries (zero value = ONE).
	ReadConsistency store.Consistency
}

// OpenRemote connects to a running multi-process storage cluster
// instead of loading persisted files. Topic names live with the agent,
// not the storage tier, so the agent data directory dir supplies the
// topic map; readings are queried live from the nodes. Close the
// connection's backend when done.
func OpenRemote(dir string, o RemoteOptions) (*libdcdb.Connection, *store.Cluster, error) {
	if err := refuseSnapshots(dir); err != nil {
		return nil, nil, err
	}
	co := store.ClusterOptions{
		Partitioner:     store.RingPartitioner{Depth: o.Depth},
		Replication:     o.Replication,
		ReadConsistency: o.ReadConsistency,
	}
	var cluster *store.Cluster
	var err error
	if len(o.Seeds) > 0 {
		cluster, err = collectagent.OpenDiscoveredBackend(o.Seeds, co, rpc.ClientOptions{})
	} else {
		cluster, err = collectagent.OpenRemoteBackend(o.Addrs, co, rpc.ClientOptions{})
	}
	if err != nil {
		return nil, nil, err
	}
	mapper := core.NewTopicMapper()
	if err := collectagent.LoadTopics(dir, mapper); err != nil {
		cluster.Close()
		return nil, nil, fmt.Errorf("tooldb: topic map: %w", err)
	}
	conn := libdcdb.Connect(cluster, mapper)
	// Register every stored sensor in the hierarchy so listing works,
	// exactly as the file-backed open does — the SID set comes from the
	// live nodes instead of recovered files.
	conn.RegisterStored(cluster.SensorIDs())
	return conn, cluster, nil
}

// Save persists the tool-side node and metadata back into the data
// directory dir, creating it if needed. The node is rewritten as a
// single durable node0 (run files only: a clean close leaves no WAL),
// which the agent recovers like any other directory. Not safe against
// an agent concurrently owning the directory.
func Save(conn *libdcdb.Connection, node *store.Node, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Never touch the existing node directories until the replacement
	// is complete and durable. The new node0 is built under a staging
	// name, renamed to the ".ready" commit marker, and only then
	// swapped in; a crash at any point either keeps the old database
	// or is finished by HealInterruptedSave on the next open.
	building := filepath.Join(dir, collectagent.BuildingDir)
	os.RemoveAll(building)
	os.RemoveAll(filepath.Join(dir, collectagent.ReadyDir))
	dn := store.NewNode(0)
	if err := dn.OpenOptions(building, toolWriteOptions); err != nil {
		return err
	}
	if err := mergeInto(dn, node); err != nil {
		dn.Close()
		os.RemoveAll(building)
		return err
	}
	if err := dn.Close(); err != nil {
		os.RemoveAll(building)
		return err
	}
	// Topics and metadata are committed before the data swap: a crash
	// in between leaves a topics file that is a superset of the stored
	// SIDs (harmless) rather than readings whose names are missing
	// (silent remapping hazard).
	if err := collectagent.SaveTopics(dir, conn.Mapper()); err != nil {
		os.RemoveAll(building)
		return err
	}
	if err := conn.SaveMetadataFile(filepath.Join(dir, "meta")); err != nil {
		os.RemoveAll(building)
		return err
	}
	if err := os.Rename(building, filepath.Join(dir, collectagent.ReadyDir)); err != nil {
		os.RemoveAll(building)
		return err
	}
	if err := fsutil.SyncDir(dir); err != nil {
		return err
	}
	return collectagent.HealInterruptedSave(dir) // performs the swap
}
