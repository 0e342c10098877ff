// Package tooldb gives the command-line tools (dcdbquery, dcdbconfig,
// dcdbcsvimport, dcdbgrafana) access to a Storage Backend persisted by
// a Collect Agent. A database has one layout, the agent's data
// directory (-data): the one store node0/ of run files and WAL, plus
// the topics and meta files. Open and Edit open that store in place,
// as the agent does, wrapped in a libDCDB connection: a tool reads the
// one copy of the data and writes only what it changes. OpenRemote
// takes only the topic map from the directory and queries a running
// storage cluster live.
package tooldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

// toolReadOptions recover a durable node without touching its files —
// a crashed agent's directory is inspected exactly as the crash left
// it. toolWriteOptions are Edit's, whose spills compact as a node's do.
// Both read run files through the same 1 MiB block cache: a durable node
// keeps only its files' indexes in memory, so an open costs the indexes.
var (
	toolReadOptions  = store.DiskOptions{SyncInterval: -1, ReadOnly: true, CacheBytes: 1 << 20}
	toolWriteOptions = store.DiskOptions{SyncInterval: -1, CacheBytes: 1 << 20}
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
			return fmt.Errorf("%s %w (found %s)", dir, errSnapshotPrefix, p)
		}
	}
	return nil
}

// Open opens the agent data directory dir in place, read-only, the way
// the agent opens it: its store is recovered (run files indexed, WAL
// segments replayed), so the tools see every acknowledged write,
// including those of a crashed agent, and nothing is copied or
// written. A dir that does not exist is an empty database. Close the
// cluster when done.
func Open(dir string) (*libdcdb.Connection, *store.Cluster, error) {
	return open(dir, toolReadOptions)
}

// Edit is Open for the tools that write (dcdbconfig's cleanup and
// compact, dcdbcsvimport): the store is opened writable, and Save ends
// the edit. A dir that does not exist is created.
func Edit(dir string) (*libdcdb.Connection, *store.Cluster, error) {
	return open(dir, toolWriteOptions)
}

// open opens the store of dir with o and loads the topic map and
// metadata files.
func open(dir string, o store.DiskOptions) (*libdcdb.Connection, *store.Cluster, error) {
	if err := refuseSnapshots(dir); err != nil {
		return nil, nil, err
	}
	c, err := collectagent.OpenBackendOptions(dir, o, store.ClusterOptions{})
	if err != nil {
		return nil, nil, err
	}
	mapper := core.NewTopicMapper()
	if err := collectagent.LoadTopics(dir, mapper); err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("tooldb: topic map: %w", err)
	}
	conn := libdcdb.Connect(c, mapper)
	// Register every mapped sensor in the hierarchy so listing works.
	conn.RegisterStored(c.SensorIDs())
	if err := conn.LoadMetadataFile(filepath.Join(dir, "meta")); err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("tooldb: metadata: %w", err)
	}
	return conn, c, nil
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

// Save ends a tool's session with the data directory dir: it writes
// the topic map and the metadata of conn, creating dir if needed, then
// closes the cluster c opened on it. Readings an Edit wrote are already
// in the store's WAL, and the clean close spills them to run files and
// leaves no WAL. Not safe against an agent concurrently
// owning the directory.
func Save(conn *libdcdb.Connection, c *store.Cluster, dir string) error {
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = collectagent.SaveTopics(dir, conn.Mapper())
	}
	if err == nil {
		err = conn.SaveMetadataFile(filepath.Join(dir, "meta"))
	}
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	return err
}
