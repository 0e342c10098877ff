// Package tooldb gives the command-line tools (dcdbquery, dcdbconfig,
// dcdbcsvimport, dcdbgrafana) access to a Storage Backend persisted by
// a Collect Agent. Two layouts are understood: the legacy snapshot set
// (<prefix>.nodeN.snap plus <prefix>.topics / <prefix>.meta) and a
// durable data directory written by an agent running with -data (one
// node<i>/ directory of run files and WALs, plus topics / meta files
// inside the directory). Either way the contents are loaded into an
// in-process backend wrapped in a libDCDB connection.
package tooldb

import (
	"fmt"
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
// it. toolWriteOptions are for Save, which rewrites the directory.
var (
	toolReadOptions  = store.DiskOptions{SyncInterval: -1, CompactInterval: -1, ReadOnly: true}
	toolWriteOptions = store.DiskOptions{SyncInterval: -1, CompactInterval: -1}
)

// Open loads the database under prefix — a snapshot-file prefix or a
// durable data directory. Missing files mean a fresh database.
func Open(prefix string) (*libdcdb.Connection, *store.Node, error) {
	if st, err := os.Stat(prefix); err == nil && st.IsDir() {
		return openDataDir(prefix)
	}
	node := store.NewNode(0)
	for i := 0; ; i++ {
		path := fmt.Sprintf("%s.node%d.snap", prefix, i)
		tmp := store.NewNode(0)
		if err := tmp.LoadFile(path); err != nil {
			if os.IsNotExist(err) {
				break
			}
			return nil, nil, fmt.Errorf("tooldb: loading %s: %w", path, err)
		}
		if err := mergeInto(node, tmp); err != nil {
			return nil, nil, err
		}
	}
	return finish(node, prefix+".topics", prefix+".meta")
}

// openDataDir recovers every node directory of a durable agent data
// directory and merges them into one tool-side memory node. The
// recovery path is identical to the agent's: run files are mapped and
// WAL segments replayed, so the tools see every acknowledged write,
// including those from a crashed agent.
func openDataDir(dir string) (*libdcdb.Connection, *store.Node, error) {
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
	return finish(node, collectagent.TopicsPath(dir), filepath.Join(dir, "meta"))
}

// mergeInto copies every reading of src into dst.
func mergeInto(dst, src *store.Node) error {
	for _, id := range src.SensorIDs() {
		rs, err := src.Query(id, -1<<62, 1<<62)
		if err != nil {
			return err
		}
		if err := dst.InsertBatch(id, rs, 0); err != nil {
			return err
		}
	}
	return nil
}

// finish wraps the merged node in a connection and loads the topic map
// and metadata files.
func finish(node *store.Node, topicsPath, metaPath string) (*libdcdb.Connection, *store.Node, error) {
	mapper := core.NewTopicMapper()
	if err := collectagent.LoadTopicsFile(topicsPath, mapper); err != nil {
		return nil, nil, fmt.Errorf("tooldb: topic map: %w", err)
	}
	conn := libdcdb.Connect(node, mapper)
	// Register every mapped sensor in the hierarchy so listing works.
	for _, id := range node.SensorIDs() {
		if topic, ok := mapper.Reverse(id); ok {
			if err := conn.RegisterTopic(topic); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := conn.LoadMetadataFile(metaPath); err != nil {
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
// not the storage tier, so topicsSource — an agent data directory or a
// snapshot prefix — supplies the topic map; readings are queried live
// from the nodes. Close the connection's backend when done.
func OpenRemote(topicsSource string, o RemoteOptions) (*libdcdb.Connection, *store.Cluster, error) {
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
	topicsPath := topicsSource + ".topics"
	if st, serr := os.Stat(topicsSource); serr == nil && st.IsDir() {
		topicsPath = collectagent.TopicsPath(topicsSource)
	}
	if err := collectagent.LoadTopicsFile(topicsPath, mapper); err != nil {
		cluster.Close()
		return nil, nil, fmt.Errorf("tooldb: topic map: %w", err)
	}
	conn := libdcdb.Connect(cluster, mapper)
	// Register every stored sensor in the hierarchy so listing works,
	// exactly as the file-backed open does — the SID set comes from the
	// live nodes instead of recovered files.
	for _, id := range cluster.SensorIDs() {
		if topic, ok := mapper.Reverse(id); ok {
			if err := conn.RegisterTopic(topic); err != nil {
				cluster.Close()
				return nil, nil, err
			}
		}
	}
	return conn, cluster, nil
}

// Save persists the tool-side node and metadata back under prefix. For
// a snapshot prefix the node collapses into .node0.snap; for a data
// directory it is rewritten as a single durable node0 (run files +
// clean WAL), which the agent recovers like any other directory. Not
// safe against an agent concurrently owning the directory.
func Save(conn *libdcdb.Connection, node *store.Node, prefix string) error {
	if st, err := os.Stat(prefix); err == nil && st.IsDir() {
		return saveDataDir(conn, node, prefix)
	}
	if err := node.SaveFile(prefix + ".node0.snap"); err != nil {
		return err
	}
	if err := collectagent.SaveTopicsFile(prefix+".topics", conn.Mapper()); err != nil {
		return err
	}
	return conn.SaveMetadataFile(prefix + ".meta")
}

func saveDataDir(conn *libdcdb.Connection, node *store.Node, dir string) error {
	// Collapse into node0, mirroring the snapshot path — but never
	// touch the existing node directories until the replacement is
	// complete and durable. The new node0 is built under a staging
	// name, renamed to the ".ready" commit marker, and only then
	// swapped in; a crash at any point either keeps the old database
	// or is finished by healInterruptedSave on the next open.
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
	fsutil.SyncDir(dir)
	if err := collectagent.HealInterruptedSave(dir); err != nil { // performs the swap
		return err
	}
	fsutil.SyncDir(dir)
	return nil
}
