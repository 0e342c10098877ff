// Durable backend wiring: a Collect Agent owns a data directory in
// which each storage node keeps its write-ahead log and per-shard run
// files (internal/store). Opening the directory replays the WALs, so an
// agent restart — clean or not — resumes with every acknowledged
// reading intact, which is what makes the paper's "continuous"
// monitoring claim (§2) hold across daemon crashes.
//
// Layout:
//
//	<dir>/node<i>/wal-*.log            — the node's write-ahead log
//	<dir>/node<i>/shard-<s>/run-*.sst  — its run files
//	<dir>/topics        — the topic↔SID map (atomic replace)
package collectagent

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fsutil"
	"dcdb/internal/membership"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

// NodeDir returns the data directory of cluster node i under dir.
func NodeDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("node%d", i))
}

// Staging directories of a tool-side data-directory rewrite
// (tooldb.Save). "node0.building" is an in-progress rewrite
// (incomplete, discarded); "node0.ready" is a complete rewrite whose
// final swap was interrupted (committed here). Both the agent and the
// tools heal before opening, so an interrupted rewrite can never be
// half-applied — or applied on top of data a later agent run wrote.
const (
	BuildingDir = "node0.building"
	ReadyDir    = "node0.ready"
)

// HealInterruptedSave completes or discards an interrupted tool-side
// rewrite of the data directory.
func HealInterruptedSave(dir string) error {
	os.RemoveAll(filepath.Join(dir, BuildingDir)) // never complete; inputs are intact
	ready := filepath.Join(dir, ReadyDir)
	if _, err := os.Stat(ready); err != nil {
		return nil
	}
	// The rewrite finished building: finish its swap — replace node0
	// and drop the now-stale higher-numbered nodes it meant to remove.
	if err := os.RemoveAll(NodeDir(dir, 0)); err != nil {
		return err
	}
	if err := os.Rename(ready, NodeDir(dir, 0)); err != nil {
		return err
	}
	for i := 1; ; i++ {
		nd := NodeDir(dir, i)
		if _, err := os.Stat(nd); err != nil {
			break
		}
		if err := os.RemoveAll(nd); err != nil {
			return err
		}
	}
	return fsutil.SyncDir(dir)
}

// HintsDir returns the hinted-handoff directory under a data
// directory.
func HintsDir(dir string) string { return filepath.Join(dir, "hints") }

// OpenBackend opens (creating on first use) a durable storage cluster
// rooted at dir with one subdirectory per node. Recovery of each node
// happens here; the returned cluster must be Closed to flush and
// detach cleanly.
func OpenBackend(dir string, nodes, replication int, part store.RingPartitioner, o store.DiskOptions) (*store.Cluster, error) {
	return OpenBackendOptions(dir, nodes, o, store.ClusterOptions{Partitioner: part, Replication: replication})
}

// OpenBackendOptions is OpenBackend with full cluster configuration
// (consistency levels, hinted handoff). A co.HintDir of "" enables
// handoff under <dir>/hints; pass "-" to disable it outright.
//
// o.CacheBytes is a PROCESS-WIDE block-cache budget: it is split
// evenly across the embedded nodes, so opening more nodes never
// multiplies the bound the caller configured. (Each node keeps its own
// cache — the split, not a shared cache, is what keeps node lifecycles
// independent.)
func OpenBackendOptions(dir string, nodes int, o store.DiskOptions, co store.ClusterOptions) (*store.Cluster, error) {
	if nodes < 1 {
		nodes = 1
	}
	if o.CacheBytes > 0 && nodes > 1 {
		o.CacheBytes /= int64(nodes)
		if o.CacheBytes < 1 {
			// Rounding to 0 would mean "unbounded" — the opposite of a
			// tiny budget. A 1-byte cache keeps nothing resident.
			o.CacheBytes = 1
		}
	}
	if err := HealInterruptedSave(dir); err != nil {
		return nil, fmt.Errorf("collectagent: healing interrupted save: %w", err)
	}
	// Opening fewer nodes than the directory holds would silently hide
	// acknowledged data; make the shrink explicit.
	if _, err := os.Stat(NodeDir(dir, nodes)); err == nil {
		return nil, fmt.Errorf("collectagent: %s exists but only %d node(s) requested — the directory holds more nodes than the configuration opens", NodeDir(dir, nodes), nodes)
	}
	switch co.HintDir {
	case "":
		co.HintDir = HintsDir(dir)
	case "-":
		co.HintDir = ""
	}
	backends := make([]store.NodeBackend, nodes)
	closeOpened := func(k int) {
		for _, b := range backends[:k] {
			b.Close()
		}
	}
	for i := range backends {
		n := store.NewNode(0)
		if err := n.OpenOptions(NodeDir(dir, i), o); err != nil {
			closeOpened(i)
			return nil, fmt.Errorf("collectagent: opening node %d: %w", i, err)
		}
		backends[i] = n
	}
	c, err := store.NewClusterOptions(backends, co)
	if err != nil {
		closeOpened(nodes)
		return nil, err
	}
	return c, nil
}

// OpenRemoteBackend builds a cluster of RPC storage nodes (one
// dcdbnode process per address). The agent keeps no node data locally;
// co.HintDir (when set) holds the durable hinted-handoff queue so
// writes a down node missed survive an agent restart too.
func OpenRemoteBackend(addrs []string, co store.ClusterOptions, ro rpc.ClientOptions) (*store.Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("collectagent: no storage node addresses")
	}
	backends := make([]store.NodeBackend, len(addrs))
	for i, addr := range addrs {
		backends[i] = rpc.NewClient(addr, ro)
	}
	c, err := store.NewClusterOptions(backends, co)
	if err != nil {
		for _, b := range backends {
			b.Close()
		}
		return nil, err
	}
	return c, nil
}

// OpenDiscoveredBackend builds a live-membership cluster of RPC
// storage nodes discovered from seed addresses: any one reachable
// dcdbnode answers a gossip probe with the full member table, so the
// agent needs a seed, not the complete node list. Members are keyed by
// the identity they advertise — every coordinator that discovers the
// same table, or is handed the same addresses, derives the same
// placement. Pair with WatchMembership to follow joins, leaves and
// failures live.
func OpenDiscoveredBackend(seeds []string, co store.ClusterOptions, ro rpc.ClientOptions) (*store.Cluster, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("collectagent: no seed addresses to discover from")
	}
	members, err := membership.DiscoverRing(seeds...)
	if err != nil {
		return nil, err
	}
	ms := make([]store.MemberInfo, len(members))
	for i, m := range members {
		ms[i] = store.MemberInfo{ID: m.ID, Addr: m.Addr}
	}
	co.BackendFactory = func(id, addr string) store.NodeBackend {
		return rpc.NewClient(addr, ro)
	}
	return store.NewClusterMembers(ms, co)
}

// WatchMembership starts a poller that follows the gossip member table
// via the seeds and applies ring changes to the cluster (SetMembers
// triggers the streaming rebalance + cutover). Stop the returned
// watcher before closing the cluster.
func WatchMembership(c *store.Cluster, seeds []string, interval time.Duration) (*membership.Watcher, error) {
	w, err := membership.NewWatcher(membership.WatcherConfig{
		Seeds:    seeds,
		Interval: interval,
		OnChange: func(members []membership.Member) {
			ms := make([]store.MemberInfo, len(members))
			for i, m := range members {
				ms[i] = store.MemberInfo{ID: m.ID, Addr: m.Addr}
			}
			if err := c.SetMembers(ms); err != nil {
				log.Printf("collectagent: applying membership change: %v", err)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	w.Start()
	return w, nil
}

// TopicsPath returns the topic-map file under a data directory.
func TopicsPath(dir string) string { return filepath.Join(dir, "topics") }

// SaveTopics atomically replaces the data directory's topic map, with
// the same durability discipline as the run files (atomic replace with
// fsyncs). Without them a crash after the rename could commit an empty
// file, orphaning every stored SID.
func SaveTopics(dir string, m *core.TopicMapper) error {
	data := []byte(strings.Join(m.Export(), "\n") + "\n")
	return fsutil.WriteFileAtomic(TopicsPath(dir), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// LoadTopics imports a previously saved topic map; a missing file is a
// fresh database, not an error. Temp files a crashed save left next to
// it are removed — loading happens at startup, before any saver runs.
func LoadTopics(dir string, m *core.TopicMapper) error {
	path := TopicsPath(dir)
	fsutil.CleanTemps(path)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var lines []string
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(ln) != "" {
			lines = append(lines, ln)
		}
	}
	return m.Import(lines)
}
