// Durable backend wiring: a Collect Agent owns a data directory in
// which its one embedded storage node keeps its write-ahead log and
// run files (internal/store). Opening the directory replays
// the WAL, so an agent restart — clean or not — resumes with every
// acknowledged reading intact, which is what makes the paper's
// "continuous" monitoring claim (§2) hold across daemon crashes.
// Replicas belong to the storage tier: an agent that wants them writes
// to dcdbnode processes, not to more stores on its own disk.
//
// Layout:
//
//	<dir>/node0/wal-*.log            — the store's write-ahead log
//	<dir>/node0/run-*.sst            — its run files
//	<dir>/topics        — the topic↔SID map (append-only: one line per level code)
//	<dir>/meta          — sensor metadata the tools publish (dcdbconfig)
//
// The tools (internal/tooldb) open the same store in place. Two kinds
// of directory that earlier builds wrote are refused by name: the
// stores of a multi-node embedded cluster (node1 and up), and the
// staging directories node0.building and node0.ready that tools
// rewrote the directory through.
package collectagent

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fsutil"
	"dcdb/internal/membership"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

// errInterruptedSave refuses the staging directories of the data
// directory rewrite that tools of earlier builds made on every edit
// ("node0.building", "node0.ready"). Tools edit in place, so this
// build neither finishes nor discards such a rewrite.
var errInterruptedSave = errors.New("holds an interrupted tool save of an earlier build, which this build neither finishes nor discards: " +
	"open and close it once with the build that wrote it (its dcdbquery -db DIR -list does), then retry")

// errSeveralStores refuses the directory of an earlier build's
// multi-node embedded cluster. Which of its stores holds a sensor
// followed that agent's -nodes, -replication and -depth, which the
// directory does not record, so this build neither reads nor merges
// them.
var errSeveralStores = errors.New("holds the stores of several embedded nodes, which an earlier build wrote and this build does not read: " +
	"export the readings to CSV with that build's dcdbquery -db DIR, " +
	"then load the CSV into a fresh directory with dcdbcsvimport")

// refuseOldLayouts fails when dir holds a second node's store or a
// staging directory.
func refuseOldLayouts(dir string) error {
	for _, c := range []struct {
		name string
		err  error
	}{{"node1", errSeveralStores}, {"node0.building", errInterruptedSave}, {"node0.ready", errInterruptedSave}} {
		if _, err := os.Stat(filepath.Join(dir, c.name)); err == nil {
			return fmt.Errorf("%s %w (found %s)", dir, c.err, c.name)
		}
	}
	return nil
}

// HintsDir returns the hinted-handoff directory under a data
// directory.
func HintsDir(dir string) string { return filepath.Join(dir, "hints") }

// OpenBackendOptions opens (creating on first use) the durable store
// of the data directory dir, <dir>/node0, with o, as a cluster of that
// one node configured by co. Recovery happens here; the returned
// cluster must be Closed to flush and detach cleanly. A directory that
// an earlier build left with several stores or an interrupted tool
// save is refused, unchanged.
func OpenBackendOptions(dir string, o store.DiskOptions, co store.ClusterOptions) (*store.Cluster, error) {
	if err := refuseOldLayouts(dir); err != nil {
		return nil, err
	}
	n := store.NewNode(0)
	if err := n.OpenOptions(filepath.Join(dir, "node0"), o); err != nil {
		return nil, fmt.Errorf("opening the store: %w", err)
	}
	c, err := store.NewClusterOptions([]store.NodeBackend{n}, co)
	if err != nil {
		n.Close()
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
		return nil, errors.New("no storage node addresses")
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
		return nil, errors.New("no seed addresses to discover from")
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
// fresh database, not an error. A last line without its newline is an
// append a crash tore (TopicLog), and is ignored; a complete line that
// does not parse fails the load, naming the file, and nothing is
// imported. Temp files a crashed save left next to it are removed —
// loading happens at startup, before any saver runs.
func LoadTopics(dir string, m *core.TopicMapper) error {
	_, _, err := readTopics(dir, m)
	return err
}

// readTopics is LoadTopics, returning the file's size and the length
// of its complete lines (-1, 0 when it is missing).
func readTopics(dir string, m *core.TopicMapper) (size, complete int64, err error) {
	path := TopicsPath(dir)
	fsutil.CleanTemps(path)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return -1, 0, nil
		}
		return 0, 0, err
	}
	whole := data[:bytes.LastIndexByte(data, '\n')+1]
	var lines []string
	for _, ln := range strings.Split(string(whole), "\n") {
		if strings.TrimSpace(ln) != "" {
			lines = append(lines, ln)
		}
	}
	if err := m.Import(lines); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	return int64(len(data)), int64(len(whole)), nil
}

// TopicLog is a durable agent's topic map, kept append-only: each
// growth of the mapper's dictionaries is appended as its new lines with
// one write and one fsync, so a save costs what the map grew by, not
// what it holds.
type TopicLog struct {
	mu    sync.Mutex // one append at a time: the group commit
	dir   string
	m     *core.TopicMapper
	f     *os.File                    // appending; nil: the next append rewrites the file first
	saved [core.MaxTopicLevels]uint16 // the dictionary lengths the file holds
	buf   []byte
}

// OpenTopicLog loads dir's topic map into m (LoadTopics) and opens it
// for appending. A map it cannot read fails the open with the file
// untouched: an agent must never assign codes over names it could not
// load. A torn last line is cut off.
func OpenTopicLog(dir string, m *core.TopicMapper) (*TopicLog, error) {
	size, complete, err := readTopics(dir, m)
	if err != nil {
		return nil, err
	}
	l := &TopicLog{dir: dir, m: m, saved: m.Lens()}
	if size < 0 {
		return l, nil // the first append writes the file whole
	}
	f, err := os.OpenFile(TopicsPath(dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	if complete < size {
		if err := f.Truncate(complete); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	l.f = f
	return l, nil
}

// Append makes the mapper's dictionaries durable as they are now: it
// appends the lines of the codes assigned since the last append with
// one write and one fsync. Callers arriving during an append wait for
// the lock and mostly find their codes written. A failed append leaves
// the file's tail unknown, so the next one first rewrites the file
// whole (SaveTopics).
func (l *TopicLog) Append() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		lens := l.m.Lens() // the rewrite holds at least these
		if err := SaveTopics(l.dir, l.m); err != nil {
			return err
		}
		f, err := os.OpenFile(TopicsPath(l.dir), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		l.f, l.saved = f, lens
		return nil
	}
	var lens [core.MaxTopicLevels]uint16
	l.buf, lens = l.m.AppendExport(l.buf[:0], l.saved)
	if len(l.buf) == 0 {
		return nil
	}
	_, err := l.f.Write(l.buf)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.f.Close()
		l.f = nil
		return err
	}
	l.saved = lens
	return nil
}

// Close closes the file.
func (l *TopicLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
