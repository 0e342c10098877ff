// Command collectagent runs a DCDB Collect Agent: an MQTT broker that
// receives sensor readings from Pushers, translates topics into SIDs
// and writes them to a Storage Backend (paper §4.2). The backend is
// either one store embedded in the agent or a cluster of dcdbnode
// storage processes that replicate each other.
//
// With -data an embedded agent is durable, and the data directory is
// the one thing it persists: its store keeps per-shard sorted run
// files and a write-ahead log in node0/, every accepted reading is
// crash-safe once the WAL syncs (see -wal-sync), and the directory is
// recovered on start, so restarts and crashes lose nothing. The topic
// map lives beside them, is appended to before any reading that needs
// a new name is stored, and must be readable for the agent to start.
// The query tools open the same directory. Without -data the agent
// keeps everything in memory.
//
// Usage:
//
//	collectagent -listen :1883 -rest :8080 -data /var/lib/dcdb/agent
//	collectagent -listen :1883 -nodes 127.0.0.1:4441,127.0.0.1:4442 -replication 2
//	collectagent -listen :1883 -join 127.0.0.1:4441 -replication 2
//	collectagent ... -metrics-addr 127.0.0.1:9090 [-pprof] [-self-monitor 10s]
//
// The embedded store keeps one copy of each reading: replicas belong
// to the storage tier, so an agent that wants them runs dcdbnode
// processes and names them with -nodes or -join. With -join the agent
// discovers the storage ring from any one gossip seed instead of a
// full -nodes list, then follows membership changes live: nodes
// joining, leaving or dying reshape the consistent-hash ring and the
// agent rebalances its coordination (and streams moved ranges) without
// a restart.
//
// Whether the nodes are named by an address list or a seed, placement
// is the same ring over the nodes' identities, keyed on the first
// -depth levels of a sensor's topic, so a sub-tree of the hierarchy
// shares one replica set (paper §4.3). -depth and -replication must
// agree across every agent and tool of one storage cluster.
//
// With -metrics-addr (or -rest; both expose /metrics) the process
// serves its Prometheus exposition: agent ingest counters, cluster
// coordinator metrics, per-backend store or RPC-client metrics with a
// node="<i>" label, and process runtime metrics. -pprof mounts
// net/http/pprof on the -metrics-addr listener. -self-monitor
// additionally publishes the same metrics into the store itself every
// interval as /dcdb/self/<host>/... sensors (paper §6's dog-fooded
// monitoring-of-the-monitoring), queryable with the ordinary tools.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/membership"
	"dcdb/internal/metrics"
	"dcdb/internal/rest"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

// parseNodes interprets the -nodes flag: 1 selects the embedded
// store, anything else is a comma-separated host:port list of dcdbnode
// processes. Any other count is refused, naming the way to run that
// many nodes.
func parseNodes(s string) (addrs []string, err error) {
	if n, err := strconv.Atoi(strings.TrimSpace(s)); err == nil {
		if n != 1 {
			return nil, fmt.Errorf("-nodes %d: an agent embeds one store; for %d storage nodes run that many dcdbnode processes "+
				"and pass their addresses to -nodes, or one of them to -join", n, n)
		}
		return nil, nil
	}
	if addrs = rpc.SplitAddrList(s); len(addrs) == 0 {
		return nil, fmt.Errorf("-nodes %q is neither 1 nor an address list", s)
	}
	return addrs, nil
}

// flags is the parsed command line.
type flags struct {
	listen, restAddr, nodes, join string
	ringPoll                      time.Duration
	replication, depth            int
	writeCL, readCL               string
	dataDir                       string
	antiEntropy, walSync          time.Duration
	cacheBytes                    string
	metricsAddr                   string
	pprof                         bool
	selfMonitor                   time.Duration
}

func registerFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.listen, "listen", "127.0.0.1:1883", "MQTT listen address")
	fs.StringVar(&f.restAddr, "rest", "", "RESTful API listen address (empty = disabled)")
	fs.StringVar(&f.nodes, "nodes", "1", "storage backend: 1 for the one embedded store, or a comma-separated host:port list of dcdbnode processes, each spelled as the node advertises itself")
	fs.StringVar(&f.join, "join", "", "comma-separated seed dcdbnode addresses: discover the storage ring via gossip instead of listing every node with -nodes, follow joins/leaves live and rebalance through them")
	fs.DurationVar(&f.ringPoll, "ring-poll", time.Second, "membership poll cadence in -join mode")
	fs.IntVar(&f.replication, "replication", 1, "copies of each row on the dcdbnode processes of -nodes or -join (the embedded store keeps one)")
	fs.IntVar(&f.depth, "depth", 4, "hierarchy levels forming the placement key on the dcdbnode processes of -nodes or -join: sensors sharing that prefix share a replica set (0 = hash the full SID); must agree across every agent and tool of one storage cluster")
	fs.StringVar(&f.writeCL, "write-consistency", "one", "replicas that must ack a write: one or quorum")
	fs.StringVar(&f.readCL, "read-consistency", "one", "replicas a read must reach: one or quorum")
	fs.StringVar(&f.dataDir, "data", "", "durable data directory (embedded: the store's run files and WAL, and the topic map; remote: topic map + hinted-handoff queue; empty = not durable)")
	fs.DurationVar(&f.antiEntropy, "anti-entropy", 0, "background repair cadence: each round compares replica summaries per sensor and re-inserts diverged readings with their write versions (0 = disabled; needs -replication >= 2)")
	fs.DurationVar(&f.walSync, "wal-sync", 50*time.Millisecond, "WAL fsync batching interval; 0 syncs every write (embedded store only)")
	fs.StringVar(&f.cacheBytes, "cache-bytes", "0", "block cache budget (e.g. 256MB) of the embedded durable store: run data always stays on disk behind its indexes, and this bounds the decoded blocks kept in memory; 0 = unbounded (a decoded block stays)")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "Prometheus /metrics listen address (empty = disabled; the -rest API also serves /metrics)")
	fs.BoolVar(&f.pprof, "pprof", false, "mount net/http/pprof on the -metrics-addr listener")
	fs.DurationVar(&f.selfMonitor, "self-monitor", 0, "publish the agent's own metrics into the store as /dcdb/self/<host>/... sensors every interval (0 = disabled)")
	return f
}

// openCluster builds the storage backend the flags select: -nodes 1
// (the default) runs the one embedded store; an address list connects
// to that many dcdbnode processes over RPC; -join discovers the node
// set from gossip seeds instead and follows it.
func openCluster(f *flags) (cluster *store.Cluster, watcher *membership.Watcher, nodeDesc string, err error) {
	writeCL, ok := store.ParseConsistency(f.writeCL)
	if !ok {
		return nil, nil, "", fmt.Errorf("unknown write consistency %q", f.writeCL)
	}
	readCL, ok := store.ParseConsistency(f.readCL)
	if !ok {
		return nil, nil, "", fmt.Errorf("unknown read consistency %q", f.readCL)
	}
	co := store.ClusterOptions{
		Partitioner:         store.RingPartitioner{Depth: f.depth},
		Replication:         f.replication,
		WriteConsistency:    writeCL,
		ReadConsistency:     readCL,
		AntiEntropyInterval: f.antiEntropy,
	}
	remoteAddrs, err := parseNodes(f.nodes)
	if err != nil {
		return nil, nil, "", err
	}
	seeds := rpc.SplitAddrList(f.join)
	if len(seeds) > 0 && remoteAddrs != nil {
		return nil, nil, "", fmt.Errorf("-join and a -nodes address list are mutually exclusive — the seed discovers the node set")
	}
	if len(seeds) == 0 && remoteAddrs == nil && f.replication > 1 {
		return nil, nil, "", fmt.Errorf("-replication %d: the embedded store keeps one copy of each reading; for %d copies run dcdbnode processes "+
			"and pass their addresses to -nodes, or one of them to -join", f.replication, f.replication)
	}
	if f.dataDir != "" && (len(seeds) > 0 || remoteAddrs != nil) {
		// The data directory holds no node data in remote mode — the
		// topic map and the hinted-handoff queue live there.
		if err := os.MkdirAll(f.dataDir, 0o755); err != nil {
			return nil, nil, "", err
		}
		co.HintDir = collectagent.HintsDir(f.dataDir)
	}
	nodeDesc = "one embedded store"
	switch {
	case len(seeds) > 0:
		cluster, err = collectagent.OpenDiscoveredBackend(seeds, co, rpc.ClientOptions{})
		if err == nil {
			nodeDesc = fmt.Sprintf("%d RPC storage node(s) discovered via %s", len(cluster.Backends()), strings.Join(seeds, ","))
			if watcher, err = collectagent.WatchMembership(cluster, seeds, f.ringPoll); err != nil {
				cluster.Close()
			}
		}
	case remoteAddrs != nil:
		nodeDesc = fmt.Sprintf("%d RPC storage node(s) at %s", len(remoteAddrs), strings.Join(remoteAddrs, ","))
		cluster, err = collectagent.OpenRemoteBackend(remoteAddrs, co, rpc.ClientOptions{})
	case f.dataDir != "":
		var cache int64
		if cache, err = store.ParseByteSize(f.cacheBytes); err != nil {
			return nil, nil, "", fmt.Errorf("-cache-bytes: %v", err)
		}
		cluster, err = collectagent.OpenBackendOptions(f.dataDir,
			store.DiskOptions{SyncInterval: f.walSync, CacheBytes: cache}, co)
	default:
		cluster, err = store.NewClusterOptions([]store.NodeBackend{store.NewNode(0)}, co)
	}
	return cluster, watcher, nodeDesc, err
}

// newAgent builds the agent over cluster. With -data its topic map is
// the data directory's: loaded before any message is taken — a map that
// cannot be read fails here, its file untouched, rather than be started
// over under codes its stored readings already use — and appended to
// before any reading whose SID uses a level code not yet known durable
// is stored (and thus before it can be WAL-acknowledged). A reading
// never outlives its name.
func newAgent(f *flags, cluster *store.Cluster) (*collectagent.Agent, *collectagent.TopicLog, error) {
	if f.dataDir == "" {
		return collectagent.New(cluster, nil, collectagent.Options{}), nil, nil
	}
	mapper := core.NewTopicMapper()
	topics, err := collectagent.OpenTopicLog(f.dataDir, mapper)
	if err != nil {
		return nil, nil, fmt.Errorf("topic map: %w", err)
	}
	agent := collectagent.New(cluster, mapper, collectagent.Options{
		OnNewTopic: func(string, core.SensorID) error { return topics.Append() },
	})
	return agent, topics, nil
}

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Parse()

	cluster, watcher, nodeDesc, err := openCluster(f)
	if err != nil {
		log.Fatalf("collectagent: %v", err)
	}

	agent, topics, err := newAgent(f, cluster)
	if err != nil {
		if watcher != nil {
			watcher.Stop()
		}
		cluster.Close()
		log.Fatalf("collectagent: %v", err)
	}
	if topics != nil {
		defer topics.Close()
	}
	if err := agent.Listen(f.listen); err != nil {
		cluster.Close() // leave no half-open WAL segments behind
		log.Fatal(err)
	}
	mode := "memory-only"
	if f.dataDir != "" {
		mode = "durable at " + f.dataDir
	}
	log.Printf("collectagent: MQTT broker on %s, %s, placement depth %d, write=%s read=%s, %s",
		agent.Addr(), nodeDesc, f.depth, f.writeCL, f.readCL, mode)

	// One exposition for the whole process: ingest counters, the
	// cluster coordinator, and every backend (embedded store node or
	// RPC client) with a node label telling them apart.
	parts := []metrics.Part{{Reg: agent.Metrics()}, {Reg: cluster.Metrics()}}
	for i, b := range cluster.Backends() {
		label := fmt.Sprintf(`node="%d"`, i)
		switch be := b.(type) {
		case *store.Node:
			parts = append(parts, metrics.Part{Reg: be.Metrics(), Labels: label})
		case *rpc.Client:
			parts = append(parts, metrics.Part{Reg: be.Metrics(), Labels: label})
		}
	}

	if f.restAddr != "" {
		api := rest.NewAgentAPI(agent)
		api.MetricsParts = parts[1:] // Routes already includes the agent registry
		if err := api.Listen(f.restAddr); err != nil {
			cluster.Close()
			log.Fatal(err)
		}
		defer api.Close()
		log.Printf("collectagent: REST API on %s", api.Addr())
	}

	if f.metricsAddr != "" {
		msrv, mln, err := metrics.Serve(f.metricsAddr, f.pprof,
			append(parts, metrics.Part{Reg: metrics.Runtime()})...)
		if err != nil {
			cluster.Close()
			log.Fatalf("collectagent: metrics on %s: %v", f.metricsAddr, err)
		}
		defer msrv.Close()
		log.Printf("collectagent: metrics on %s", mln.Addr())
	}

	stopSelf := func() {}
	if f.selfMonitor > 0 {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "agent"
		}
		stopSelf = agent.StartSelfMonitor(host, f.selfMonitor,
			append(parts, metrics.Part{Reg: metrics.Runtime()})...)
		log.Printf("collectagent: self-monitoring as %s/%s every %s",
			collectagent.SelfTopicPrefix, host, f.selfMonitor)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	stopSelf() // no self-publishes once the backend starts closing
	if watcher != nil {
		watcher.Stop() // no membership swaps once the backend starts closing
	}
	if err := cluster.Close(); err != nil {
		log.Printf("collectagent: closing backend: %v", err)
	}
	st := agent.Stats()
	log.Printf("collectagent: shutting down (%d messages, %d readings, %d errors)",
		st.Messages, st.Readings, st.Errors)
	agent.Close()
}
