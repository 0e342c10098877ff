package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
	"dcdb/internal/membership"
	"dcdb/internal/metrics"
	"dcdb/internal/mqtt"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
	"dcdb/internal/tooldb"
)

// The flush policy is part of the benchmark: it is the same on every
// commit, it is printed with every result, and changing it starts a
// new baseline.
const (
	// walSync is the nodes' WAL group-commit interval. At 20 ms the two
	// nodes issue 1 600 fsyncs a second (32 shard logs x 50/s) and the
	// latency of the sandbox's virtual disk, which swings by the
	// second, set the pace of everything else; at one second the WAL
	// still syncs ten times in a window and the disk no longer decides
	// the result. (Cassandra, the paper's backend, defaults to 10 s.)
	walSync        = time.Second
	cacheBytesFlag = "4MB"
	cacheBytes     = 4 << 20
	// flushSize is the node-wide memtable budget in entries (1/16th
	// per shard), twice the programs' default. burst_batch fills it
	// about thirty times per node in a window, so every shard spills
	// that often and the background compactor (trigger: more than 8 run
	// files in a shard) merges each shard several times. At the default
	// a shard spilled every 50 ms, the compactor never caught up, and
	// closed-loop throughput fell through the window and spread twice
	// as wide from run to run.
	flushSize      = 131072
	replication    = 2
	gossipInterval = 100 * time.Millisecond
	startTimeout   = 20 * time.Second
)

func flushPolicy() string {
	return fmt.Sprintf("2 dcdbnode, replication %d, write quorum, read one, -wal-sync %s, -cache-bytes %s, -flush-size %d, background compaction at its defaults",
		replication, walSync, cacheBytesFlag, flushSize)
}

// sut is the system under test: two dcdbnode processes and one collect
// agent — its own process in the measured runs, embedded behind
// tracing decorators in a traced run — plus the harness's query-side
// connection.
type sut struct {
	dir       string
	nodes     []*proc
	nodeAddrs []string
	nodeDirs  []string
	agentDir  string
	mqttAddr  string

	agent      *proc  // nil when the agent is embedded
	agentProm  string // the agent process's /metrics URL
	tr         *tracer
	embedded   *collectagent.Agent
	broker     *mqtt.Broker
	agentStore *store.Cluster
	agentRPC   []*rpc.Client // the embedded coordinator's node clients

	// query side, opened once every topic is registered
	conn     *libdcdb.Connection
	qcluster *store.Cluster
	queryRPC []*rpc.Client // traced runs only

	nodeRPC []*rpc.Client // harness-owned control connections to the nodes
}

// startSUT brings the cluster up in a fresh directory. With tr != nil
// the collect agent runs inside the harness with a span around every
// layer boundary; otherwise it is the real collectagent binary.
func startSUT(binDir, dir string, tr *tracer) (s *sut, err error) {
	s = &sut{dir: dir, tr: tr, agentDir: filepath.Join(dir, "agent")}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return s, err
	}
	for i := 0; i < 2; i++ {
		join := "self"
		if i > 0 {
			join = s.nodeAddrs[0]
		}
		nd := filepath.Join(dir, fmt.Sprintf("node%d", i))
		p, err := startProc(dir, fmt.Sprintf("node%d", i), filepath.Join(binDir, "dcdbnode"),
			"-listen", "127.0.0.1:0", "-data", nd, "-join", join,
			"-wal-sync", walSync.String(), "-cache-bytes", cacheBytesFlag,
			"-flush-size", strconv.Itoa(flushSize), "-gossip-interval", gossipInterval.String())
		if err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, p)
		addr, err := p.waitLine("dcdbnode: serving ", startTimeout)
		if err != nil {
			return s, err
		}
		s.nodeAddrs = append(s.nodeAddrs, addr)
		s.nodeDirs = append(s.nodeDirs, nd)
		s.nodeRPC = append(s.nodeRPC, rpc.NewClient(addr, rpc.ClientOptions{CallTimeout: 60 * time.Second}))
	}
	if err := s.waitRing(); err != nil {
		return s, err
	}
	if tr != nil {
		return s, s.startEmbeddedAgent()
	}
	s.agent, err = startProc(dir, "agent", filepath.Join(binDir, "collectagent"),
		"-listen", "127.0.0.1:0", "-join", s.nodeAddrs[0], "-data", s.agentDir,
		"-replication", strconv.Itoa(replication), "-write-consistency", "quorum", "-read-consistency", "one",
		"-metrics-addr", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	line, err := s.agent.waitLine("collectagent: MQTT broker on ", startTimeout)
	if err != nil {
		return s, err
	}
	s.mqttAddr, _, _ = strings.Cut(line, ",")
	maddr, err := s.agent.waitLine("collectagent: metrics on ", startTimeout)
	if err != nil {
		return s, err
	}
	s.agentProm = "http://" + maddr + "/metrics"
	return s, nil
}

// waitRing blocks until every node's gossip table lists both nodes, so
// that the agent discovers the final ring and never has to rebalance.
func (s *sut) waitRing() error {
	deadline := time.Now().Add(startTimeout)
	for _, seed := range s.nodeAddrs {
		for {
			ms, err := membership.DiscoverRing(seed)
			if err == nil && len(ms) == len(s.nodeAddrs) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("ring did not converge on %s: %d members, err %v", seed, len(ms), err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// ringCluster builds a coordinator over the discovered ring the way
// collectagent -join and dcdbquery -join do, with every node client
// behind a tracing decorator.
func (s *sut) ringCluster(co store.ClusterOptions) (*store.Cluster, []*rpc.Client, error) {
	members, err := membership.DiscoverRing(s.nodeAddrs[0])
	if err != nil {
		return nil, nil, err
	}
	ms := make([]store.MemberInfo, len(members))
	for i, m := range members {
		ms[i] = store.MemberInfo{ID: m.ID, Addr: m.Addr}
	}
	var clients []*rpc.Client
	co.Partitioner = store.RingPartitioner{}
	co.Replication = replication
	co.BackendFactory = func(id, addr string) store.NodeBackend {
		c := rpc.NewClient(addr, rpc.ClientOptions{})
		clients = append(clients, c)
		return tracedNode{NodeBackend: c, t: s.tr}
	}
	c, err := store.NewClusterMembers(ms, co)
	return c, clients, err
}

// startEmbeddedAgent runs the collect agent inside the harness, wired
// as cmd/collectagent wires its -join mode (hints under the data
// directory, the topic map saved whenever it grows), with the harness's
// own broker in front so that the exported Agent.Handle can be timed.
func (s *sut) startEmbeddedAgent() error {
	if err := os.MkdirAll(s.agentDir, 0o755); err != nil {
		return err
	}
	cluster, clients, err := s.ringCluster(store.ClusterOptions{
		WriteConsistency: store.ConsistencyQuorum,
		ReadConsistency:  store.ConsistencyOne,
		HintDir:          collectagent.HintsDir(s.agentDir),
	})
	if err != nil {
		return err
	}
	s.agentStore, s.agentRPC = cluster, clients
	var saveMu sync.Mutex
	var agent *collectagent.Agent
	agent = collectagent.New(tracedBackend{Cluster: cluster, t: s.tr}, nil, collectagent.Options{
		Quiet: true,
		OnNewTopic: func(string, core.SensorID) error {
			saveMu.Lock()
			defer saveMu.Unlock()
			return collectagent.SaveTopics(s.agentDir, agent.Mapper())
		},
	})
	s.embedded = agent
	s.broker = mqtt.NewBroker(func(topic string, payload []byte) {
		// The lookup only serves to link the spans of this PUBLISH; it
		// is tracing overhead and stays outside the span. A topic seen
		// for the first time (warm-up only) goes unlinked.
		id, known := agent.Mapper().Lookup(topic)
		if !known {
			agent.Handle(topic, payload)
			return
		}
		key := reqKey{id: id}
		root := s.tr.begin(key)
		start := s.tr.now()
		agent.Handle(topic, payload)
		s.tr.end(key, spanHandle, root, start, s.tr.now())
	})
	if err := s.broker.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	s.mqttAddr = s.broker.Addr()
	return nil
}

// openQuery opens the harness's read connection. Topic→SID codes are
// assigned inside the agent in order of first sight, so the topic map
// is loaded from the agent's data directory, exactly as
// dcdbquery -db <agent dir> -join <seed> does; call it only after every
// sensor has published once.
func (s *sut) openQuery() error {
	if s.tr == nil {
		conn, cluster, err := tooldb.OpenRemote(s.agentDir, tooldb.RemoteOptions{
			Seeds:           s.nodeAddrs[:1],
			Replication:     replication,
			ReadConsistency: store.ConsistencyOne,
		})
		s.conn, s.qcluster = conn, cluster
		return err
	}
	cluster, clients, err := s.ringCluster(store.ClusterOptions{ReadConsistency: store.ConsistencyOne})
	if err != nil {
		return err
	}
	mapper := core.NewTopicMapper()
	if err := collectagent.LoadTopics(s.agentDir, mapper); err != nil {
		cluster.Close()
		return err
	}
	s.conn, s.qcluster, s.queryRPC = libdcdb.Connect(tracedBackend{Cluster: cluster, t: s.tr}, mapper), cluster, clients
	return nil
}

// died names the children that are no longer running.
func (s *sut) died() []string {
	var out []string
	for _, p := range append(append([]*proc(nil), s.nodes...), s.agent) {
		if p != nil && !p.alive() {
			out = append(out, fmt.Sprintf("%s exited; log tail:\n%s", p.name, p.logTail(15)))
		}
	}
	return out
}

// agentMetrics returns the collect agent's metrics as a flat set:
// scraped over HTTP from the process, or gathered from the embedded
// agent's registries under the same names and labels.
func (s *sut) agentMetrics() (metricSet, error) {
	if s.agent != nil {
		resp, err := http.Get(s.agentProm)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		return parsePrometheus(string(b)), nil
	}
	set := metricSet{}
	pub, bytes := s.broker.Stats()
	set["dcdb_agent_broker_published_total"] = float64(pub)
	set["dcdb_agent_broker_payload_bytes_total"] = float64(bytes)
	set.addSamples(s.embedded.Metrics().Gather(), "")
	set.addSamples(s.agentStore.Metrics().Gather(), "")
	for i, c := range s.agentRPC {
		set.addSamples(c.Metrics().Gather(), fmt.Sprintf(`node="%d"`, i))
	}
	return set, nil
}

// nodeMetrics fetches both nodes' registries (store + RPC server) over
// the versioned Stats RPC and merges them.
func (s *sut) nodeMetrics() (metricSet, []metrics.Sample, error) {
	var sets [][]metrics.Sample
	for _, c := range s.nodeRPC {
		samples, err := c.MetricsSnapshot()
		if err != nil {
			return nil, nil, fmt.Errorf("metrics of node %s: %w", c.Addr(), err)
		}
		sets = append(sets, samples)
	}
	merged := metrics.MergeSamples(sets...)
	set := metricSet{}
	set.addSamples(merged, "")
	return set, merged, nil
}

// stop tears everything down; safe on a partly started sut.
func (s *sut) stop() {
	if s.qcluster != nil {
		s.qcluster.Close()
	}
	if s.broker != nil {
		s.broker.Close()
	}
	if s.agentStore != nil {
		s.agentStore.Close()
	}
	for _, c := range s.nodeRPC {
		c.Close()
	}
	if s.agent != nil {
		s.agent.kill()
	}
	for _, n := range s.nodes {
		n.kill()
	}
	os.RemoveAll(s.dir)
}
