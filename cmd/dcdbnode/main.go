// Command dcdbnode runs one DCDB storage node as its own process: a
// durable store.Node (one WAL, one run file per flush, a size-tiered
// compaction after each spill) served over the internal/rpc wire
// protocol. A Collect
// Agent pointed at a set of dcdbnode addresses (-nodes host:port,...)
// forms the multi-process storage cluster of the paper's architecture
// (§4.3) — the storage tier survives agent restarts, and any single
// node can be killed, restarted or replaced while the rest keep
// serving.
//
// Usage:
//
//	dcdbnode -listen 127.0.0.1:4441 -data /var/lib/dcdb/node0 [-wal-sync 0]
//	dcdbnode ... -join 127.0.0.1:4441[,more-seeds] [-advertise host:port]
//	dcdbnode ... -metrics-addr 127.0.0.1:9090 [-pprof]
//
// With -join the node participates in gossip membership: it announces
// itself to the seed nodes (any existing cluster member works — the
// first node of a cluster passes its own address, or none), detects
// peer failures, and coordinators that discover the ring through any
// member rebalance data onto it live. The node's ring identity is its
// advertised address: -advertise overrides it when the listen address
// is not what peers should dial (e.g. -listen :0 behind NAT). On
// SIGTERM/SIGINT the node leaves gracefully, so peers drop it from the
// ring without waiting out the failure detector.
//
// The bound address is printed as "dcdbnode: serving <addr>" once the
// node is recovered and listening, so scripts may pass -listen :0 and
// scrape the line. With -metrics-addr the node serves its Prometheus
// exposition (store + RPC server + process metrics) at
// http://<metrics-addr>/metrics and prints "dcdbnode: metrics on
// <addr>"; -pprof additionally mounts net/http/pprof under
// /debug/pprof/ on the same listener.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dcdb/internal/membership"
	"dcdb/internal/metrics"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

// flags is the parsed command line.
type flags struct {
	listen, dataDir, cacheBytes string
	walSync, gossipInterval     time.Duration
	flushSize                   int
	metricsAddr                 string
	pprof                       bool
	join, advertise             string
}

func registerFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.listen, "listen", "127.0.0.1:4441", "RPC listen address")
	fs.StringVar(&f.dataDir, "data", "", "durable data directory (required)")
	fs.DurationVar(&f.walSync, "wal-sync", 0, "WAL fsync batching interval; 0 syncs every write (safest for a storage tier that acknowledges to remote coordinators)")
	fs.IntVar(&f.flushSize, "flush-size", 0, "memtable entries per flush (0 = default)")
	fs.StringVar(&f.cacheBytes, "cache-bytes", "0", "block cache budget (e.g. 256MB): run data always stays on disk behind its indexes, and this bounds the decoded blocks kept in memory; 0 = unbounded (a decoded block stays)")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "Prometheus /metrics listen address (empty = disabled)")
	fs.BoolVar(&f.pprof, "pprof", false, "mount net/http/pprof on the -metrics-addr listener")
	fs.StringVar(&f.join, "join", "", "comma-separated seed addresses: enable gossip membership and announce this node to the cluster (pass the node's own address, or nothing after the comma split, to bootstrap a new ring)")
	fs.StringVar(&f.advertise, "advertise", "", "address peers dial for this node; default = the bound listen address (set it when -listen is :0 or not routable)")
	fs.DurationVar(&f.gossipInterval, "gossip-interval", 0, "gossip round cadence (0 = default)")
	return f
}

// joinSeeds reduces a -join list to the seeds to dial: blanks, "self"
// and the node's own address drop out, so "-join self" (or a list that
// reduces to this node) bootstraps a new ring.
func joinSeeds(join, self string) []string {
	var seeds []string
	for _, s := range strings.Split(join, ",") {
		if s = strings.TrimSpace(s); s != "" && s != "self" && s != self {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// daemon is an opened storage node: recovered, served over RPC and,
// with -join, gossiping.
type daemon struct {
	node   *store.Node
	srv    *rpc.Server
	gossip *membership.Agent // nil without -join
}

// open recovers the node's data directory, serves it on -listen and,
// with -join, announces it to the cluster.
func open(f *flags) (*daemon, error) {
	if f.dataDir == "" {
		return nil, fmt.Errorf("-data is required; a storage node without a data directory would lose everything it acknowledged")
	}
	cache, err := store.ParseByteSize(f.cacheBytes)
	if err != nil {
		return nil, fmt.Errorf("-cache-bytes: %v", err)
	}

	node := store.NewNode(f.flushSize)
	start := time.Now()
	if err := node.OpenOptions(f.dataDir, store.DiskOptions{SyncInterval: f.walSync, CacheBytes: cache}); err != nil {
		return nil, fmt.Errorf("opening %s: %v", f.dataDir, err)
	}
	_, _, entries := node.Stats()
	log.Printf("dcdbnode: recovered %s (%d resident entries) in %s", f.dataDir, entries, time.Since(start).Round(time.Millisecond))

	d := &daemon{node: node, srv: rpc.NewServer(node, false)}
	// The gossip handler must be registered before Listen, but the
	// agent's ring identity defaults to the bound address — known only
	// after Listen when -listen is :0. An atomic pointer bridges the
	// gap: frames arriving before the agent exists are rejected, which
	// peers simply retry on the next round.
	var agent atomic.Pointer[membership.Agent]
	if f.join != "" {
		d.srv.SetGossip(func(peerState []byte) ([]byte, error) {
			a := agent.Load()
			if a == nil {
				return nil, rpc.ErrGossipUnavailable
			}
			return a.Handle(peerState)
		})
	}
	if err := d.srv.Listen(f.listen); err != nil {
		node.Close()
		return nil, fmt.Errorf("listening on %s: %v", f.listen, err)
	}
	log.Printf("dcdbnode: serving %s", d.srv.Addr())
	if f.join == "" {
		return d, nil
	}

	self := f.advertise
	if self == "" {
		self = d.srv.Addr()
	}
	seeds := joinSeeds(f.join, self)
	a, err := membership.New(membership.Config{
		ID:       self,
		Addr:     self,
		Interval: f.gossipInterval,
		Seeds:    seeds,
	})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("membership: %v", err)
	}
	agent.Store(a)
	d.gossip = a
	if len(seeds) > 0 {
		if err := a.Join(seeds...); err != nil {
			// A seed being down is not fatal: the gossip loop keeps
			// retrying the seeds until the cluster appears.
			log.Printf("dcdbnode: join attempt failed (will keep retrying): %v", err)
		}
	}
	a.Start()
	log.Printf("dcdbnode: gossiping as %s (seeds %v)", self, seeds)
	return d, nil
}

// close leaves the ring, stops serving and closes the node.
func (d *daemon) close() error {
	if d.gossip != nil {
		// Disseminate a Left tombstone so peers shrink the ring now
		// instead of waiting out the failure detector.
		d.gossip.Leave()
	}
	d.srv.Close()
	return d.node.Close()
}

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Parse()
	d, err := open(f)
	if err != nil {
		log.Fatalf("dcdbnode: %v", err)
	}

	if f.metricsAddr != "" {
		msrv, mln, err := metrics.Serve(f.metricsAddr, f.pprof,
			metrics.Part{Reg: d.node.Metrics()},
			metrics.Part{Reg: d.srv.Metrics()},
			metrics.Part{Reg: metrics.Runtime()})
		if err != nil {
			d.close()
			log.Fatalf("dcdbnode: metrics on %s: %v", f.metricsAddr, err)
		}
		defer msrv.Close()
		log.Printf("dcdbnode: metrics on %s", mln.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	if err := d.close(); err != nil {
		log.Printf("dcdbnode: closing node: %v", err)
	}
	ins, q, entries := d.node.Stats()
	log.Printf("dcdbnode: shut down (%d inserts, %d queries, %d resident entries)", ins, q, entries)
}
