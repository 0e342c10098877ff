// Command dcdbquery retrieves sensor data for a specified time period
// in CSV format, optionally applying analysis operations such as
// integrals and derivatives (paper §5.2). It operates on the data
// directory persisted by a Collect Agent — or, with -nodes, queries a
// running multi-process storage cluster live over RPC (the topic map
// still comes from -db, which names the agent's data directory).
//
// Analysis ops run as single-pass streaming folds; on a live cluster
// they are pushed down to the storage nodes, which answer with one
// fold state per sensor instead of the readings. A summary over many
// topics keeps going past empty ones (printing count=0) and exits
// non-zero only when every topic fails.
//
// Usage:
//
//	dcdbquery -db /var/lib/dcdb/agent -from 2019-06-01T00:00:00Z \
//	          -to 2019-06-02T00:00:00Z [-op integral|derivative|summary] \
//	          /topic/one /topic/two
//	dcdbquery -db ... -list [/subtree]
//	dcdbquery -db ... -nodes 127.0.0.1:4441,127.0.0.1:4442 \
//	          -replication 2 -consistency quorum /topic/one
//	dcdbquery -db ... -join 127.0.0.1:4441 -replication 2 /topic/one
//	dcdbquery -db ... [-nodes ...] -op stats
//
// -join replaces the full -nodes list with gossip seed discovery: any
// one live cluster member answers with the whole ring. Either way
// placement is the consistent-hash ring over the nodes' advertised
// addresses, keyed on the SID prefix of -depth levels — -replication
// and -depth must match the agent's.
//
// -op stats takes no topics: it prints each storage node's counters
// and full metrics snapshot (latency histograms as count/sum/p50/p99),
// fetched over the versioned Stats RPC on a live cluster or read
// directly from the local store in file mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"dcdb/internal/libdcdb"
	"dcdb/internal/metrics"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
	"dcdb/internal/tooldb"
)

// printSamples pretty-prints one node's metrics snapshot, histograms
// summarized to count/sum/p50/p99 (quantiles are bucket upper bounds).
func printSamples(w io.Writer, samples []metrics.Sample) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	for _, s := range samples {
		if s.Hist != nil {
			scale := s.Hist.Scale
			if scale == 0 {
				scale = 1
			}
			fmt.Fprintf(w, "  %-58s count=%d sum=%g p50=%g p99=%g\n", s.Name,
				s.Hist.Count(), float64(s.Hist.Sum)*scale,
				s.Hist.Quantile(0.5)*scale, s.Hist.Quantile(0.99)*scale)
			continue
		}
		fmt.Fprintf(w, "  %-58s %g\n", s.Name, s.Value)
	}
}

// printStats renders per-node stats for -op stats.
func printStats(w io.Writer, stats []store.NodeStats) {
	for _, ns := range stats {
		where := "local"
		if ns.Addr != "" {
			where = ns.Addr
		}
		fmt.Fprintf(w, "node %d (%s): inserts=%d queries=%d entries=%d\n",
			ns.Index, where, ns.Inserts, ns.Queries, ns.Entries)
		if ns.Err != nil {
			fmt.Fprintf(w, "  metrics unavailable: %v\n", ns.Err)
			continue
		}
		printSamples(w, ns.Samples)
	}
}

// flags is the parsed command line.
type flags struct {
	db, nodes, join    string
	replication, depth int
	consistency        string
	from, to, op       string
	list               bool
}

func registerFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.db, "db", "dcdb", "agent data directory")
	fs.StringVar(&f.nodes, "nodes", "", "comma-separated dcdbnode addresses, each spelled as the node advertises itself: query the live cluster instead of files")
	fs.StringVar(&f.join, "join", "", "comma-separated gossip seed addresses: discover the live cluster's ring from any one member instead of listing every node")
	fs.IntVar(&f.replication, "replication", 1, "cluster replication factor (with -nodes or -join; must match the agent)")
	fs.IntVar(&f.depth, "depth", 4, "hierarchy levels forming the placement key, 0 = full SID (with -nodes or -join; must match the agent)")
	fs.StringVar(&f.consistency, "consistency", "one", "read consistency with -nodes or -join: one or quorum")
	fs.StringVar(&f.from, "from", "", "period start (RFC3339; empty = beginning)")
	fs.StringVar(&f.to, "to", "", "period end (RFC3339; empty = now)")
	fs.StringVar(&f.op, "op", "", "analysis operation: integral, derivative, summary or stats")
	fs.BoolVar(&f.list, "list", false, "list sensors below the given path instead of querying")
	return f
}

// open connects to what the flags select: the live cluster with -nodes
// or -join, the data directory -db in place otherwise. Close the
// cluster when done.
func open(f *flags) (*libdcdb.Connection, *store.Cluster, error) {
	if f.nodes == "" && f.join == "" {
		return tooldb.Open(f.db)
	}
	if f.nodes != "" && f.join != "" {
		return nil, nil, fmt.Errorf("-nodes and -join are mutually exclusive — the seed discovers the node set")
	}
	readCL, ok := store.ParseConsistency(f.consistency)
	if !ok {
		return nil, nil, fmt.Errorf("unknown consistency %q", f.consistency)
	}
	return tooldb.OpenRemote(f.db, tooldb.RemoteOptions{
		Addrs:           rpc.SplitAddrList(f.nodes),
		Seeds:           rpc.SplitAddrList(f.join),
		Replication:     f.replication,
		Depth:           f.depth,
		ReadConsistency: readCL,
	})
}

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Parse()
	conn, cluster, err := open(f)
	if err != nil {
		log.Fatalf("dcdbquery: %v", err)
	}
	defer cluster.Close()
	if f.op == "stats" {
		printStats(os.Stdout, cluster.ClusterStats())
		return
	}
	if f.list {
		path := ""
		if flag.NArg() > 0 {
			path = flag.Arg(0)
		}
		for _, s := range conn.ListSensors(path) {
			fmt.Println(s)
		}
		return
	}
	if flag.NArg() == 0 {
		log.Fatal("dcdbquery: no sensor topics given")
	}
	from := int64(0)
	to := time.Now().UnixNano()
	if f.from != "" {
		t, err := time.Parse(time.RFC3339, f.from)
		if err != nil {
			log.Fatalf("dcdbquery: bad -from: %v", err)
		}
		from = t.UnixNano()
	}
	if f.to != "" {
		t, err := time.Parse(time.RFC3339, f.to)
		if err != nil {
			log.Fatalf("dcdbquery: bad -to: %v", err)
		}
		to = t.UnixNano()
	}
	switch f.op {
	case "":
		if err := conn.ExportCSV(os.Stdout, flag.Args(), from, to); err != nil {
			log.Fatal(err)
		}
	case "integral":
		// Single-pass streaming fold, pushed down to the storage nodes
		// for unscaled physical sensors: the coordinator never holds the
		// queried window.
		for _, topic := range flag.Args() {
			v, err := conn.QueryIntegral(topic, from, to)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s,integral,%g\n", topic, v)
		}
	case "derivative":
		for _, topic := range flag.Args() {
			st, err := conn.DerivativeStream(topic, from, to)
			if err != nil {
				log.Fatal(err)
			}
			for {
				chunk, err := st.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					st.Close()
					log.Fatal(err)
				}
				for _, d := range chunk {
					fmt.Printf("%s,%s\n", topic, d)
				}
			}
			st.Close()
		}
	case "summary":
		// One empty or failing topic must not abort the rest of the
		// run: an empty window prints a count=0 row, a real failure is
		// reported and skipped, and the exit status is non-zero only
		// when every topic failed.
		failed := 0
		for _, topic := range flag.Args() {
			a, err := conn.QuerySummary(topic, from, to)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcdbquery: %s: %v\n", topic, err)
				failed++
				continue
			}
			if a.Count == 0 {
				fmt.Printf("%s,count=0\n", topic)
				continue
			}
			fmt.Printf("%s,count=%d,min=%g,max=%g,mean=%g\n", topic, a.Count, a.Min, a.Max, a.Mean)
		}
		if failed == flag.NArg() {
			log.Fatal("dcdbquery: all topics failed")
		}
	default:
		log.Fatalf("dcdbquery: unknown operation %q", f.op)
	}
}
