// Command dcdbgrafana is the DCDB data-source server for Grafana-style
// dashboards (paper §5.4): it exposes the sensor hierarchy for
// level-by-level navigation through drop-down menus and serves
// range queries as JSON time series. The API follows the SimpleJSON
// data-source conventions:
//
//	GET  /                → 200 (health check)
//	GET  /metrics         → Prometheus exposition (runtime + RPC client)
//	POST /search          → {"target": "/lrz/cm3"} → child components
//	POST /query           → {"targets":[{"target": "/topic"}],
//	                          "range":{"from":RFC3339,"to":RFC3339},
//	                          "maxDataPoints":500} → datapoint series
//
// A /query without a range, or with from after to, is a 400. Lists
// with nothing in them encode as [], never null.
//
// Usage:
//
//	dcdbgrafana -db /var/lib/dcdb/agent -listen :3001
//	dcdbgrafana -db /var/lib/dcdb/agent -nodes host1:8482,host2:8482 \
//	            -replication 2 -consistency quorum -listen :3001
//
// With -nodes the readings come from remote dcdbnode processes (the
// -db directory still supplies the topic map and hierarchy), and
// maxDataPoints-limited queries run as downsample folds pushed to the
// storage nodes, so a wide dashboard range moves O(maxDataPoints)
// values per sensor, not the raw readings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
	"dcdb/internal/metrics"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
	"dcdb/internal/tooldb"
)

type searchRequest struct {
	Target string `json:"target"`
}

type queryRequest struct {
	Range struct {
		From time.Time `json:"from"`
		To   time.Time `json:"to"`
	} `json:"range"`
	Targets []struct {
		Target string `json:"target"`
	} `json:"targets"`
	MaxDataPoints int `json:"maxDataPoints"`
}

type series struct {
	Target     string       `json:"target"`
	Datapoints [][2]float64 `json:"datapoints"` // [value, unix ms]
}

func main() {
	db := flag.String("db", "dcdb", "agent data directory")
	listen := flag.String("listen", "127.0.0.1:3001", "HTTP listen address")
	nodesFlag := flag.String("nodes", "", "comma-separated dcdbnode addresses, each spelled as the node advertises itself: serve from the live cluster instead of files")
	replication := flag.Int("replication", 1, "cluster replication factor (with -nodes; must match the agent)")
	depth := flag.Int("depth", 4, "hierarchy levels forming the placement key, 0 = full SID (with -nodes; must match the agent)")
	consistency := flag.String("consistency", "one", "read consistency with -nodes: one or quorum")
	flag.Parse()
	var conn *libdcdb.Connection
	var cluster *store.Cluster
	var err error
	if *nodesFlag != "" {
		readCL, ok := store.ParseConsistency(*consistency)
		if !ok {
			log.Fatalf("dcdbgrafana: unknown consistency %q", *consistency)
		}
		conn, cluster, err = tooldb.OpenRemote(*db, tooldb.RemoteOptions{
			Addrs:           rpc.SplitAddrList(*nodesFlag),
			Replication:     *replication,
			Depth:           *depth,
			ReadConsistency: readCL,
		})
	} else {
		conn, cluster, err = tooldb.Open(*db)
	}
	if err != nil {
		log.Fatalf("dcdbgrafana: %v", err)
	}
	defer cluster.Close()
	log.Printf("dcdbgrafana: serving %s on %s", *db, *listen)
	log.Fatal(http.ListenAndServe(*listen, newHandler(conn, cluster)))
}

// newHandler serves the data-source API over conn. cluster is the
// cluster behind conn, the live nodes or the data directory's, whose
// coordinator and RPC client metrics join /metrics.
func newHandler(conn *libdcdb.Connection, cluster *store.Cluster) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "dcdb grafana data source")
	})
	// Prometheus exposition: process runtime metrics, the cluster
	// coordinator's, and the per-node RPC clients' when serving live.
	mparts := []metrics.Part{{Reg: metrics.Runtime()}, {Reg: cluster.Metrics()}}
	for i, b := range cluster.Backends() {
		if c, ok := b.(*rpc.Client); ok {
			mparts = append(mparts, metrics.Part{Reg: c.Metrics(), Labels: fmt.Sprintf(`node="%d"`, i)})
		}
	}
	mux.Handle("GET /metrics", metrics.Handler(mparts...))
	mux.HandleFunc("POST /search", func(w http.ResponseWriter, r *http.Request) {
		var req searchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Hierarchical navigation: children of the requested level,
		// with full sensors below it listed too.
		out := struct {
			Children []string `json:"children"`
			Sensors  []string `json:"sensors"`
		}{nonNil(conn.Children(req.Target)), nonNil(conn.ListSensors(req.Target))}
		writeJSON(w, out)
	})
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req queryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// A zero time has no UnixNano to speak of, and a range that ends
		// before it starts selects nothing a caller could have meant.
		if req.Range.From.IsZero() || req.Range.To.IsZero() {
			http.Error(w, "query: range.from and range.to are required", http.StatusBadRequest)
			return
		}
		if req.Range.From.After(req.Range.To) {
			http.Error(w, "query: range.from is after range.to", http.StatusBadRequest)
			return
		}
		from, to := req.Range.From.UnixNano(), req.Range.To.UnixNano()
		out := []series{}
		for _, tgt := range req.Targets {
			var rs []core.Reading
			var err error
			if req.MaxDataPoints > 0 {
				// Streaming downsample: one pass over the range, pushed
				// down to the storage nodes for unscaled physical
				// sensors, so a wide dashboard range never materializes
				// on this server. The bucket grid spans the request
				// range, so panels bucket consistently while scrolling.
				rs, err = conn.QueryDownsample(tgt.Target, from, to, req.MaxDataPoints)
			} else {
				rs, err = conn.Query(tgt.Target, from, to)
			}
			if err != nil {
				http.Error(w, fmt.Sprintf("query %q: %v", tgt.Target, err), http.StatusBadRequest)
				return
			}
			s := series{Target: tgt.Target, Datapoints: make([][2]float64, 0, len(rs))}
			for _, rd := range rs {
				s.Datapoints = append(s.Datapoints, [2]float64{rd.Value, float64(rd.Timestamp / 1e6)})
			}
			out = append(out, s)
		}
		writeJSON(w, out)
	})
	return mux
}

// nonNil makes an empty list encode as [] rather than null.
func nonNil(s []string) []string {
	if s == nil {
		return []string{}
	}
	return s
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
