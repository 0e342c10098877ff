// Cluster-processes: the multi-process deployment of the paper's
// architecture (§4.3) end to end — three dcdbnode storage processes,
// a Collect Agent writing to them over RPC at consistency ONE with
// hinted handoff, and QUORUM reads. One storage node is SIGKILLed
// mid-ingest; writes keep flowing, hints queue for the dead node, the
// node is restarted on its data directory, hints replay, and a final
// QUORUM read must return every single published reading — zero lost
// acknowledged writes. The run then smoke-tests the observability
// layer: every process (the three storage nodes and the agent) must
// serve its Prometheus exposition over HTTP, and the agent's
// self-monitoring sensors (/dcdb/self/...) must read back through
// libdcdb like any facility sensor. The process exits non-zero on any
// violation, which is what makes it usable as a CI smoke test.
//
// Run from the repository root (it builds cmd/dcdbnode):
//
//	go run ./examples/cluster-processes
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
	"dcdb/internal/metrics"
	"dcdb/internal/mqtt"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

const (
	topics          = 24
	readingsPerPush = 5
	pushes          = 20 // per topic: 100 readings per sensor total
	killAfterPushes = 8  // SIGKILL a storage node mid-ingest
)

func main() {
	log.SetFlags(0)
	work, err := os.MkdirTemp("", "dcdb-cluster-processes")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)

	// Build the storage node binary and launch three processes, each
	// owning a data directory, fsyncing every write before it acks.
	bin := filepath.Join(work, "dcdbnode")
	build := exec.Command("go", "build", "-o", bin, "dcdb/cmd/dcdbnode")
	if out, err := build.CombinedOutput(); err != nil {
		log.Fatalf("building dcdbnode: %v\n%s", err, out)
	}
	nodes := make([]*nodeProc, 3)
	for i := range nodes {
		nodes[i] = startNode(bin, filepath.Join(work, fmt.Sprintf("node%d", i)))
		defer nodes[i].stop()
	}
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	fmt.Printf("3 dcdbnode processes: %s\n", strings.Join(addrs, ", "))

	// The Collect Agent coordinates over RPC: replication 2, writes at
	// ONE (availability), reads at QUORUM (completeness), hints on.
	cluster, err := collectagent.OpenRemoteBackend(addrs, store.ClusterOptions{
		Partitioner:        store.RingPartitioner{Depth: 2},
		Replication:        2,
		WriteConsistency:   store.ConsistencyOne,
		ReadConsistency:    store.ConsistencyQuorum,
		HintDir:            filepath.Join(work, "hints"),
		HintReplayInterval: 100 * time.Millisecond,
	}, rpc.ClientOptions{ReconnectBackoff: 50 * time.Millisecond, MaxBackoff: 500 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	agent := collectagent.New(cluster, nil, collectagent.Options{Quiet: true})
	if err := agent.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer agent.Close()
	fmt.Printf("collect agent on %s (replication 2, write=one, read=quorum, hinted handoff)\n", agent.Addr())

	client, err := mqtt.Dial(agent.Addr(), mqtt.DialOptions{ClientID: "pusher"})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	topic := func(i int) string {
		return fmt.Sprintf("/lrz/rack%02d/node%d/sensor%02d", i%4, i%2, i)
	}
	published := 0
	push := func(round int) {
		for i := 0; i < topics; i++ {
			rs := make([]core.Reading, readingsPerPush)
			for j := range rs {
				ts := int64(round*readingsPerPush + j + 1)
				rs[j] = core.Reading{Timestamp: ts, Value: float64(ts)}
			}
			if err := client.Publish(topic(i), core.EncodeReadings(rs), 1); err != nil {
				log.Fatalf("publish: %v", err)
			}
			published += len(rs)
		}
	}

	for round := 0; round < killAfterPushes; round++ {
		push(round)
	}
	// Kill a primary owner of a published sensor, so that the writes
	// after the kill are certain to queue hints for it: which nodes own
	// the four depth-2 subtrees follows the nodes' ephemeral ports.
	id, ok := agent.Mapper().Lookup(topic(0))
	if !ok {
		log.Fatalf("FAIL: %s was never mapped", topic(0))
	}
	owner, victim := cluster.Owners(id)[0], -1
	for i, n := range nodes {
		if n.addr == owner {
			victim = i
		}
	}
	if victim < 0 {
		log.Fatalf("FAIL: %s is owned by %s, none of the nodes", topic(0), owner)
	}
	fmt.Printf("ingested %d readings, SIGKILLing storage node %d mid-ingest …\n", published, victim)
	nodes[victim].kill()
	for round := killAfterPushes; round < pushes; round++ {
		push(round)
	}
	// PUBACK races the broker's handler by design; give the final
	// messages a moment to reach the store before asserting.
	var st collectagent.Stats
	for end := time.Now().Add(10 * time.Second); ; {
		st = agent.Stats()
		if st.Readings+st.Errors >= int64(published) || time.Now().After(end) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("ingest continued through the failure: %d/%d readings acked (%d errors), hints queued for the dead node\n",
		st.Readings, published, st.Errors)
	if st.Errors != 0 || st.Readings != int64(published) {
		log.Fatalf("FAIL: %d of %d readings acked with %d errors — writes at ONE must survive a single node failure",
			st.Readings, published, st.Errors)
	}

	// Restart the killed node on its data directory; the coordinator's
	// hint replayer converges it in the background.
	nodes[victim] = startNode(bin, filepath.Join(work, fmt.Sprintf("node%d", victim)))
	defer nodes[victim].stop()
	fmt.Printf("storage node %d restarted at %s, waiting for hinted handoff …\n", victim, nodes[victim].addr)
	deadline := time.Now().Add(30 * time.Second)
	for {
		queued, replayed, pending := cluster.HintStats()
		if pending == 0 && queued > 0 {
			fmt.Printf("hinted handoff complete: %d mutations queued, %d replayed\n", queued, replayed)
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("FAIL: hints never drained (queued %d, replayed %d, pending %d)", queued, replayed, pending)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// QUORUM reads (rf=2 ⇒ both replicas must answer) must now return
	// every published reading — including through the restarted node.
	conn := libdcdb.Connect(cluster, agent.Mapper())
	total := 0
	for i := 0; i < topics; i++ {
		rs, err := conn.Query(topic(i), 0, 1<<62)
		if err != nil {
			log.Fatalf("FAIL: QUORUM query %s: %v", topic(i), err)
		}
		if len(rs) != pushes*readingsPerPush {
			log.Fatalf("FAIL: %s returned %d of %d readings at QUORUM", topic(i), len(rs), pushes*readingsPerPush)
		}
		total += len(rs)
	}
	fmt.Printf("QUORUM reads returned all %d readings after kill + restart + handoff: zero lost acknowledged writes\n", total)

	// Observability smoke (paper §6 dog-fooding). Every storage process
	// serves its Prometheus exposition on its -metrics-addr listener …
	for i, n := range nodes {
		body := httpGet(fmt.Sprintf("http://%s/metrics", n.metrics))
		for _, series := range []string{"dcdb_store_inserts_total", "dcdb_rpc_server_requests_total", "dcdb_process_goroutines"} {
			if !strings.Contains(body, series) {
				log.Fatalf("FAIL: node %d /metrics is missing %s", i, series)
			}
		}
	}
	// … the agent process serves the merged exposition (ingest +
	// coordinator + per-node RPC clients) the same way …
	agentParts := []metrics.Part{{Reg: agent.Metrics()}, {Reg: cluster.Metrics()}}
	for i, b := range cluster.Backends() {
		if c, ok := b.(*rpc.Client); ok {
			agentParts = append(agentParts, metrics.Part{Reg: c.Metrics(), Labels: fmt.Sprintf(`node="%d"`, i)})
		}
	}
	msrv, mln, err := metrics.Serve("127.0.0.1:0", false, agentParts...)
	if err != nil {
		log.Fatalf("FAIL: agent metrics listener: %v", err)
	}
	body := httpGet(fmt.Sprintf("http://%s/metrics", mln.Addr()))
	msrv.Close()
	for _, series := range []string{"dcdb_agent_readings_total", "dcdb_cluster_writes_total", `dcdb_rpc_client_connects_total{node="0"}`} {
		if !strings.Contains(body, series) {
			log.Fatalf("FAIL: agent /metrics is missing %s", series)
		}
	}
	// … and the agent's own metrics, published as /dcdb/self/<host>/...
	// sensors through the normal ingest path, read back through libdcdb
	// (the same API dcdbquery uses) like any facility sensor.
	selfSeries := agent.PublishSelfMetrics("cluster-smoke", agentParts...)
	selfTopic := collectagent.SelfTopicPrefix + "/cluster-smoke/dcdb_agent_readings_total"
	rs, err := conn.Query(selfTopic, 0, 1<<62)
	if err != nil || len(rs) != 1 {
		log.Fatalf("FAIL: self-sensor %s: %d readings, err=%v", selfTopic, len(rs), err)
	}
	fmt.Printf("observability smoke: 4 processes serve /metrics; %d self-sensors published, %s reads back %g\n",
		selfSeries, selfTopic, rs[0].Value)

	if err := cluster.Close(); err != nil {
		log.Fatalf("closing cluster: %v", err)
	}
	fmt.Println("OK")
}

// httpGet fetches a URL and returns the body, fataling on any error.
func httpGet(url string) string {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		log.Fatalf("FAIL: GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("FAIL: GET %s: status %d, err=%v", url, resp.StatusCode, err)
	}
	return string(b)
}

// nodeProc wraps one dcdbnode process.
type nodeProc struct {
	cmd     *exec.Cmd
	addr    string
	metrics string // Prometheus /metrics listener
}

// startNode launches dcdbnode on dir. The first launch for a directory
// picks a free port; restarts reuse the recorded port so coordinator
// clients reconnect to the same address. Each node also serves its
// Prometheus exposition on an ephemeral -metrics-addr port, scraped
// from the "dcdbnode: metrics on" line.
func startNode(bin, dir string) *nodeProc {
	listen := "127.0.0.1:0"
	portFile := filepath.Join(dir, "..", filepath.Base(dir)+".port")
	if b, err := os.ReadFile(portFile); err == nil {
		listen = strings.TrimSpace(string(b))
	}
	cmd := exec.Command(bin, "-listen", listen, "-data", dir, "-wal-sync", "0",
		"-metrics-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		log.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		log.Fatal(err)
	}
	addrCh := make(chan string, 1)
	metricsCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "dcdbnode: serving "); ok {
				select {
				case addrCh <- strings.TrimSpace(a):
				default:
				}
			}
			if _, a, ok := strings.Cut(sc.Text(), "dcdbnode: metrics on "); ok {
				select {
				case metricsCh <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	p := &nodeProc{cmd: cmd}
	deadline := time.After(30 * time.Second)
	for p.addr == "" || p.metrics == "" {
		select {
		case p.addr = <-addrCh:
		case p.metrics = <-metricsCh:
		case <-deadline:
			cmd.Process.Kill()
			log.Fatal("dcdbnode never reported its addresses")
		}
	}
	os.WriteFile(portFile, []byte(p.addr), 0o644)
	return p
}

// kill SIGKILLs the node — no shutdown path runs.
func (p *nodeProc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	p.cmd.Wait()
}

// stop terminates the node gracefully (idempotent with kill).
func (p *nodeProc) stop() {
	if p.cmd.ProcessState != nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}
