package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	binDir  string // where dcdbnode and collectagent were built
	workDir string // parent of the per-cluster temp directories
	// corrupt flips one acknowledged reading in the generator's
	// expectations before verification: the run must then fail. It
	// exists to prove that the verifier can.
	corrupt bool
}

var runSerial atomic.Int64

// minTime and maxTime bound "everything" the way the repository's own
// tools do.
const (
	minTime = int64(-1) << 62
	maxTime = int64(1) << 62
)

// sampleSensors is how many sensors verification reads back in full.
const sampleSensors = 200

// phase is the raw outcome of one cluster lifetime: set-up, the timed
// window, verification and the final compaction.
type phase struct {
	setup  time.Duration
	ingest ingestStats
	query  queryStats
	// cpuAgent and cpuNodes are the CPU time of the server processes
	// from the opening of the window until everything acknowledged in
	// it was stored.
	cpuAgent float64
	cpuNodes float64

	// activity during the window
	agentDelta metricSet
	nodeDelta  metricSet
	nodeAfter  metricSet
	spillP50   float64 // seconds, over the node's whole life

	rssAgentKB, rssNodesKB int64
	ioWriteBytes           int64 // both nodes, window only

	attempted, failed int64
	lostReadings      int64
	failures          []string

	distinct     int64 // readings stored in total (preload, warm-up, window)
	diskBytes    int64
	streamTime   time.Duration // read-back of the sampled sensors through QueryStream
	streamCount  int64
	aggRespBytes float64 // response bytes per verification Aggregate
	verified     bool
	// capacity is the closed-loop message rate of the workload's
	// connections: that of the window itself when the workload is a
	// closed loop, that of a short probe after the window otherwise.
	capacity float64

	tr *tracer
}

func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.failures) < 8 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
}

// bench is one cluster lifetime of one workload: set up, then measured.
type bench struct {
	cfg runConfig
	s   *sut
	trk *tracker
	win []*publisher // the workload's own connections
	all []*publisher // every connection opened, for closing
	qr  *querier
	ph  *phase
	// capacityProbe, when set, is how many messages measure publishes
	// closed loop after the window of an open-loop workload to find
	// what the connections can sustain.
	capacityProbe int
}

func (b *bench) close() {
	for _, p := range b.all {
		p.client.Close()
	}
	b.s.stop()
}

// dial opens publisher connections whose streams continue where the
// sensors' acknowledged readings end.
func (b *bench) dial(conns, batch int) ([]*publisher, error) {
	ps := make([]*publisher, conns)
	for c := range ps {
		st := newStream(b.trk.pop, c, conns, batch)
		for i, sensor := range st.order {
			st.next[i] = b.trk.acked[sensor]
		}
		p, err := newPublisher(b.s.mqttAddr, st, b.trk, b.ph.tr)
		if err != nil {
			return nil, err
		}
		b.all = append(b.all, p)
		ps[c] = p
	}
	return ps, nil
}

// publishAll sends perSensor messages per sensor on the given
// connections, closed loop, and waits until the agent has stored them.
func (b *bench) publishAll(ps []*publisher, perSensor int) error {
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p *publisher) {
			defer wg.Done()
			for i := 0; i < perSensor*len(p.st.order); i++ {
				p.publish()
			}
		}(p)
	}
	wg.Wait()
	for _, p := range ps {
		b.ph.attempted += p.msgs + p.failed
		b.ph.failed += p.failed
		if p.firstErr != nil {
			return p.firstErr
		}
	}
	return b.s.barrier(b.trk)
}

// setUp starts a fresh cluster and brings it to the state in which the
// timed window opens: preload published in bursts, flushed and
// compacted cold; one message per sensor on the workload's own
// connections, which registers every topic, opens every RPC connection
// and sizes the memtables; the query connection open. With tr set the
// collect agent is embedded and traced.
func setUp(cfg runConfig, tr *tracer) (_ *bench, err error) {
	w := cfg.w
	t0 := time.Now()
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("run-%d-%d", os.Getpid(), runSerial.Add(1)))
	s, err := startSUT(cfg.binDir, dir, tr)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, s: s, trk: newTracker(newPopulation(cfg.seed, w.sensors)), ph: &phase{tr: tr}}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if w.preload > 0 {
		pre, err := b.dial(2, burstBatch)
		if err != nil {
			return nil, err
		}
		if err := b.publishAll(pre, w.preload/burstBatch); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		if err := s.flushAndCompact(); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if b.win, err = b.dial(w.conns, w.batch); err != nil {
		return nil, err
	}
	if err := b.publishAll(b.win, 1); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := s.openQuery(); err != nil {
		return nil, fmt.Errorf("opening the query connection: %w", err)
	}
	pop := b.trk.pop
	ids := make([]core.SensorID, pop.len())
	for i, topic := range pop.topics {
		id, ok := s.conn.Mapper().Lookup(topic)
		if !ok {
			return nil, fmt.Errorf("topic %s missing from the agent's topic map after warm-up", topic)
		}
		ids[i] = id
	}
	for _, p := range b.win {
		p.ids = ids
	}
	b.qr = &querier{conn: s.conn, qs: newQueryStream(cfg.seed, pop.len()), trk: b.trk, tr: tr}
	b.ph.setup = time.Since(t0)
	return b, nil
}

// measure runs the timed window — ingest on the workload's connections
// and, beside it, the query goroutine — then verification and the final
// compaction.
func (b *bench) measure(window time.Duration) (*phase, error) {
	s, w, ph, trk, tr := b.s, b.cfg.w, b.ph, b.trk, b.ph.tr
	agent0, err := s.agentMetrics()
	if err != nil {
		return nil, err
	}
	node0, _, err := s.nodeMetrics()
	if err != nil {
		return nil, err
	}
	io0 := s.nodeIOBytes()
	if tr != nil {
		tr.reset()
	}
	cpuA0, cpuN0, err := s.cpuSplit()
	if err != nil {
		return nil, err
	}
	var qwg sync.WaitGroup
	if w.queries {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			b.qr.run(time.Now().Add(window), &ph.query)
		}()
	}
	ph.ingest = runIngest(b.win, w.rate, window, int(w.refRate*window.Seconds()))
	qwg.Wait()
	if err := s.barrier(trk); err != nil {
		ph.fail("%v", err)
	}
	cpuA1, cpuN1, err := s.cpuSplit()
	if err != nil {
		return nil, err
	}
	ph.cpuAgent, ph.cpuNodes = cpuA1-cpuA0, cpuN1-cpuN0
	ph.ioWriteBytes = s.nodeIOBytes() - io0
	if dead := s.died(); len(dead) > 0 {
		return nil, fmt.Errorf("a child died during the window: %v", dead)
	}
	ph.attempted += ph.ingest.msgs + ph.ingest.failed + ph.query.attempted()
	ph.failed += ph.ingest.failed + ph.query.failed
	if ph.ingest.firstErr != nil {
		ph.failures = append(ph.failures, ph.ingest.firstErr.Error())
	}
	if ph.query.firstErr != nil {
		ph.failures = append(ph.failures, ph.query.firstErr.Error())
	}

	agent1, err := s.agentMetrics()
	if err != nil {
		return nil, err
	}
	node1, samples, err := s.nodeMetrics()
	if err != nil {
		return nil, err
	}
	ph.agentDelta, ph.nodeDelta, ph.nodeAfter = agent1.minus(agent0), node1.minus(node0), node1
	spills := histogram(samples, "dcdb_store_spill_duration_seconds")
	ph.spillP50 = spills.Quantile(0.5) * spills.Scale
	ph.rssAgentKB, ph.rssNodesKB = s.rssPeakKB()

	ph.capacity = ph.ingest.offered
	if w.rate > 0 && b.capacityProbe > 0 {
		probe := runIngest(b.win, 0, 0, b.capacityProbe)
		ph.capacity = probe.offered
		ph.attempted += probe.msgs + probe.failed
		ph.failed += probe.failed
		if err := s.barrier(trk); err != nil {
			ph.fail("%v", err)
		}
	}

	// Correctness, then the size on disk of what was stored.
	if b.cfg.corrupt {
		trk.sum[trk.pop.len()/2].Add([]core.Reading{{Timestamp: 1, Value: 1}})
	}
	s.verify(ph, trk, b.cfg.seed)
	if err := s.flushAndCompact(); err != nil {
		ph.fail("final compaction: %v", err)
	}
	ph.distinct = trk.totalAcked()
	for _, d := range s.nodeDirs {
		n, err := dirBytes(d)
		if err != nil {
			ph.fail("sizing %s: %v", d, err)
		}
		ph.diskBytes += n
	}
	if dead := s.died(); len(dead) > 0 {
		return nil, fmt.Errorf("a child died: %v", dead)
	}
	return ph, nil
}

// barrier waits until the agent has stored every reading the generator
// saw acknowledged (the broker acknowledges before the agent handles).
func (s *sut) barrier(trk *tracker) error {
	want := float64(trk.totalAcked())
	deadline := time.Now().Add(30 * time.Second)
	for {
		var got, errs float64
		if s.embedded != nil {
			st := s.embedded.Stats()
			got, errs = float64(st.Readings), float64(st.Errors)
		} else {
			m, err := s.agentMetrics()
			if err != nil {
				return err
			}
			got, errs = m["dcdb_agent_readings_total"], m["dcdb_agent_errors_total"]
		}
		if got >= want {
			trk.settle()
			return nil
		}
		if errs > 0 || time.Now().After(deadline) {
			return fmt.Errorf("agent stored %.0f of %.0f acknowledged readings (%.0f errors)", got, want, errs)
		}
		if dead := s.died(); len(dead) > 0 {
			return fmt.Errorf("%v", dead)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// flushAndCompact forces both nodes' memtables to disk and merges
// their run files, both nodes at once.
func (s *sut) flushAndCompact() error {
	errs := make([]error, len(s.nodeRPC))
	var wg sync.WaitGroup
	for i, c := range s.nodeRPC {
		wg.Add(1)
		go func(i int, c *rpc.Client) {
			defer wg.Done()
			if errs[i] = c.Flush(); errs[i] == nil {
				c.Compact()
				errs[i] = c.Ping() // Compact reports nothing; make sure the node survived it
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *sut) cpuSplit() (agent, nodes float64, err error) {
	if s.agent != nil {
		if agent, err = cpuSeconds(s.agent.pid()); err != nil {
			return
		}
	}
	for _, n := range s.nodes {
		c, err := cpuSeconds(n.pid())
		if err != nil {
			return 0, 0, err
		}
		nodes += c
	}
	return
}

func (s *sut) nodeIOBytes() int64 {
	var total int64
	for _, n := range s.nodes {
		b, _ := procField(n.pid(), "io", "write_bytes")
		total += b
	}
	return total
}

func (s *sut) rssPeakKB() (agent, nodes int64) {
	if s.agent != nil {
		agent, _ = procField(s.agent.pid(), "status", "VmHWM")
	}
	for _, n := range s.nodes {
		kb, _ := procField(n.pid(), "status", "VmHWM")
		nodes += kb
	}
	return
}

// queryClients are the RPC clients behind the harness's read
// connection.
func (s *sut) queryClients() []*rpc.Client {
	if s.queryRPC != nil {
		return s.queryRPC
	}
	var out []*rpc.Client
	for _, b := range s.qcluster.Backends() {
		if c, ok := b.(*rpc.Client); ok {
			out = append(out, c)
		}
	}
	return out
}

func netRead(cs []*rpc.Client) int64 {
	var total int64
	for _, c := range cs {
		r, _ := c.NetBytes()
		total += r
	}
	return total
}

// verify checks that everything acknowledged is readable: after a
// flush, every sensor's pushed-down summary must match the generator's
// count and fingerprint, and a seeded sample of sensors is read back in
// full and compared reading by reading.
func (s *sut) verify(ph *phase, trk *tracker, seed int64) {
	if err := s.qcluster.Flush(); err != nil {
		ph.fail("flush before verification: %v", err)
		return
	}
	pop := trk.pop
	all := fold.Spec{Op: fold.OpSummary, From: minTime, To: maxTime}
	read0 := netRead(s.queryClients())
	for i, topic := range pop.topics {
		ph.attempted++
		id, _ := s.conn.Mapper().Lookup(topic)
		st, err := s.qcluster.Aggregate(id, all)
		if err != nil {
			ph.fail("aggregate of %s: %v", topic, err)
			ph.lostReadings += trk.acked[i]
			continue
		}
		want := &trk.sum[i]
		if st.Count() != want.Count() || st.Fingerprint() != want.Fingerprint() {
			ph.fail("%s holds %d readings (fingerprint %016x); %d were acknowledged (fingerprint %016x)",
				topic, st.Count(), st.Fingerprint(), want.Count(), want.Fingerprint())
			if d := want.Count() - st.Count(); d > 0 {
				ph.lostReadings += d
			}
		}
	}
	ph.aggRespBytes = float64(netRead(s.queryClients())-read0) / float64(pop.len())

	r := rand.New(rand.NewSource(int64(hash3(uint64(seed), 0x766572696679, 0))))
	sample := r.Perm(pop.len())
	if len(sample) > sampleSensors {
		sample = sample[:sampleSensors]
	}
	var want []core.Reading
	for _, i := range sample {
		ph.attempted++
		id, _ := s.conn.Mapper().Lookup(pop.topics[i])
		if int64(cap(want)) < trk.acked[i] {
			want = make([]core.Reading, trk.acked[i])
		}
		want = want[:trk.acked[i]]
		pop.fill(want, i, 0)
		t0 := time.Now()
		got, err := drain(s.qcluster, id)
		ph.streamTime += time.Since(t0)
		ph.streamCount += int64(len(got))
		if err == nil {
			err = checkReadings(got, want)
		}
		if err != nil {
			ph.fail("read-back of %s: %v", pop.topics[i], err)
		}
	}
	ph.verified = true
}

// drain reads a sensor's whole retention through the streaming path.
func drain(c *store.Cluster, id core.SensorID) ([]core.Reading, error) {
	st, err := c.QueryStream(id, minTime, maxTime)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var out []core.Reading
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
}
