package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/libdcdb"
	"dcdb/internal/mqtt"
)

// clock is the pacer's view of time, so that a test can inject a
// stall and check what it is charged to.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// lateThreshold is how long after it could have started a send may
// start before it counts as a scheduling miss of the generator itself.
const lateThreshold = time.Millisecond

// paceStats is what an open loop reports about itself.
type paceStats struct {
	latency latencies // due time → completion: what a user on a schedule sees
	late    latencies // how late the generator itself ran (see pace)
	misses  int       // sends the generator started more than lateThreshold late
}

// pace runs op on a fixed schedule: operation i is due at
// start + i*interval, whether or not earlier operations were slow.
// One caller has one operation in flight, so a stalled operation
// delays the following sends; their latency is charged from when they
// were due, not from when they were finally sent, which is what keeps
// a stall from hiding (coordinated omission). The generator's own
// lateness is kept apart: it is the time from when a send could have
// started — its due time, or the completion of the previous operation
// if that came later — to when it did. It returns when the next due
// time reaches end.
func pace(clk clock, start, end time.Time, interval time.Duration, st *paceStats, op func(due time.Time)) {
	free := start // when the previous operation completed
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return
		}
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		sent := clk.Now()
		op(due)
		done := clk.Now()
		st.latency = append(st.latency, done.Sub(due))
		ready := due
		if free.After(due) {
			ready = free
		}
		st.late = append(st.late, sent.Sub(ready))
		if sent.Sub(ready) > lateThreshold {
			st.misses++
		}
		free = done
	}
}

// tracker is the generator's record of what the system acknowledged:
// the ground truth every answer is checked against.
type tracker struct {
	pop *population
	// acked[s] is the number of readings of sensor s whose PUBLISH was
	// acknowledged; readings 0..acked-1 exist. Written only by the
	// sensor's publisher goroutine.
	acked []int64
	// stored[s] is the number of readings of sensor s known to have
	// been handled by the agent. The broker acknowledges a PUBLISH
	// before it hands it to the agent but serves a connection serially,
	// so the ack of message m proves that message m-1 of the same
	// connection is stored. Queries only ask for stored readings.
	stored []atomic.Int64
	// sum[s] folds every acknowledged reading of sensor s.
	sum []fold.Summary
}

func newTracker(pop *population) *tracker {
	t := &tracker{
		pop:    pop,
		acked:  make([]int64, pop.len()),
		stored: make([]atomic.Int64, pop.len()),
		sum:    make([]fold.Summary, pop.len()),
	}
	for i := range t.sum {
		t.sum[i] = *fold.NewSummary()
	}
	return t
}

func (t *tracker) totalAcked() int64 {
	var n int64
	for _, a := range t.acked {
		n += a
	}
	return n
}

// settle marks everything acknowledged as stored; call it after the
// barrier that waits for the agent to have handled every message.
func (t *tracker) settle() {
	for s, a := range t.acked {
		t.stored[s].Store(a)
	}
}

// publisher drives one MQTT connection.
type publisher struct {
	client *mqtt.Client
	st     *stream
	trk    *tracker
	tr     *tracer // traced runs: told when each message is sent
	ids    []core.SensorID

	rs       []core.Reading
	prev     message
	havePrev bool

	rtt                    time.Duration // of the last successful Publish
	msgs, readings, failed int64
	firstErr               error
}

func newPublisher(addr string, st *stream, trk *tracker, tr *tracer) (*publisher, error) {
	c, err := mqtt.Dial(addr, mqtt.DialOptions{})
	if err != nil {
		return nil, err
	}
	return &publisher{client: c, st: st, trk: trk, tr: tr, rs: make([]core.Reading, st.batch)}, nil
}

// publish sends the stream's next message at QoS 1 and waits for the
// PUBACK.
func (p *publisher) publish() {
	m := p.st.nextMessage(p.rs)
	payload := core.EncodeReadings(p.rs)
	if p.tr != nil && p.ids != nil {
		p.tr.sent(reqKey{id: p.ids[m.sensor]})
	}
	t0 := time.Now()
	err := p.client.Publish(p.st.pop.topics[m.sensor], payload, 1)
	p.rtt = time.Since(t0)
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = fmt.Errorf("publish to %s: %w", p.st.pop.topics[m.sensor], err)
		}
		return
	}
	p.msgs++
	p.readings += int64(len(p.rs))
	p.trk.sum[m.sensor].Add(p.rs)
	p.trk.acked[m.sensor] += int64(len(p.rs))
	if p.havePrev {
		p.trk.stored[p.prev.sensor].Store(p.prev.k0 + int64(p.st.batch))
	}
	p.prev, p.havePrev = m, true
}

// ingestStats is one ingest window over all connections.
type ingestStats struct {
	elapsed        time.Duration
	msgs, readings int64
	failed         int64
	ack            latencies // closed loop: send → ack; open loop: due → ack
	late           latencies
	misses         int
	offered        float64 // messages per second the generator aimed for (open) or achieved (closed)
	firstErr       error
}

// runIngest publishes on every connection. With rate > 0 it is an open
// loop: on a fixed schedule for d. Otherwise it is a closed loop over a
// fixed amount of work: the connections share msgs messages equally and
// each sends its next one when the previous one is acknowledged, so
// the time taken is the result and what ends up stored does not depend
// on how fast the system was.
func runIngest(pubs []*publisher, rate float64, d time.Duration, msgs int) ingestStats {
	type result struct {
		ps             paceStats
		msgs, readings int64
		failed         int64
		err            error
	}
	results := make([]result, len(pubs))
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i, p := range pubs {
		wg.Add(1)
		go func(i int, p *publisher) {
			defer wg.Done()
			r := &results[i]
			m0, r0, f0 := p.msgs, p.readings, p.failed
			if rate > 0 {
				interval := time.Duration(float64(len(pubs)) / rate * float64(time.Second))
				// Connections are staggered across one interval.
				offset := time.Duration(i) * interval / time.Duration(len(pubs))
				n := int(d/interval) + 1
				r.ps.latency, r.ps.late = make(latencies, 0, n), make(latencies, 0, n)
				pace(wallClock{}, start.Add(offset), end, interval, &r.ps, func(time.Time) { p.publish() })
			} else {
				n := msgs / len(pubs)
				r.ps.latency = make(latencies, 0, n)
				for j := 0; j < n; j++ {
					p.publish()
					r.ps.latency = append(r.ps.latency, p.rtt)
				}
			}
			r.msgs, r.readings, r.failed, r.err = p.msgs-m0, p.readings-r0, p.failed-f0, p.firstErr
		}(i, p)
	}
	wg.Wait()
	out := ingestStats{elapsed: time.Since(start), offered: rate}
	for _, r := range results {
		out.msgs += r.msgs
		out.readings += r.readings
		out.failed += r.failed
		out.ack = append(out.ack, r.ps.latency...)
		out.late = append(out.late, r.ps.late...)
		out.misses += r.ps.misses
		if out.firstErr == nil {
			out.firstErr = r.err
		}
	}
	if rate == 0 {
		out.offered = float64(out.msgs+out.failed) / out.elapsed.Seconds()
	}
	return out
}

// queryStats is one query window.
type queryStats struct {
	lat [numQueryKinds]latencies
	// readings is how many readings the answers returned (range reads)
	// or folded (aggregates).
	readings int64
	failed   int64
	firstErr error
}

func (q *queryStats) attempted() int64 {
	var n int64
	for _, l := range q.lat {
		n += int64(len(l))
	}
	return n + q.failed
}

// querier issues the seeded query mix closed loop through libdcdb and
// checks every answer against the generator.
type querier struct {
	conn *libdcdb.Connection
	qs   *queryStream
	trk  *tracker
	tr   *tracer
	buf  []core.Reading
}

// resolve binds a draw to the readings stored right now: n readings
// exist, a range read covers w of them — the newest w (recent), w at
// the drawn offset (cold) or all n (aggregate). The range ends at an
// existing reading's timestamp, so readings acknowledged after the
// query was sent can never fall inside it and the expected answer is
// exact even while ingest runs.
func resolve(d queryDraw, n int64) (lo, hi int64) {
	w := int64(querySpan)
	if w > n {
		w = n
	}
	switch d.kind {
	case queryRecent:
		return n - w, n
	case queryCold:
		lo = int64(d.offset * float64(n-w+1))
		if lo > n-w {
			lo = n - w
		}
		return lo, lo + w
	default:
		return 0, n
	}
}

// run queries closed loop until end.
func (q *querier) run(end time.Time, st *queryStats) {
	for time.Now().Before(end) {
		q.one(st)
	}
}

// one issues the stream's next query and checks the answer.
func (q *querier) one(st *queryStats) {
	pop := q.trk.pop
	d := q.qs.next()
	n := q.trk.stored[d.sensor].Load()
	if n == 0 {
		return
	}
	lo, hi := resolve(d, n)
	from, to := pop.tsOf(d.sensor, lo), pop.tsOf(d.sensor, hi-1)
	topic := pop.topics[d.sensor]
	if cap(q.buf) < int(hi-lo) {
		q.buf = make([]core.Reading, hi-lo)
	}
	want := q.buf[:hi-lo]
	pop.fill(want, d.sensor, lo)

	var key reqKey
	var root uint64
	if q.tr != nil {
		id, _ := q.conn.Mapper().Lookup(topic)
		key = reqKey{id: id, read: true}
		root = q.tr.begin(key)
	}
	var err error
	t0 := time.Now()
	if d.kind == queryAggregate {
		var a libdcdb.Aggregate
		a, err = q.conn.QuerySummary(topic, from, to)
		if err == nil {
			err = checkAggregate(a, want)
		}
	} else {
		var got []core.Reading
		got, err = q.conn.Query(topic, from, to)
		if err == nil {
			err = checkReadings(got, want)
		}
	}
	t1 := time.Now()
	if q.tr != nil {
		name := spanLibQuery
		if d.kind == queryAggregate {
			name = spanLibAggregate
		}
		q.tr.end(key, name, root, int64(t0.Sub(q.tr.epoch)), int64(t1.Sub(q.tr.epoch)))
	}
	if err != nil {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = fmt.Errorf("%s query of %s readings [%d,%d): %w", d.kind, topic, lo, hi, err)
		}
		return
	}
	st.lat[d.kind] = append(st.lat[d.kind], t1.Sub(t0))
	st.readings += hi - lo
}

// checkReadings compares an answer with the generated truth, reading
// by reading and bit by bit.
func checkReadings(got, want []core.Reading) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d readings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Timestamp != want[i].Timestamp || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			return fmt.Errorf("reading %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkAggregate compares a summary answer with the fold of the
// generated truth.
func checkAggregate(a libdcdb.Aggregate, want []core.Reading) error {
	s := fold.NewSummary()
	s.Add(want)
	if int64(a.Count) != s.N || a.First != s.First || a.Last != s.Last ||
		math.Float64bits(a.Min) != math.Float64bits(s.Min) ||
		math.Float64bits(a.Max) != math.Float64bits(s.Max) ||
		math.Float64bits(a.Mean) != math.Float64bits(s.Mean()) {
		return fmt.Errorf("summary count=%d min=%g max=%g mean=%g first=%v last=%v, want count=%d min=%g max=%g mean=%g first=%v last=%v",
			a.Count, a.Min, a.Max, a.Mean, a.First, a.Last, s.N, s.Min, s.Max, s.Mean(), s.First, s.Last)
	}
	return nil
}
