package main

import (
	"fmt"
	"math"
	"math/rand"

	"dcdb/internal/core"
)

// The generator is a pure function of (seed, sensor, reading index):
// reading k of sensor s can be produced at any time without replaying
// its predecessors. That is what lets the verifier recompute the exact
// expected answer of any range query without the load generator
// keeping a copy of everything it sent.

const (
	// epochNs is the timestamp of reading 0 of every sensor. A fixed
	// instant keeps the stored bytes identical on every commit.
	epochNs = int64(1_600_000_000) * 1_000_000_000
	// periodNs is the nominal sampling period; each timestamp is
	// jittered by up to ±1% of it, so delta-of-delta coding sees the
	// small non-zero residuals a real pusher produces.
	periodNs = int64(1_000_000_000)
	jitterNs = periodNs / 100
)

// mix is the splitmix64 finaliser: the generator's only randomness.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hash3(seed uint64, a, b uint64) uint64 { return mix(mix(seed^mix(a)) ^ b) }

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

type sensorClass uint8

const (
	classCounter  sensorClass = iota // monotone integer counter
	classGauge                       // quantised bounded random walk
	classSetpoint                    // near-constant with rare steps
)

// sensorKind is one per-node sensor of the synthetic fleet. The list
// mirrors the paper's plugin mix: mostly monotone performance and
// kernel counters, fewer quantised environmental gauges, and the odd
// facility set-point that hardly ever changes.
type sensorKind struct {
	plugin, name string
	class        sensorClass
	lo, span     float64 // gauge range / counter base range
	quantum      float64 // gauge resolution / counter minimum step
}

var sensorKinds = [...]sensorKind{
	{"perfevents", "instructions", classCounter, 1e9, 1e12, 2e9},
	{"perfevents", "cycles", classCounter, 1e9, 1e12, 2.4e9},
	{"perfevents", "cache-misses", classCounter, 1e6, 1e9, 3e6},
	{"perfevents", "branch-misses", classCounter, 1e6, 1e9, 8e5},
	{"perfevents", "flops", classCounter, 1e8, 1e11, 5e8},
	{"procfs", "cpu_user", classCounter, 1e3, 1e7, 90},
	{"procfs", "ctxt", classCounter, 1e5, 1e9, 4e3},
	{"procfs", "intr", classCounter, 1e5, 1e9, 7e3},
	{"procfs", "memfree", classGauge, 4e6, 9e7, 4096},
	{"sysfs", "pkg_energy", classCounter, 1e6, 1e10, 1.2e5},
	{"sysfs", "cpu_temp", classGauge, 35, 50, 0.5},
	{"sysfs", "freq", classGauge, 1.2e6, 2.5e6, 1e5},
	{"ipmi", "power", classGauge, 180, 420, 1},
	{"ipmi", "inlet_temp", classGauge, 18, 12, 0.25},
	{"ipmi", "fan_rpm", classGauge, 3000, 9000, 60},
	{"facility", "setpoint", classSetpoint, 40, 10, 0.5},
}

const (
	kindsPerNode    = len(sensorKinds)
	nodesPerChassis = 16
	chassisPerRack  = 4
)

// walkBlock is the number of readings between two control points of a
// gauge's value-noise walk.
const walkBlock = 64

// population is a fleet of n sensors named
// /bench/rackRR/chassisC/nodeNN/<plugin>/<sensor>: six levels, so the
// hierarchical partitioner and prefix queries see real subtrees.
type population struct {
	seed   uint64
	topics []string
}

func newPopulation(seed int64, n int) *population {
	p := &population{seed: uint64(seed), topics: make([]string, n)}
	for i := range p.topics {
		node := i / kindsPerNode
		k := sensorKinds[i%kindsPerNode]
		chassis := node / nodesPerChassis
		p.topics[i] = fmt.Sprintf("/bench/rack%02d/chassis%d/node%02d/%s/%s",
			chassis/chassisPerRack, chassis%chassisPerRack, node%nodesPerChassis, k.plugin, k.name)
	}
	return p
}

func (p *population) len() int { return len(p.topics) }

// reading returns reading k of sensor s.
func (p *population) reading(s int, k int64) core.Reading {
	sid := uint64(s)
	h := hash3(p.seed, sid, uint64(k))
	ts := epochNs + k*periodNs + int64(h%uint64(2*jitterNs+1)) - jitterNs
	kind := &sensorKinds[s%kindsPerNode]
	hs := hash3(p.seed, sid, math.MaxUint64) // per-sensor constant
	var v float64
	switch kind.class {
	case classCounter:
		// base + k steps, each step jittered by under one step, so the
		// series is strictly monotone with irregular increments.
		step := kind.quantum * (1 + 3*unit(hs))
		base := kind.lo + kind.span*unit(mix(hs))
		v = math.Floor(base + float64(k)*step + step*0.9*unit(mix(h)))
	case classGauge:
		// Value noise: smooth interpolation between pseudo-random
		// control points every walkBlock readings, plus sub-quantum
		// dither, quantised to the sensor's resolution.
		j, f := uint64(k/walkBlock), float64(k%walkBlock)/walkBlock
		a := unit(hash3(p.seed^0x67617567, sid, j))
		b := unit(hash3(p.seed^0x67617567, sid, j+1))
		f = f * f * (3 - 2*f)
		level := kind.lo + kind.span*(0.25+0.5*unit(hs)+0.25*(a+(b-a)*f))
		v = math.Round((level+kind.quantum*1.2*(unit(mix(h))-0.5))/kind.quantum) * kind.quantum
	default:
		v = kind.lo + math.Round(kind.span*unit(hs)/kind.quantum)*kind.quantum
		if mix(h)%61 == 0 {
			v += kind.quantum
		}
	}
	return core.Reading{Timestamp: ts, Value: v}
}

// fill writes readings [k0, k0+len(dst)) of sensor s into dst.
func (p *population) fill(dst []core.Reading, s int, k0 int64) {
	for i := range dst {
		dst[i] = p.reading(s, k0+int64(i))
	}
}

// tsOf returns the timestamp of reading k of sensor s.
func (p *population) tsOf(s int, k int64) int64 { return p.reading(s, k).Timestamp }

// message is one generated MQTT PUBLISH: readings [k0, k0+batch) of one
// sensor.
type message struct {
	sensor int
	k0     int64
}

// stream is the deterministic message sequence of one publisher
// connection. Connection c of n owns the sensors with index ≡ c mod n
// and visits them round-robin in a seeded order, so every sensor's
// readings arrive in index order and two connections never interleave
// within one sensor.
type stream struct {
	pop   *population
	order []int   // this connection's sensors, in visiting order
	next  []int64 // per position in order: index of the next reading
	batch int
	pos   int
}

func newStream(pop *population, conn, conns, batch int) *stream {
	st := &stream{pop: pop, batch: batch}
	for s := conn; s < pop.len(); s += conns {
		st.order = append(st.order, s)
	}
	r := rand.New(rand.NewSource(int64(hash3(pop.seed, 0x73747265616d, uint64(conn)))))
	r.Shuffle(len(st.order), func(i, j int) { st.order[i], st.order[j] = st.order[j], st.order[i] })
	st.next = make([]int64, len(st.order))
	return st
}

// nextMessage returns the next message and fills rs (len == batch)
// with its readings.
func (st *stream) nextMessage(rs []core.Reading) message {
	s := st.order[st.pos]
	m := message{sensor: s, k0: st.next[st.pos]}
	st.pop.fill(rs, s, m.k0)
	st.next[st.pos] += int64(st.batch)
	st.pos++
	if st.pos == len(st.order) {
		st.pos = 0
	}
	return m
}

type queryKind uint8

const (
	queryRecent queryKind = iota
	queryCold
	queryAggregate
	numQueryKinds
)

func (k queryKind) String() string {
	return [...]string{"recent", "cold", "aggregate"}[k]
}

// queryDraw is one generated query before it is bound to the data that
// exists when it is sent: which kind, which sensor, and where in the
// sensor's retention (a fraction, resolved against the number of
// readings stored at send time).
type queryDraw struct {
	kind   queryKind
	sensor int
	offset float64
}

// queryStream draws the seeded 60/25/15 recent/cold/aggregate mix.
type queryStream struct {
	r *rand.Rand
	n int
}

func newQueryStream(seed int64, sensors int) *queryStream {
	return &queryStream{r: rand.New(rand.NewSource(int64(hash3(uint64(seed), 0x7175657279, 0)))), n: sensors}
}

func (q *queryStream) next() queryDraw {
	d := queryDraw{sensor: q.r.Intn(q.n), offset: q.r.Float64()}
	switch p := q.r.Intn(100); {
	case p < 60:
		d.kind = queryRecent
	case p < 85:
		d.kind = queryCold
	default:
		d.kind = queryAggregate
	}
	return d
}
