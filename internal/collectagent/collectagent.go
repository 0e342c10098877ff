// Package collectagent implements DCDB's Collect Agent (paper §3.1,
// §4.2): the data broker between Pushers and Storage Backends. The
// agent embeds the custom MQTT broker (publish path only, §4.2 — the
// Storage Backend is the one subscriber to everything, so general topic
// filtering is skipped), translates each message's topic into its
// 128-bit SID, and writes readings to the Storage Backend. A sensor
// cache holds the most recent readings of every connected Pusher and is
// exposed via the RESTful API so legacy frameworks can consume all
// sensors through one interface (§5.3).
//
// What a Pusher's acknowledgement means is the embedded broker's
// contract (mqtt.Broker): QoS 0 is never acknowledged; the PUBACK of a
// QoS 1 message proves every earlier message of that connection is
// stored, the message itself being stored while the next one arrives.
// "Stored" is: written to the Storage Backend at its write consistency
// level, counted in dcdb_agent_readings_total and visible in the sensor
// cache — or rejected and counted in dcdb_agent_errors_total. The agent
// does the ordered part of a message (decode, topic → SID, persisting a
// new name, stamping and queueing the write) as it is received and
// waits for the replicas beside the next message's arrival whenever the
// backend can begin a write without waiting for it (store.Cluster).
package collectagent

import (
	"log"
	"sync/atomic"
	"time"

	"dcdb/internal/cache"
	"dcdb/internal/core"
	"dcdb/internal/metrics"
	"dcdb/internal/mqtt"
	"dcdb/internal/store"
)

// Options configure an Agent.
type Options struct {
	// CacheWindow sizes the sensor cache (default two minutes).
	CacheWindow time.Duration
	// Quiet suppresses per-message warnings (benchmarks).
	Quiet bool
	// OnNewTopic, when set, fires before a reading is stored whose SID
	// uses a level code the agent does not yet know to be durable: one
	// beyond the dictionary lengths it read before an earlier call
	// returned nil. That is the first message after the dictionary grew
	// (core.TopicMapper.MapFirst — not every new topic), on whichever
	// connection it arrives, and the first message after start. A
	// durable agent appends to its topic map here (TopicLog) and
	// returns once the map as it stood at the call is committed, so the
	// mapping of every stored reading survives a crash alongside the
	// reading itself; returning an error drops the message instead of
	// storing a reading whose name could not be made durable, and the
	// next message using the code calls again. Called from the message
	// path — keep it cheap for steady state (it only fires when the
	// sensor set grows).
	OnNewTopic func(topic string, id core.SensorID) error
}

// Stats are cumulative Agent counters.
type Stats struct {
	Messages int64 // MQTT PUBLISH packets processed
	Readings int64 // sensor readings written
	Errors   int64 // undecodable messages or failed writes
}

// Agent is a running Collect Agent.
type Agent struct {
	backend store.Backend
	mapper  *core.TopicMapper
	broker  *mqtt.Broker
	cache   *cache.Cache
	hier    *core.Hierarchy
	opts    Options

	// begin is the backend's two-half write (store.Cluster.BeginInsert),
	// nil when it has none and every write is a plain InsertBatch.
	begin func(id core.SensorID, rs []core.Reading, ttl time.Duration) (wait func() error)

	messages atomic.Int64
	readings atomic.Int64
	errors   atomic.Int64
	met      *metrics.Registry

	// durable holds the per-level dictionary lengths read before the
	// OnNewTopic calls that returned nil, the largest of each level:
	// every code at or below them is in a committed topic map.
	durable atomic.Pointer[dictLens]
}

// dictLens are the lengths of the mapper's level dictionaries, which
// are also their highest codes: codes are dense and start at 1.
type dictLens [core.MaxTopicLevels]uint16

// New creates an agent writing to backend. The mapper may be shared
// with libDCDB connections; nil creates a fresh one.
func New(backend store.Backend, mapper *core.TopicMapper, opts Options) *Agent {
	if mapper == nil {
		mapper = core.NewTopicMapper()
	}
	a := &Agent{
		backend: backend,
		mapper:  mapper,
		cache:   cache.New(opts.CacheWindow),
		hier:    core.NewHierarchy(),
		opts:    opts,
	}
	a.durable.Store(&dictLens{})
	if b, ok := backend.(interface {
		BeginInsert(core.SensorID, []core.Reading, time.Duration) func() error
	}); ok {
		a.begin = b.BeginInsert
	}
	a.broker = mqtt.NewReceiverBroker(a.receive)
	// The ingest counters already exist as atomics (the Stats API);
	// the registry mirrors them at scrape time instead of double
	// counting on the message path.
	a.met = metrics.NewRegistry()
	a.met.CounterFunc("dcdb_agent_messages_total",
		"MQTT PUBLISH packets processed.", func() float64 {
			return float64(a.messages.Load())
		})
	a.met.CounterFunc("dcdb_agent_readings_total",
		"Sensor readings written to the storage backend.", func() float64 {
			return float64(a.readings.Load())
		})
	a.met.CounterFunc("dcdb_agent_errors_total",
		"Undecodable messages or failed storage writes.", func() float64 {
			return float64(a.errors.Load())
		})
	a.met.CounterFunc("dcdb_agent_broker_published_total",
		"PUBLISH packets accepted by the embedded MQTT broker.", func() float64 {
			p, _ := a.broker.Stats()
			return float64(p)
		})
	a.met.CounterFunc("dcdb_agent_broker_payload_bytes_total",
		"PUBLISH payload bytes accepted by the embedded MQTT broker.", func() float64 {
			_, b := a.broker.Stats()
			return float64(b)
		})
	a.met.GaugeFunc("dcdb_agent_cache_topics",
		"Topics resident in the agent's sensor cache.", func() float64 {
			return float64(a.cache.NumTopics())
		})
	return a
}

// Metrics returns the agent's ingest metric registry.
func (a *Agent) Metrics() *metrics.Registry { return a.met }

// Listen starts the agent's MQTT broker on addr.
func (a *Agent) Listen(addr string) error { return a.broker.Listen(addr) }

// Addr returns the broker's bound address.
func (a *Agent) Addr() string { return a.broker.Addr() }

// Mapper returns the shared topic mapper.
func (a *Agent) Mapper() *core.TopicMapper { return a.mapper }

// Cache exposes the agent-side sensor cache.
func (a *Agent) Cache() *cache.Cache { return a.cache }

// Hierarchy exposes the sensor hierarchy assembled from observed
// topics.
func (a *Agent) Hierarchy() *core.Hierarchy { return a.hier }

// Stats returns a snapshot of the counters.
func (a *Agent) Stats() Stats {
	return Stats{
		Messages: a.messages.Load(),
		Readings: a.readings.Load(),
		Errors:   a.errors.Load(),
	}
}

// Close stops the broker.
func (a *Agent) Close() error { return a.broker.Close() }

// Handle processes one PUBLISH message start to finish (exported for
// in-process pipelines and benchmarks that bypass TCP): the
// synchronous form of what the broker does in two halves.
func (a *Agent) Handle(topic string, payload []byte) {
	if id, rs, ok := a.admit(topic, payload); ok {
		a.settle(topic, rs, a.backend.InsertBatch(id, rs, 0))
	}
}

// receive is the broker's Receiver: admit and begin the write in
// arrival order, settle once the replicas answered.
func (a *Agent) receive(topic string, payload []byte) (stored func()) {
	id, rs, ok := a.admit(topic, payload)
	if !ok {
		return nil
	}
	if a.begin == nil {
		a.settle(topic, rs, a.backend.InsertBatch(id, rs, 0))
		return nil
	}
	wait := a.begin(id, rs, 0)
	return func() { a.settle(topic, rs, wait()) }
}

// admit is the ordered part of a message before its write: decode,
// translate the topic, make a new name durable. ok is false when there
// is nothing to store (the message was empty, or dropped and counted).
func (a *Agent) admit(topic string, payload []byte) (id core.SensorID, rs []core.Reading, ok bool) {
	a.messages.Add(1)
	rs, err := core.DecodeReadings(payload)
	if err != nil {
		a.errors.Add(1)
		if !a.opts.Quiet {
			log.Printf("collectagent: dropping message on %q: %v", topic, err)
		}
		return id, nil, false
	}
	if len(rs) == 0 {
		return id, nil, false
	}
	// Topic -> SID translation (paper §4.2): 1:1, hierarchical.
	id, err = a.mapper.Map(topic)
	if err != nil {
		a.errors.Add(1)
		if !a.opts.Quiet {
			log.Printf("collectagent: unmappable topic %q: %v", topic, err)
		}
		return id, nil, false
	}
	if a.opts.OnNewTopic != nil && !a.durable.Load().covers(id) {
		// Whether this call or another connection's assigned the new
		// code, its reading waits for the map that holds it.
		lens := dictLens(a.mapper.Lens())
		if err := a.opts.OnNewTopic(topic, id); err != nil {
			// Storing the reading without its durable name would let
			// it resolve to the wrong sensor after a crash; drop it.
			a.errors.Add(1)
			if !a.opts.Quiet {
				log.Printf("collectagent: dropping reading of %q: persisting topic map: %v", topic, err)
			}
			return id, nil, false
		}
		a.raiseDurable(lens)
	}
	return id, rs, true
}

// covers reports whether every level code of id is within d.
func (d *dictLens) covers(id core.SensorID) bool {
	for i := range d {
		if id.Level(i) > d[i] {
			return false
		}
	}
	return true
}

// raiseDurable merges lens, read before a successful OnNewTopic, into
// the durable lengths. Calls finish out of order, so each level keeps
// its largest length.
func (a *Agent) raiseDurable(lens dictLens) {
	for {
		old := a.durable.Load()
		next, grew := *old, false
		for i, n := range lens {
			if n > next[i] {
				next[i], grew = n, true
			}
		}
		if !grew || a.durable.CompareAndSwap(old, &next) {
			return
		}
	}
}

// settle accounts for a finished write: the readings count — and show
// in the cache and the hierarchy — only once the write met the
// backend's consistency level. The hierarchy learns a topic from its
// first cached reading, so a known topic is not parsed again.
func (a *Agent) settle(topic string, rs []core.Reading, err error) {
	if err != nil {
		a.errors.Add(1)
		if !a.opts.Quiet {
			log.Printf("collectagent: store write for %q failed: %v", topic, err)
		}
		return
	}
	a.readings.Add(int64(len(rs)))
	if a.cache.Store(topic, rs[len(rs)-1]) {
		a.hier.Add(topic)
	}
}
