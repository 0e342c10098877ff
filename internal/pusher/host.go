package pusher

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/cache"
	"dcdb/internal/core"
	"dcdb/internal/metrics"
)

// Publisher is the outbound transport of a Pusher. mqtt.Client satisfies
// it; tests and benchmarks plug in local fakes.
type Publisher interface {
	Publish(topic string, payload []byte, qos byte) error
}

// ForwardMode selects how readings travel to the Collect Agent.
type ForwardMode int

const (
	// Continuous forwards every reading as soon as it is sampled: one
	// PUBLISH per sensor per interval. Best for most applications
	// (paper §6.2.1).
	Continuous ForwardMode = iota
	// Burst accumulates readings and flushes them in regular batched
	// bursts, reducing network interference for communication-bound
	// applications such as AMG (paper §6.2.1: "regular bursts twice
	// per minute").
	Burst
)

// String returns the mode name.
func (m ForwardMode) String() string {
	if m == Burst {
		return "burst"
	}
	return "continuous"
}

// Options configure a Host.
type Options struct {
	// Threads is the number of sampling workers (paper §6.1 uses two).
	Threads int
	// CacheWindow sizes the sensor cache (default two minutes).
	CacheWindow time.Duration
	// QoS is the MQTT QoS for forwarded readings (0 or 1).
	QoS byte
	// Mode selects continuous or burst forwarding.
	Mode ForwardMode
	// FlushInterval is the burst period (default 30 s, the paper's
	// "twice per minute").
	FlushInterval time.Duration
	// Align, when true, snaps sampling times to wall-clock multiples
	// of the group interval, emulating the NTP-synchronised read
	// times of §4.1. Disabled in latency-sensitive tests.
	Align bool
}

// Stats are cumulative Host counters.
type Stats struct {
	Readings   int64 // sensor readings sampled
	Published  int64 // MQTT PUBLISH packets sent
	ReadErrors int64 // failed group reads
	SendErrors int64 // failed publishes
}

// Host runs plugins: it schedules group sampling, maintains the sensor
// cache and forwards readings.
type Host struct {
	opts  Options
	pub   Publisher
	cache *cache.Cache

	mu      sync.Mutex
	plugins map[string]*runningPlugin
	sem     chan struct{}
	closed  bool

	pending   map[string][]core.Reading // burst mode accumulator
	pendingMu sync.Mutex
	flushStop chan struct{}

	readings   atomic.Int64
	published  atomic.Int64
	readErrors atomic.Int64
	sendErrors atomic.Int64

	met *metrics.Registry
}

type runningPlugin struct {
	plugin Plugin
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewHost creates a Pusher host publishing through pub (nil disables
// forwarding, useful for cache-only setups).
func NewHost(pub Publisher, opts Options) *Host {
	if opts.Threads <= 0 {
		opts.Threads = 2
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 30 * time.Second
	}
	h := &Host{
		opts:      opts,
		pub:       pub,
		cache:     cache.New(opts.CacheWindow),
		plugins:   make(map[string]*runningPlugin),
		sem:       make(chan struct{}, opts.Threads),
		pending:   make(map[string][]core.Reading),
		flushStop: make(chan struct{}),
	}
	// Scrape-time mirrors of the sampling counters (the Stats API owns
	// the atomics; the registry never double-counts the hot path).
	h.met = metrics.NewRegistry()
	h.met.CounterFunc("dcdb_pusher_readings_total",
		"Sensor readings sampled.", func() float64 { return float64(h.readings.Load()) })
	h.met.CounterFunc("dcdb_pusher_published_total",
		"MQTT PUBLISH packets sent.", func() float64 { return float64(h.published.Load()) })
	h.met.CounterFunc("dcdb_pusher_read_errors_total",
		"Failed group reads.", func() float64 { return float64(h.readErrors.Load()) })
	h.met.CounterFunc("dcdb_pusher_send_errors_total",
		"Failed publishes.", func() float64 { return float64(h.sendErrors.Load()) })
	h.met.GaugeFunc("dcdb_pusher_plugins_running",
		"Plugins currently sampling.", func() float64 { return float64(len(h.Running())) })
	if opts.Mode == Burst && pub != nil {
		go h.flushLoop()
	}
	return h
}

// Metrics returns the host's sampling metric registry.
func (h *Host) Metrics() *metrics.Registry { return h.met }

// Cache exposes the sensor cache for the REST API.
func (h *Host) Cache() *cache.Cache { return h.cache }

// Stats returns a snapshot of the counters.
func (h *Host) Stats() Stats {
	return Stats{
		Readings:   h.readings.Load(),
		Published:  h.published.Load(),
		ReadErrors: h.readErrors.Load(),
		SendErrors: h.sendErrors.Load(),
	}
}

// StartPlugin validates, starts and schedules a configured plugin. The
// plugin must have been Configure()d already.
func (h *Host) StartPlugin(p Plugin) error {
	for _, g := range p.Groups() {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	for _, e := range p.Entities() {
		if err := e.Connect(); err != nil {
			return fmt.Errorf("pusher: connecting entity %q: %w", e.Name(), err)
		}
	}
	if err := p.Start(); err != nil {
		return fmt.Errorf("pusher: starting plugin %q: %w", p.Name(), err)
	}
	rp := &runningPlugin{plugin: p, stop: make(chan struct{})}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return fmt.Errorf("pusher: host is closed")
	}
	if _, dup := h.plugins[p.Name()]; dup {
		h.mu.Unlock()
		return fmt.Errorf("pusher: plugin %q already running", p.Name())
	}
	h.plugins[p.Name()] = rp
	h.mu.Unlock()
	for _, g := range p.Groups() {
		rp.wg.Add(1)
		go h.sampleLoop(rp, g)
	}
	return nil
}

// StopPlugin stops sampling for one plugin and calls its Stop hook. The
// REST API uses this to avoid conflicts with user software accessing
// the same data source (paper §5.3).
func (h *Host) StopPlugin(name string) error {
	h.mu.Lock()
	rp, ok := h.plugins[name]
	if ok {
		delete(h.plugins, name)
	}
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("pusher: plugin %q is not running", name)
	}
	close(rp.stop)
	rp.wg.Wait()
	for _, e := range rp.plugin.Entities() {
		e.Close()
	}
	return rp.plugin.Stop()
}

// Running lists the names of running plugins.
func (h *Host) Running() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.plugins))
	for n := range h.plugins {
		out = append(out, n)
	}
	return out
}

// Close stops all plugins and the burst flusher.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	names := make([]string, 0, len(h.plugins))
	for n := range h.plugins {
		names = append(names, n)
	}
	h.mu.Unlock()
	var firstErr error
	for _, n := range names {
		if err := h.StopPlugin(n); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	close(h.flushStop)
	h.flushFinal()
	return firstErr
}

// sampleLoop drives one group: wait until the next (aligned) deadline,
// acquire a sampling worker slot, read collectively, dispatch.
func (h *Host) sampleLoop(rp *runningPlugin, g *Group) {
	defer rp.wg.Done()
	timer := time.NewTimer(h.untilNext(g.Interval))
	defer timer.Stop()
	for {
		select {
		case <-rp.stop:
			return
		case <-timer.C:
		}
		h.sem <- struct{}{} // bounded sampling workers
		now := time.Now()
		values, err := g.Reader.ReadGroup(now)
		<-h.sem
		if err != nil {
			h.readErrors.Add(1)
		} else if len(values) != len(g.Sensors) {
			h.readErrors.Add(1)
		} else {
			// All sensors of the group share one timestamp: groups are
			// read collectively at the same point in time (§4.1).
			ts := now.UnixNano()
			for i, s := range g.Sensors {
				v, ok := s.deltaValue(values[i])
				if !ok {
					continue
				}
				r := core.Reading{Timestamp: ts, Value: v}
				h.cache.Store(s.Topic, r)
				h.readings.Add(1)
				h.dispatch(s.Topic, r)
			}
		}
		timer.Reset(h.untilNext(g.Interval))
	}
}

// untilNext computes the wait until the group's next sampling deadline.
func (h *Host) untilNext(interval time.Duration) time.Duration {
	if !h.opts.Align {
		return interval
	}
	now := time.Now()
	next := now.Truncate(interval).Add(interval)
	return next.Sub(now)
}

func (h *Host) dispatch(topic string, r core.Reading) {
	if h.pub == nil {
		return
	}
	if h.opts.Mode == Burst {
		h.pendingMu.Lock()
		h.pending[topic] = append(h.pending[topic], r)
		h.pendingMu.Unlock()
		return
	}
	if err := h.pub.Publish(topic, core.EncodeReadings([]core.Reading{r}), h.opts.QoS); err != nil {
		h.sendErrors.Add(1)
		return
	}
	h.published.Add(1)
}

func (h *Host) flushLoop() {
	t := time.NewTicker(h.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-h.flushStop:
			return
		case <-t.C:
			h.flushPending()
		}
	}
}

func (h *Host) flushPending() {
	h.pendingMu.Lock()
	batch := h.pending
	h.pending = make(map[string][]core.Reading)
	h.pendingMu.Unlock()
	for topic, rs := range batch {
		if err := h.pub.Publish(topic, core.EncodeReadings(rs), h.opts.QoS); err != nil {
			h.sendErrors.Add(1)
			continue
		}
		h.published.Add(1)
	}
}

// flushFinal drains the burst accumulator on shutdown.
func (h *Host) flushFinal() {
	if h.pub != nil && h.opts.Mode == Burst {
		h.flushPending()
	}
}
