// Package metrics is DCDB's self-monitoring registry: the paper's
// holistic-monitoring claim (§1, §6) is only honest if the monitor can
// watch itself with the same sub-1% footprint it promises applications.
// The package is dependency-free and allocation-free on the hot path:
//
//   - Counter and Gauge are cache-line padded atomics; incrementing one
//     is a single uncontended atomic add.
//   - Histogram buckets observations into fixed power-of-two buckets
//     (atomic adds, no locks, no allocation), so latency distributions
//     from different shards, nodes or processes merge exactly.
//   - CounterFunc / GaugeFunc adapt counters that already exist
//     elsewhere (a cache's hit atomics, a broker's publish count)
//     without migrating them; they are evaluated only at scrape time.
//
// A Registry's contents export three ways: Prometheus text exposition
// (prometheus.go), a binary snapshot carried by the Stats RPC
// (snapshot.go), and the collect agent's dog-fooded self-sensors
// (internal/collectagent), which republish the same samples as
// ordinary /dcdb/self/... topics into the store.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the sample types a registry can hold.
type Kind uint8

const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing cache-line padded atomic. The
// padding keeps two counters that different goroutines hammer (e.g.
// bytes read vs bytes written on separate connections) from false
// sharing one line.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must not be negative for the exported value to remain
// a valid Prometheus counter).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a cache-line padded atomic that goes up and down.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Add adds n (may be negative: in-flight style gauges).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// numBuckets is the fixed bucket count of every Histogram: bucket i
// holds observations v with v <= 2^i, so the layout is identical
// everywhere and snapshots merge by adding bucket counts. 2^47 ns is
// ~39 hours — far beyond any latency this system produces — and the
// final implicit bucket catches the rest.
const numBuckets = 48

// Histogram buckets int64 observations (nanoseconds for latencies,
// plain counts for sizes) into fixed power-of-two buckets. Observe is
// lock-free and allocation-free; Snapshot/Merge give exact cross-shard
// and cross-node aggregation.
type Histogram struct {
	counts   [numBuckets + 1]atomic.Int64 // [numBuckets] = overflow (+Inf)
	sum      atomic.Int64
	scale    float64 // multiplies bucket bounds at exposition (1e-9: ns → s)
	sampling int64   // 1 = every observation; N = 1-in-N (documented in HELP)
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Nanoseconds())
}

// bucketIndex returns the smallest i with v <= 2^i, or the overflow
// bucket.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	// ceil(log2(v)): the bit length of v-1.
	i := bits.Len64(uint64(v - 1))
	if i >= numBuckets {
		return numBuckets
	}
	return i
}

// HistogramSnapshot is a point-in-time copy of a histogram, mergeable
// with snapshots of identically-bucketed histograms from other shards,
// nodes or processes.
type HistogramSnapshot struct {
	Counts [numBuckets + 1]int64
	Sum    int64
	Scale  float64
}

// Snapshot copies the current counts. Buckets are read individually
// (not atomically as a set); a snapshot taken during concurrent
// observes is a valid histogram that includes each observation at most
// once.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Sum: h.sum.Load(), Scale: h.scale}
	if s.Scale == 0 {
		s.Scale = 1
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Count returns the total number of observations.
func (s *HistogramSnapshot) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Merge adds other's counts into s. Both histograms share the fixed
// bucket layout, so the merge is exact.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Sum += other.Sum
	if s.Scale == 0 {
		s.Scale = other.Scale
	}
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) in
// the histogram's native unit: the upper bound of the bucket holding
// the q-th observation. Returns 0 for an empty histogram.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(numBuckets)
}

// bucketUpper is the upper bound of bucket i in native units.
func bucketUpper(i int) float64 {
	if i >= numBuckets {
		return math.Inf(1)
	}
	return float64(int64(1) << uint(i))
}

// entry is one registered metric.
type entry struct {
	name string // full series name, optionally with {label="value"} pairs
	help string
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() float64 // CounterFunc / GaugeFunc callback
}

// Registry holds named metrics. Registration takes a lock; reading and
// updating registered metrics does not. Each Node, Cluster, rpc
// Client/Server and Agent owns its own registry so embedded multi-node
// processes do not collide; exporters merge registries with injected
// labels (see WritePrometheus).
type Registry struct {
	mu      sync.RWMutex
	entries []*entry
	byName  map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// register adds e or returns the existing entry of the same name and
// kind. Same-name/different-kind registration panics: it is a
// programming error that would corrupt the exposition.
func (r *Registry) register(name, help string, kind Kind, e *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[name]; ok {
		if old.kind != kind {
			panic(fmt.Sprintf("metrics: %q re-registered as %v (was %v)", name, kind, old.kind))
		}
		return old
	}
	e.name, e.help, e.kind = name, help, kind
	r.entries = append(r.entries, e)
	r.byName[name] = e
	return e
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.register(name, help, KindCounter, &entry{c: &Counter{}})
	return e.c
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.register(name, help, KindGauge, &entry{g: &Gauge{}})
	return e.g
}

// CounterFunc registers a counter whose value is computed by fn at
// scrape time — the bridge for counters that already live elsewhere.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, KindCounter, &entry{fn: fn})
}

// GaugeFunc registers a gauge computed by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, KindGauge, &entry{fn: fn})
}

// Histogram registers (or returns the existing) count-valued histogram
// (unit 1) under name.
func (r *Registry) Histogram(name, help string) *Histogram {
	e := r.register(name, help, KindHistogram, &entry{h: &Histogram{scale: 1, sampling: 1}})
	return e.h
}

// LatencyHistogram registers a nanosecond-observing histogram exposed
// in seconds. sampling documents that only 1-in-sampling operations are
// observed (1 = all); callers on ns-scale hot paths sample so the two
// clock reads per observation stay off the common case.
func (r *Registry) LatencyHistogram(name, help string, sampling int64) *Histogram {
	if sampling > 1 {
		help = fmt.Sprintf("%s (sampled 1 in %d)", help, sampling)
	}
	e := r.register(name, help, KindHistogram, &entry{h: &Histogram{scale: 1e-9, sampling: sampling}})
	return e.h
}

// Sample is one exported series value: the unified form every exporter
// (Prometheus text, Stats RPC snapshot, self-sensors) consumes.
type Sample struct {
	Name  string
	Help  string
	Kind  Kind
	Value float64 // counter / gauge value
	Hist  *HistogramSnapshot
}

// Gather evaluates every registered metric (including funcs) and
// returns the samples sorted by name.
func (r *Registry) Gather() []Sample {
	r.mu.RLock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.RUnlock()
	out := make([]Sample, 0, len(entries))
	for _, e := range entries {
		s := Sample{Name: e.name, Help: e.help, Kind: e.kind}
		switch {
		case e.c != nil:
			s.Value = float64(e.c.Load())
		case e.g != nil:
			s.Value = float64(e.g.Load())
		case e.h != nil:
			snap := e.h.Snapshot()
			s.Hist = &snap
		case e.fn != nil:
			s.Value = e.fn()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MergeSamples merges sample sets from several sources (e.g. every
// node of a cluster) by name: counters, histogram buckets and sums
// add; gauges add too (a cluster's memtable bytes are the sum of its
// nodes'). The result is sorted by name.
func MergeSamples(sets ...[]Sample) []Sample {
	merged := make(map[string]*Sample)
	var order []string
	for _, set := range sets {
		for i := range set {
			s := set[i]
			m, ok := merged[s.Name]
			if !ok {
				cp := s
				if s.Hist != nil {
					h := *s.Hist
					cp.Hist = &h
				}
				merged[s.Name] = &cp
				order = append(order, s.Name)
				continue
			}
			if m.Hist != nil && s.Hist != nil {
				m.Hist.Merge(*s.Hist)
			}
			m.Value += s.Value
		}
	}
	sort.Strings(order)
	out := make([]Sample, 0, len(order))
	for _, n := range order {
		out = append(out, *merged[n])
	}
	return out
}
