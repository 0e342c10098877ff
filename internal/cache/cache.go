// Package cache implements the sensor cache embedded in Pushers and
// Collect Agents (paper §5.3): a per-sensor ring buffer that keeps the
// most recent readings within a configurable time window (two minutes in
// the paper's production setup). The RESTful APIs expose it so that other
// processes can read all kinds of sensors via a common interface from
// user space without touching the Storage Backend.
package cache

import (
	"sync"
	"time"

	"dcdb/internal/core"
)

// numShards is the lock-stripe count of the topic→ring map. A Pusher
// host runs many sampling goroutines and the Collect Agent stores a
// reading per MQTT message, so the cache is written from many
// goroutines at once; striping by topic hash keeps them from
// serializing on one lock. Power of two so the selector is a mask.
const numShards = 16

// Cache is a concurrency-safe sensor cache. The zero value is not usable;
// call New.
type Cache struct {
	window time.Duration
	shards [numShards]cacheShard
}

// cacheShard is one lock stripe of the cache. Stripes live in one
// array; pad to a full cache line so they never false-share.
type cacheShard struct {
	mu    sync.RWMutex
	rings map[string]*ring
	_     [32]byte
}

// shardOf selects a topic's stripe by FNV-1a hash.
func (c *Cache) shardOf(topic string) *cacheShard {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(topic); i++ {
		h = (h ^ uint64(topic[i])) * prime
	}
	return &c.shards[h&(numShards-1)]
}

// ring is a growable circular buffer of readings ordered by insertion.
type ring struct {
	buf   []core.Reading
	head  int // index of oldest element
	count int
}

// DefaultWindow is the cache retention used when New is given a
// non-positive window, matching the paper's two-minute production
// configuration.
const DefaultWindow = 2 * time.Minute

// New creates a cache retaining readings no older than window relative
// to the newest reading of each sensor.
func New(window time.Duration) *Cache {
	if window <= 0 {
		window = DefaultWindow
	}
	c := &Cache{window: window}
	for i := range c.shards {
		c.shards[i].rings = make(map[string]*ring)
	}
	return c
}

// Store inserts a reading for the sensor with the given topic, evicting
// readings that fall out of the window. first reports the topic's first
// reading: a ring is never deleted, so that is once per topic.
func (c *Cache) Store(topic string, r core.Reading) (first bool) {
	sh := c.shardOf(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rg, ok := sh.rings[topic]
	if !ok {
		rg = &ring{buf: make([]core.Reading, 8)}
		sh.rings[topic] = rg
	}
	rg.push(r)
	rg.evict(r.Timestamp - c.window.Nanoseconds())
	return !ok
}

func (r *ring) push(v core.Reading) {
	if r.count == len(r.buf) {
		// Grow: copy out in order, double.
		nb := make([]core.Reading, len(r.buf)*2)
		for i := 0; i < r.count; i++ {
			nb[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = nb
		r.head = 0
	}
	r.buf[(r.head+r.count)%len(r.buf)] = v
	r.count++
}

func (r *ring) evict(cutoff int64) {
	for r.count > 1 && r.buf[r.head].Timestamp < cutoff {
		r.head = (r.head + 1) % len(r.buf)
		r.count--
	}
}

// Latest returns the most recent reading of the sensor.
func (c *Cache) Latest(topic string) (core.Reading, bool) {
	sh := c.shardOf(topic)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rg, ok := sh.rings[topic]
	if !ok || rg.count == 0 {
		return core.Reading{}, false
	}
	return rg.buf[(rg.head+rg.count-1)%len(rg.buf)], true
}

// Average returns the mean value of the cached readings within the last
// d of the sensor's newest reading. The boolean is false when the sensor
// has no cached readings.
func (c *Cache) Average(topic string, d time.Duration) (float64, bool) {
	sh := c.shardOf(topic)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rg, ok := sh.rings[topic]
	if !ok || rg.count == 0 {
		return 0, false
	}
	newest := rg.buf[(rg.head+rg.count-1)%len(rg.buf)].Timestamp
	cutoff := newest - d.Nanoseconds()
	var sum float64
	var n int
	for i := 0; i < rg.count; i++ {
		r := rg.buf[(rg.head+i)%len(rg.buf)]
		if r.Timestamp >= cutoff {
			sum += r.Value
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Topics lists the sensors currently present in the cache.
func (c *Cache) Topics() []string {
	var out []string
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for t := range sh.rings {
			out = append(out, t)
		}
		sh.mu.RUnlock()
	}
	return out
}

// NumTopics counts the sensors currently present in the cache without
// listing them.
func (c *Cache) NumTopics() int {
	var n int
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.rings)
		sh.mu.RUnlock()
	}
	return n
}

// SizeBytes estimates the memory held by cached readings, used by the
// footprint experiments (Figure 6b).
func (c *Cache) SizeBytes() int {
	var n int
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, rg := range sh.rings {
			n += len(rg.buf) * 16 // 8 bytes timestamp + 8 bytes value
		}
		sh.mu.RUnlock()
	}
	return n
}
