package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/core"
)

// The coordinator's write path. A write is one WriteEntry — a message's
// readings under one stamp — sent to every owner of its sensor and
// acknowledged per entry: its own quorum, its own hints. Every owner,
// in-process or remote, is written through its member's writeQueue,
// which coalesces whatever entries arrive while the previous frame is
// being applied into the next one — natural batching: no timer, no
// size knob, and under no load a frame of one entry leaves at once.

// versionTick is the granularity of write versions, in the nanoseconds
// they are counted in. Versions order writes of one timestamp; nothing
// ever compares them finer than a coordinator can issue them, and a
// whole-microsecond stamp is what Cassandra (the paper's store, §4.3)
// writes. On disk the block coder's frame divisor finds the common
// factor by itself, so each stored stamp is ten bits shorter.
const versionTick = 1000

// nextVersion issues the next write version: a multiple of versionTick,
// strictly increasing, and never more than a tick behind the wall
// clock, so a restarted coordinator resumes above everything it (or a
// reasonably synchronised peer) issued before — nanosecond-grained
// versions of earlier builds included.
func (c *Cluster) nextVersion() uint64 {
	now := uint64(time.Now().UnixNano())
	now -= now % versionTick
	for {
		prev := c.ver.Load()
		next := max(now, prev+versionTick)
		if c.ver.CompareAndSwap(prev, next) {
			return next
		}
	}
}

// write is one entry on its way to its owners: a result slot per
// replica, filled by the replica's queue.
type write struct {
	c        *Cluster
	t        *topology
	entry    WriteEntry
	replicas []int
	readN    int
	errs     []error

	// pending counts the replicas yet to answer; the last one closes
	// done.
	pending atomic.Int32
	done    chan struct{}
}

// begin enqueues e with every owner of its sensor.
func (c *Cluster) begin(e WriteEntry) *write {
	t := c.top()
	replicas, readN := c.writeReplicas(t, e.ID)
	w := &write{c: c, t: t, entry: e, replicas: replicas, readN: readN,
		errs: make([]error, len(replicas)), done: make(chan struct{})}
	w.pending.Store(int32(len(replicas)))
	for i, idx := range replicas {
		t.members[idx].queue.enqueue(w, i)
	}
	return w
}

// wait blocks until every replica has answered and settles the write:
// acknowledged once WriteConsistency replicas of the READ set accepted
// it (during a rebalance the fan-out also covers the target ring's
// owners, whose acks never count — see writeReplicas), with a durable
// hint (when handoff is enabled) for each replica that missed it. The
// hint carries the entry's own version, so its replay resolves exactly
// where the original write would have, never above a later rewrite.
func (w *write) wait() error {
	<-w.done
	c := w.c
	missed, err := c.quorum(w.errs, w.readN)
	if err != nil {
		return err
	}
	if c.hints != nil && missed > 0 {
		for i, idx := range w.replicas {
			if w.errs[i] != nil {
				c.hintInsert(w.t.members[idx].id, w.entry)
			}
		}
	}
	return nil
}

// quorum settles a mutation's replica results against the write
// consistency level: an error when fewer than the required replicas of
// the read set (the first readN slots) accepted it, else how many
// replicas of the whole fan-out missed it.
func (c *Cluster) quorum(errs []error, readN int) (missed int, err error) {
	acked := 0
	var lastErr error
	for i, err := range errs {
		if err != nil {
			missed++
			lastErr = err
		} else if i < readN {
			acked++
		}
	}
	if required := c.writeCL.required(readN); acked < required {
		return missed, fmt.Errorf("store: write consistency %s not met (%d/%d replicas): %w",
			c.writeCL, acked, required, lastErr)
	}
	return missed, nil
}

// counted records the outcome of a client's mutation — an insert or a
// delete, not a forwarded hint — in the cluster's write counters.
func (c *Cluster) counted(err error) error {
	if err != nil {
		c.met.writesFailed.Inc()
	} else {
		c.met.writesOK.Inc()
	}
	return err
}

// InsertBatch implements Backend: the coordinator stamps the batch with
// one write version and expiry, sends it to every replica and returns
// once the write consistency level is met or missed.
func (c *Cluster) InsertBatch(id core.SensorID, rs []core.Reading, ttl time.Duration) error {
	return c.BeginInsert(id, rs, ttl)()
}

// BeginInsert is InsertBatch in two halves, for a caller with something
// to do while the replicas answer (the Collect Agent's broker reads a
// connection's next message). The first half — stamp, resolve the
// owners, enqueue — is done when BeginInsert returns, so writes begun
// in order on one goroutine carry versions in that order, whichever is
// applied first. The returned wait is the second half and
// InsertBatch's result; it must be called, once, and rs belongs to the
// cluster until it returns.
func (c *Cluster) BeginInsert(id core.SensorID, rs []core.Reading, ttl time.Duration) (wait func() error) {
	if len(rs) == 0 {
		return func() error { return nil }
	}
	w := c.begin(WriteEntry{ID: id, Version: c.nextVersion(), Expire: TTLToExpire(ttl), Readings: rs})
	return func() error { return c.counted(w.wait()) }
}

// writeQueue is the write combiner of one member: entries queue in next
// while a frame is being applied, and whoever finds the queue idle
// starts the flusher, which hands fw frame after frame until next is
// empty. Depth is bounded by the writes in flight — two per broker
// connection — so nothing here needs a limit of its own.
type writeQueue struct {
	c  *Cluster
	fw FrameWriter // FramesOf the member's backend; hint replay writes through it too

	mu   sync.Mutex
	next []queuedWrite
	busy bool // a flusher is running
}

// queuedWrite is one replica slot of a write waiting for a frame.
type queuedWrite struct {
	w    *write
	slot int
}

func (q *writeQueue) enqueue(w *write, slot int) {
	q.mu.Lock()
	q.next = append(q.next, queuedWrite{w, slot})
	start := !q.busy
	if start {
		q.busy = true
		q.c.writeWG.Add(1)
	}
	q.mu.Unlock()
	if start {
		go q.flush()
	}
}

// flush sends the queue as frames, one at a time, until it is empty.
// An entry is taken out of next exactly once, so it travels in exactly
// one frame, and every taken entry's slot is answered with its frame's
// one verdict.
func (q *writeQueue) flush() {
	defer q.c.writeWG.Done()
	var batch []queuedWrite
	var frame []WriteEntry
	for {
		q.mu.Lock()
		batch, q.next = q.next, batch[:0]
		if len(batch) == 0 {
			q.busy = false
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
		frame = frame[:0]
		for _, b := range batch {
			frame = append(frame, b.w.entry)
		}
		q.c.met.writeFrames.Inc()
		q.c.met.writeFrameEntries.Add(int64(len(frame)))
		err := q.fw.WriteFrame(frame)
		for _, b := range batch {
			b.w.errs[b.slot] = err
			if b.w.pending.Add(-1) == 0 {
				close(b.w.done)
			}
		}
	}
}
