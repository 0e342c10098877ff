package store

import (
	"fmt"
	"io"
	"math"
	"sync"

	"dcdb/internal/core"
)

// Streaming cluster reads: the coordinator consumes its replicas'
// streams incrementally — chunks are pulled, merged newest-wins and
// handed to the caller without the coordinator ever materializing a
// whole replica response. Read repair is per merged chunk: the merge
// only remembers the timestamp range over which replicas diverged, and
// at the end of each chunk hands that range to the anti-entropy routine
// in the background — so a repair moves versioned readings (original
// write version and expiry) like every other convergence path, and
// repairing a long-diverged replica costs bounded coordinator memory.

// replicaCursor tracks one replica's stream inside a quorum merge.
// A failed cursor is not final: the merge tries to re-open the
// replica's stream at the merge horizon (tries bounds the attempts
// between emissions; dead marks a replica that stayed unreachable).
type replicaCursor struct {
	st     ReadingStream
	buf    []core.Reading
	pos    int
	eof    bool
	failed error
	dead   bool
	tries  int // reopen attempts since the merge last advanced
}

// head returns the cursor's current reading, refilling from the stream
// when the chunk is drained. ok is false at EOF or after a failure.
func (rc *replicaCursor) head() (core.Reading, bool) {
	for {
		if rc.failed != nil || rc.eof {
			return core.Reading{}, false
		}
		if rc.pos < len(rc.buf) {
			return rc.buf[rc.pos], true
		}
		chunk, err := rc.st.Next()
		if err == io.EOF {
			rc.eof = true
			return core.Reading{}, false
		}
		if err != nil {
			rc.failed = err
			return core.Reading{}, false
		}
		rc.buf, rc.pos = chunk, 0
	}
}

// quorumStream merges k replica streams newest-wins. from/to and the
// merge horizon (lastTS, the last emitted timestamp) are kept so a
// replica lost mid-stream can be resumed exactly where the merge
// stands: every timestamp <= lastTS has been emitted, every cursor
// position is >= lastTS, so re-opening the replica's stream at
// lastTS+1 loses nothing and repeats nothing.
type quorumStream struct {
	c        *Cluster
	top      *topology // snapshot the stream was opened against
	id       core.SensorID
	from, to int64
	cursors  []*replicaCursor
	backends []int // member index per cursor, within top
	required int
	buf      []core.Reading
	done     bool
	lastTS   int64
	emitted  bool

	// Timestamp range of the divergence seen since the last flushRepair.
	repairFrom, repairTo int64
	repairPending        bool
}

// QueryStream implements the cluster's streaming read at the configured
// read consistency. At ONE the first replica whose stream opens serves
// the result, and a replica lost mid-stream fails over to the next one
// (resuming past the last emitted timestamp) instead of erroring. At
// QUORUM every replica's stream is merged incrementally (union of
// timestamps, primary-most replica's value on ties), divergent replicas
// are repaired chunk by chunk in the background, and a replica lost
// mid-stream is re-opened at the merge horizon — the stream only fails
// if a quorum is genuinely unreachable past the last merged timestamp.
// The stream must be closed.
func (c *Cluster) QueryStream(id core.SensorID, from, to int64) (ReadingStream, error) {
	t := c.top()
	replicas := c.readReplicas(t, id)
	if c.readCL.required(len(replicas)) == 1 {
		var lastErr error
		for i, idx := range replicas {
			st, err := t.members[idx].backend.QueryStream(id, from, to)
			if err == nil {
				return &failoverStream{
					c: c, top: t, id: id, from: from, to: to,
					st: st, rest: replicas[i+1:],
				}, nil
			}
			lastErr = err
		}
		return nil, fmt.Errorf("store: all replicas failed: %w", lastErr)
	}
	streams := make([]ReadingStream, len(replicas))
	errs := make([]error, len(replicas))
	var wg sync.WaitGroup
	for i, idx := range replicas {
		wg.Add(1)
		go func(i, idx int) {
			defer wg.Done()
			streams[i], errs[i] = t.members[idx].backend.QueryStream(id, from, to)
		}(i, idx)
	}
	wg.Wait()
	required := c.readCL.required(len(replicas))
	qs := &quorumStream{c: c, top: t, id: id, from: from, to: to, required: required}
	ok := 0
	var lastErr error
	for i := range streams {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		ok++
		qs.cursors = append(qs.cursors, &replicaCursor{st: streams[i]})
		qs.backends = append(qs.backends, replicas[i])
	}
	if ok < required {
		qs.Close()
		return nil, fmt.Errorf("store: read consistency %s not met (%d/%d replicas): %w",
			c.readCL, ok, required, lastErr)
	}
	return qs, nil
}

// reopen resumes cursor i's replica stream past the merge horizon.
// Reports whether the replica answered.
func (s *quorumStream) reopen(i int) bool {
	rc := s.cursors[i]
	rc.st.Close()
	from := s.from
	if s.emitted {
		from = s.lastTS + 1
	}
	st, err := s.top.members[s.backends[i]].backend.QueryStream(s.id, from, s.to)
	if err != nil {
		return false
	}
	rc.st = st
	rc.failed = nil
	rc.dead = false
	rc.buf, rc.pos, rc.eof = nil, 0, false
	return true
}

// cursorHead is head() plus failure handling: a cursor that fails
// mid-stream gets one immediate re-open at the merge horizon before it
// is declared dead (the barrier in Next grants one more). The budget
// resets whenever the merge advances, so a replica may drop and rejoin
// repeatedly across a long stream — but a replica flapping on the spot
// cannot spin the merge.
func (s *quorumStream) cursorHead(i int) (core.Reading, bool) {
	rc := s.cursors[i]
	for {
		h, ok := rc.head()
		if ok || rc.failed == nil {
			return h, ok
		}
		if rc.dead || rc.tries >= 1 {
			rc.dead = true
			return core.Reading{}, false
		}
		rc.tries++
		if !s.reopen(i) {
			rc.dead = true
			return core.Reading{}, false
		}
	}
}

// Next merges the next chunk. A live replica that misses a timestamp
// the merge emits (or holds different value bits for it) puts that
// timestamp in the chunk's repair range.
func (s *quorumStream) Next() ([]core.Reading, error) {
	if s.done {
		return nil, io.EOF
	}
	if s.buf == nil {
		s.buf = make([]core.Reading, 0, StreamChunkReadings)
	}
	s.buf = s.buf[:0]
	for len(s.buf) < StreamChunkReadings {
		// Find the smallest pending timestamp across live cursors; the
		// first (primary-most) cursor holding it supplies the value.
		var out core.Reading
		found := false
		for i := range s.cursors {
			h, ok := s.cursorHead(i)
			if !ok {
				continue
			}
			if !found || h.Timestamp < out.Timestamp {
				out, found = h, true
			}
		}
		if !found {
			// Every cursor is at EOF or dead. Mid-stream loss is only
			// fatal if the replica stays unreachable past the merge
			// horizon: grant each dead cursor one last resume attempt
			// before judging the quorum. (tries >= 2 means both the
			// inline and the barrier attempt failed without progress in
			// between — that replica is spent.)
			revived := false
			for i, rc := range s.cursors {
				if rc.dead && rc.tries < 2 {
					rc.tries++
					if s.reopen(i) {
						revived = true
					}
				}
			}
			if revived {
				continue
			}
			live := 0
			var lastErr error
			for _, rc := range s.cursors {
				if rc.failed != nil {
					lastErr = rc.failed
				} else {
					live++
				}
			}
			if live < s.required {
				s.Close()
				return nil, fmt.Errorf("store: read consistency %s lost mid-stream (%d/%d replicas): %w",
					s.c.readCL, live, s.required, lastErr)
			}
			s.flushRepair()
			s.done = true
			for _, rc := range s.cursors {
				rc.st.Close()
			}
			if len(s.buf) == 0 {
				return nil, io.EOF
			}
			return s.buf, nil
		}
		// The merge advances: record the horizon first, so a cursor
		// failing in the loop below resumes after out, and refresh the
		// reopen budget of every replica still in the game.
		s.lastTS, s.emitted = out.Timestamp, true
		// Advance every cursor holding this timestamp; the rest owe a
		// repair for it.
		for _, rc := range s.cursors {
			if !rc.dead {
				rc.tries = 0
			}
			h, ok := rc.head()
			if !ok {
				if rc.failed == nil {
					s.noteRepair(out.Timestamp)
				}
				continue
			}
			if h.Timestamp != out.Timestamp {
				s.noteRepair(out.Timestamp)
				continue
			}
			if math.Float64bits(h.Value) != math.Float64bits(out.Value) {
				s.noteRepair(out.Timestamp)
			}
			rc.pos++
		}
		s.buf = append(s.buf, out)
	}
	s.flushRepair()
	return s.buf, nil
}

// noteRepair widens the pending repair range to cover ts (the merge
// emits in ascending order, so only the upper end moves).
func (s *quorumStream) noteRepair(ts int64) {
	if !s.repairPending {
		s.repairFrom, s.repairPending = ts, true
	}
	s.repairTo = ts
}

// flushRepair converges the replicas over the pending repair range in
// the background, through the same digest-compare and versioned
// re-insert as an anti-entropy round.
func (s *quorumStream) flushRepair() {
	if !s.repairPending {
		return
	}
	s.repairPending = false
	c, id, from, to := s.c, s.id, s.repairFrom, s.repairTo
	c.met.readRepairs.Inc()
	c.repairWG.Add(1)
	go func() {
		defer c.repairWG.Done()
		_ = c.repairSensor(id, from, to) // best effort; the next read retries
	}()
}

// Close implements ReadingStream; closing early cancels every replica
// stream and flushes the pending repair — the divergence already
// observed is real regardless of how far the consumer read.
func (s *quorumStream) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	s.flushRepair()
	for _, rc := range s.cursors {
		rc.st.Close()
	}
	return nil
}

// failoverStream serves a ONE-consistency streaming read: it rides a
// single replica's stream and, when that replica fails mid-stream,
// re-opens the tail on the next replica in the set (resuming past the
// last emitted timestamp) instead of surfacing the error — availability
// over completeness, the same trade ONE makes at open time. Readings
// already emitted are never repeated; readings at or before the
// failover point that only the surviving replicas hold are skipped,
// which ONE never promised to return.
type failoverStream struct {
	c        *Cluster
	top      *topology // snapshot the stream was opened against
	id       core.SensorID
	from, to int64
	st       ReadingStream
	rest     []int // replicas not yet tried, in ring order
	lastTS   int64
	emitted  bool
	closed   bool
}

func (f *failoverStream) Next() ([]core.Reading, error) {
	for {
		chunk, err := f.st.Next()
		if err == nil {
			if len(chunk) > 0 {
				f.lastTS = chunk[len(chunk)-1].Timestamp
				f.emitted = true
			}
			return chunk, nil
		}
		if err == io.EOF {
			return nil, io.EOF
		}
		// Mid-stream failure: resume past everything already delivered
		// on the next replica that answers. The replacement stream may
		// itself fail over again while replicas remain.
		f.st.Close()
		from := f.from
		if f.emitted {
			from = f.lastTS + 1
		}
		replaced := false
		for len(f.rest) > 0 {
			idx := f.rest[0]
			f.rest = f.rest[1:]
			st, oerr := f.top.members[idx].backend.QueryStream(f.id, from, f.to)
			if oerr == nil {
				f.st = st
				replaced = true
				break
			}
		}
		if !replaced {
			return nil, err
		}
	}
}

func (f *failoverStream) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	return f.st.Close()
}

// accumulated fully (bounded by one sensor's window, not the prefix
// result) so sensors can be merged across backends in SID order.
type keyedCursor struct {
	st     KeyedReadingStream
	id     core.SensorID
	rs     []core.Reading
	have   bool
	eof    bool
	failed error

	pendID core.SensorID
	pendRS []core.Reading
	pend   bool
}

// advance accumulates the next complete sensor from the stream.
func (kc *keyedCursor) advance() {
	if kc.eof || kc.failed != nil {
		kc.have = false
		return
	}
	kc.id, kc.rs, kc.have = core.SensorID{}, nil, false
	if kc.pend {
		kc.id = kc.pendID
		kc.rs = append(kc.rs, kc.pendRS...)
		kc.pend = false
		kc.have = true
	}
	for {
		id, chunk, err := kc.st.Next()
		if err == io.EOF {
			kc.eof = true
			return
		}
		if err != nil {
			kc.failed = err
			kc.have = false
			return
		}
		if !kc.have {
			kc.id, kc.have = id, true
		} else if id != kc.id {
			// First chunk of the next sensor: hold it back.
			kc.pendID = id
			kc.pendRS = append(kc.pendRS[:0], chunk...)
			kc.pend = true
			return
		}
		kc.rs = append(kc.rs, chunk...)
	}
}

// prefixMergeStream merges per-backend keyed streams in SID order,
// deduplicating replicated sensors newest-wins.
type prefixMergeStream struct {
	c       *Cluster
	cursors []*keyedCursor
	started bool
	done    bool

	// current merged sensor, emitted in chunks
	curID core.SensorID
	curRS []core.Reading
	pos   int
}

// QueryPrefixStream implements the cluster's streaming subtree read.
// Every backend is consulted (the prefix may span partitions); each
// yields its sensors in ascending SID order, so the coordinator merges
// sensor-at-a-time — memory is bounded by one sensor's result per
// backend, never the whole subtree. At QUORUM the stream fails unless
// every possible replica window retains a quorum of live streams, the
// same conservative bound as the materializing QueryPrefix.
func (c *Cluster) QueryPrefixStream(prefix core.SensorID, depth int, from, to int64) (KeyedReadingStream, error) {
	t := c.top()
	streams := make([]KeyedReadingStream, len(t.members))
	errs := make([]error, len(t.members))
	if len(t.members) == 1 {
		streams[0], errs[0] = t.members[0].backend.QueryPrefixStream(prefix, depth, from, to)
	} else {
		var wg sync.WaitGroup
		for i := range t.members {
			wg.Add(1)
			go func(i int, b NodeBackend) {
				defer wg.Done()
				streams[i], errs[i] = b.QueryPrefixStream(prefix, depth, from, to)
			}(i, t.members[i].backend)
		}
		wg.Wait()
	}
	var firstErr error
	failed := 0
	for i := range t.members {
		if errs[i] != nil {
			failed++
			if firstErr == nil {
				firstErr = errs[i]
			}
		}
	}
	closeAll := func() {
		for _, st := range streams {
			if st != nil {
				st.Close()
			}
		}
	}
	if failed == len(t.members) {
		return nil, fmt.Errorf("store: all nodes failed: %w", firstErr)
	}
	if failed > 0 {
		if err := c.checkPrefixQuorum(t, errs, firstErr); err != nil {
			closeAll()
			return nil, err
		}
	}
	ms := &prefixMergeStream{c: c}
	for i := range streams {
		if streams[i] != nil {
			ms.cursors = append(ms.cursors, &keyedCursor{st: streams[i]})
		}
	}
	return ms, nil
}

func (s *prefixMergeStream) Next() (core.SensorID, []core.Reading, error) {
	if s.done {
		return core.SensorID{}, nil, io.EOF
	}
	if !s.started {
		s.started = true
		for _, kc := range s.cursors {
			kc.advance()
			if kc.failed != nil {
				err := kc.failed
				s.Close()
				return core.SensorID{}, nil, fmt.Errorf("store: prefix stream replica failed: %w", err)
			}
		}
	}
	for {
		if s.pos < len(s.curRS) {
			hi := s.pos + StreamChunkReadings
			if hi > len(s.curRS) {
				hi = len(s.curRS)
			}
			chunk := s.curRS[s.pos:hi]
			id := s.curID
			s.pos = hi
			return id, chunk, nil
		}
		// Pick the smallest pending SID across cursors and merge every
		// copy of it newest-wins.
		var minID core.SensorID
		found := false
		for _, kc := range s.cursors {
			if kc.have && (!found || kc.id.Compare(minID) < 0) {
				minID, found = kc.id, true
			}
		}
		if !found {
			s.Close()
			return core.SensorID{}, nil, io.EOF
		}
		var merged []core.Reading
		first := true
		for _, kc := range s.cursors {
			if !kc.have || kc.id != minID {
				continue
			}
			if first {
				merged = kc.rs
				first = false
			} else {
				merged = mergeReplicaReadings(merged, kc.rs)
			}
		}
		for _, kc := range s.cursors {
			if kc.have && kc.id == minID {
				kc.advance()
				if kc.failed != nil {
					err := kc.failed
					s.Close()
					return core.SensorID{}, nil, fmt.Errorf("store: prefix stream replica failed: %w", err)
				}
			}
		}
		if len(merged) == 0 {
			continue
		}
		s.curID, s.curRS, s.pos = minID, merged, 0
	}
}

func (s *prefixMergeStream) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	for _, kc := range s.cursors {
		kc.st.Close()
	}
	return nil
}
