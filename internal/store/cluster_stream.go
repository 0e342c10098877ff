package store

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"dcdb/internal/core"
)

// The cluster's read path, and there is one: the coordinator consumes
// its replicas' streams incrementally — chunks are pulled, merged and
// handed to the caller without the coordinator ever materializing a
// whole replica response; Query is a drain of its stream. Streams carry values only, so the merge itself cannot tell
// which of two conflicting copies is newer. It does not have to: it
// only remembers the timestamp range over which the replicas it reads
// disagreed, and before a chunk leaves the coordinator that range is
// re-read with write versions and settled by resolveRead
// (antientropy.go) — the replica merge anti-entropy runs, which also
// queues the lagging replicas' repairs. Converged replicas (the
// steady state) never pay for versions; a long-diverged replica costs
// one chunk of coordinator memory at a time.

// readTally counts a cluster read once, when its stream ends, so a
// streamed read and a drained one move dcdb_cluster_reads_total alike:
// io.EOF is an ok read, any other error a failed one, and a stream the
// caller closes early is neither.
type readTally struct {
	met     *clusterMetrics
	counted bool
}

func (r *readTally) end(err error) {
	if r.counted {
		return
	}
	r.counted = true
	if err == io.EOF {
		r.met.readsOK.Inc()
	} else if err != nil {
		r.met.readsFailed.Inc()
	}
}

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

// quorumStream merges k replica streams into the union of their
// timestamps. from/to and the merge horizon (lastTS, the last emitted
// timestamp) are kept so a replica lost mid-stream can be resumed
// exactly where the merge stands: every timestamp <= lastTS has been
// emitted, every cursor position is >= lastTS, so re-opening the
// replica's stream at lastTS+1 loses nothing and repeats nothing.
type quorumStream struct {
	readTally
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

	// Timestamp range over which the chunk being merged saw its
	// replicas disagree; settled by resolve before the chunk is returned.
	repairFrom, repairTo int64
	repairPending        bool
}

// QueryStream implements Backend: the cluster's read at the configured
// read consistency. At ONE the first replica whose stream opens serves
// the result, and a replica lost mid-stream fails over to the next one
// (resuming past the last emitted timestamp) instead of erroring. At
// QUORUM every replica's stream is merged incrementally; where the
// copies disagree — a timestamp one of them lacks, or holds different
// value bits for — the answer is the highest write version any
// answering replica holds (resolveRead), and the replicas that lagged
// are repaired in the background. A replica lost mid-stream is
// re-opened at the merge horizon — the stream only fails if a quorum is
// genuinely unreachable past the last merged timestamp. The stream must
// be closed.
func (c *Cluster) QueryStream(id core.SensorID, from, to int64) (ReadingStream, error) {
	t := c.top()
	replicas := c.readReplicas(t, id)
	if c.readCL.required(len(replicas)) == 1 {
		var lastErr error
		for i, idx := range replicas {
			st, err := t.members[idx].backend.QueryStream(id, from, to)
			if err == nil {
				return &failoverStream{
					readTally: readTally{met: c.met},
					top:       t, id: id, from: from, to: to,
					st: st, rest: replicas[i+1:],
				}, nil
			}
			lastErr = err
		}
		c.met.readsFailed.Inc()
		return nil, fmt.Errorf("store: all replicas failed: %w", lastErr)
	}
	streams := make([]ReadingStream, len(replicas))
	errs := c.fanOut(replicas, func(i, idx int) (err error) {
		streams[i], err = t.members[idx].backend.QueryStream(id, from, to)
		return err
	})
	required := c.readCL.required(len(replicas))
	qs := &quorumStream{readTally: readTally{met: c.met}, c: c, top: t, id: id, from: from, to: to, required: required}
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
		c.met.readsFailed.Inc()
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
func (s *quorumStream) Next() (chunk []core.Reading, err error) {
	if s.done {
		return nil, io.EOF
	}
	defer func() {
		if err != nil {
			s.end(err)
			s.Close()
		}
	}()
	if s.buf == nil {
		s.buf = make([]core.Reading, 0, StreamChunkReadings)
	}
	s.buf = s.buf[:0]
	for len(s.buf) < StreamChunkReadings {
		// Find the smallest pending timestamp across live cursors; the
		// first (primary-most) cursor holding it supplies the value
		// unless another copy contradicts it (see resolve).
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
				return nil, fmt.Errorf("store: read consistency %s lost mid-stream (%d/%d replicas): %w",
					s.c.readCL, live, s.required, lastErr)
			}
			if err := s.resolve(); err != nil {
				return nil, err
			}
			if len(s.buf) == 0 {
				return nil, io.EOF
			}
			// The final chunk completes the read.
			s.end(io.EOF)
			s.Close()
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
	if err := s.resolve(); err != nil {
		return nil, err
	}
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

// resolve settles the chunk's divergent span before the chunk is
// returned: the span is re-read with write versions, reconciled, and
// spliced over what the value-only merge produced for it.
func (s *quorumStream) resolve() error {
	if !s.repairPending {
		return nil
	}
	s.repairPending = false
	span, err := s.c.resolveRead(s.top, s.id, s.repairFrom, s.repairTo)
	if err != nil {
		return err
	}
	lo := sort.Search(len(s.buf), func(i int) bool { return s.buf[i].Timestamp >= s.repairFrom })
	hi := sort.Search(len(s.buf), func(i int) bool { return s.buf[i].Timestamp > s.repairTo })
	s.buf = slices.Replace(s.buf, lo, hi, span...)
	return nil
}

// Close implements ReadingStream; closing early cancels every replica
// stream.
func (s *quorumStream) Close() error {
	if s.done {
		return nil
	}
	s.done = true
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
	readTally
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
			f.end(err)
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
			f.end(err)
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

// keyedCursor tracks one backend's keyed stream: each sensor is
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

// prefixMergeStream merges per-backend keyed streams in SID order. A
// replicated sensor whose copies agree is served from the first; one
// whose copies disagree is answered by resolveRead, exactly as a
// single-sensor QUORUM read would.
type prefixMergeStream struct {
	readTally
	c        *Cluster
	top      *topology // snapshot the stream was opened against
	from, to int64
	cursors  []*keyedCursor
	started  bool
	done     bool

	// current merged sensor, emitted in chunks
	curID core.SensorID
	curRS []core.Reading
	pos   int
}

// QueryPrefixStream implements Backend: the cluster's subtree read.
// Every member is consulted concurrently — a prefix shallower than the
// placement depth spans replica sets, and a deeper one is not routed to
// its single set either; each yields its sensors in ascending SID
// order, so the coordinator merges sensor-at-a-time — memory is bounded
// by one sensor's result per backend, never the whole subtree. The
// stream fails unless every replica set the read ring could assign
// retains the live streams the read consistency requires — a quorum,
// or at ONE one — a conservative, exact bound over every sensor the
// prefix could own.
func (c *Cluster) QueryPrefixStream(prefix core.SensorID, depth int, from, to int64) (KeyedReadingStream, error) {
	t := c.top()
	streams := make([]KeyedReadingStream, len(t.members))
	errs := eachMember(t, func(i int, b NodeBackend) (err error) {
		streams[i], err = b.QueryPrefixStream(prefix, depth, from, to)
		return err
	})
	ms := &prefixMergeStream{readTally: readTally{met: c.met}, c: c, top: t, from: from, to: to}
	for _, st := range streams {
		if st != nil {
			ms.cursors = append(ms.cursors, &keyedCursor{st: st})
		}
	}
	if firstErr := firstError(errs); firstErr != nil {
		err := c.checkPrefixQuorum(t, errs, firstErr)
		if len(ms.cursors) == 0 {
			err = fmt.Errorf("store: all nodes failed: %w", firstErr)
		}
		if err != nil {
			ms.Close()
			c.met.readsFailed.Inc()
			return nil, err
		}
	}
	return ms, nil
}

func (s *prefixMergeStream) Next() (id core.SensorID, chunk []core.Reading, err error) {
	if s.done {
		return core.SensorID{}, nil, io.EOF
	}
	defer func() {
		if err != nil {
			s.end(err)
			s.Close()
		}
	}()
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
			return core.SensorID{}, nil, io.EOF
		}
		var merged []core.Reading
		first, agree := true, true
		for _, kc := range s.cursors {
			if !kc.have || kc.id != minID {
				continue
			}
			if first {
				merged = kc.rs
				first = false
			} else if !sameReadings(merged, kc.rs) {
				agree = false
			}
		}
		if !agree {
			var err error
			if merged, err = s.c.resolveRead(s.top, minID, s.from, s.to); err != nil {
				return core.SensorID{}, nil, err
			}
		}
		for _, kc := range s.cursors {
			if kc.have && kc.id == minID {
				kc.advance()
				if kc.failed != nil {
					return core.SensorID{}, nil, fmt.Errorf("store: prefix stream replica failed: %w", kc.failed)
				}
			}
		}
		if len(merged) == 0 {
			continue
		}
		s.curID, s.curRS, s.pos = minID, merged, 0
	}
}

// sameReadings reports whether two copies of a series hold the same
// timestamps and value bits (NaN equals itself here).
func sameReadings(a, b []core.Reading) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Timestamp != b[i].Timestamp || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
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
