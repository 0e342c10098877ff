package store

import (
	"time"

	"dcdb/internal/core"
)

// NodeBackend is the full API of one storage node as the Cluster sees
// it. *Node implements it in-process; rpc.Client implements it over the
// wire, which is what lets storage nodes run as separate processes
// (paper §4.3: Collect Agents forward readings to a cluster of database
// server processes). Everything a coordinator does — writes, reads,
// maintenance, liveness probes — goes through this interface, so the
// Cluster never cares where a replica lives.
type NodeBackend interface {
	Backend

	// Flush forces the node's memtable into sorted runs; a durable node
	// returns once its spiller has written them to run files.
	Flush() error
	// Sync forces the node's WAL to disk.
	Sync() error
	// Compact merges the node's runs and drops expired entries.
	Compact()
	// Stats reports cumulative insert/query counters and the resident
	// entry count. Advisory: remote implementations may return zeros
	// when the node is unreachable.
	Stats() (inserts, queries int64, entries int)
	// SensorIDs lists every SID present on the node, sorted. Advisory:
	// remote implementations may return nil when the node is
	// unreachable.
	SensorIDs() []core.SensorID
	// Ping probes liveness cheaply; the hinted-handoff replayer uses it
	// to decide when a replica is back.
	Ping() error

	// InsertVersioned stores readings carrying coordinator-assigned
	// write versions (and absolute expiries). Query-time dedup resolves
	// duplicate timestamps newest-version-wins, so a replayed hint —
	// which re-delivers its original version — can never overwrite a
	// later versioned rewrite.
	InsertVersioned(id core.SensorID, vrs []VersionedReading) error
	// QueryVersionedStream streams the sensor's winning readings in
	// [from, to], in timestamp order and in chunks of at most
	// StreamChunkReadings, each with the version and expiry its write
	// carried: what the cluster's replica merge (read repair,
	// anti-entropy, rebalance) and the tools' directory merge read, so
	// a copied reading keeps the place its original write had.
	// Replicas are compared without it, by the fingerprint of an
	// Aggregate(OpSummary).
	QueryVersionedStream(id core.SensorID, from, to int64) (VersionedStream, error)
}

// VersionedReading is one reading together with the write version and
// absolute expiry it was coordinated with (Expire 0 = never, Version 0
// = an unstamped write: InsertBatch, the tools). It is the unit
// of versioned replication: every replica-to-replica transfer moves
// VersionedReadings so the original conflict-resolution order survives
// re-delivery.
type VersionedReading struct {
	Timestamp int64
	Value     float64
	Version   uint64
	Expire    int64
}

// WriteEntry is one coordinated write of one sensor: a message's
// readings under the one stamp — write version and absolute expiry —
// the coordinator gave it. It is the unit a write travels in: the rpc
// write frame carries entries, a node applies entries, the coordinator
// tallies acknowledgements and queues hints per entry.
type WriteEntry struct {
	ID       core.SensorID
	Version  uint64
	Expire   int64
	Readings []core.Reading
}

// Versioned expands the entry to one stamped reading each, the form the
// NodeBackend API takes.
func (e WriteEntry) Versioned() []VersionedReading {
	vrs := make([]VersionedReading, len(e.Readings))
	for i, r := range e.Readings {
		vrs[i] = VersionedReading{Timestamp: r.Timestamp, Value: r.Value, Version: e.Version, Expire: e.Expire}
	}
	return vrs
}

// SplitStamps cuts versioned readings of one sensor into one entry per
// run of equal stamps, order kept: a coordinated batch is one entry, a
// repair or hint batch gathered from several writes is one per write.
func SplitStamps(id core.SensorID, vrs []VersionedReading) []WriteEntry {
	if len(vrs) == 0 {
		return nil
	}
	runs := 1
	for i := 1; i < len(vrs); i++ {
		if vrs[i].Version != vrs[i-1].Version || vrs[i].Expire != vrs[i-1].Expire {
			runs++
		}
	}
	rs := make([]core.Reading, len(vrs))
	out := make([]WriteEntry, 0, runs)
	start := 0
	for i, v := range vrs {
		rs[i] = core.Reading{Timestamp: v.Timestamp, Value: v.Value}
		if v.Version != vrs[start].Version || v.Expire != vrs[start].Expire {
			out = append(out, WriteEntry{ID: id, Version: vrs[start].Version, Expire: vrs[start].Expire, Readings: rs[start:i]})
			start = i
		}
	}
	return append(out, WriteEntry{ID: id, Version: vrs[start].Version, Expire: vrs[start].Expire, Readings: rs[start:]})
}

// FrameWriter is the write half of a storage node: any number of
// entries, of any sensors, applied in one call. *Node and rpc.Client
// implement it. It is deliberately not part of NodeBackend: a backend
// that decorates InsertVersioned (a test's fault injector, the
// benchmark's tracer) must keep seeing every write it wraps, so frames
// are only ever handed to the two implementations themselves — see
// FramesOf.
type FrameWriter interface {
	// WriteFrame applies the entries and returns nil when all of them
	// were, else one slot per entry (nil = applied).
	WriteFrame(entries []WriteEntry) []error
}

// RemoteWriter is a FrameWriter on the far side of a connection
// (rpc.Client). Self returns the writer, and FramesOf compares it with
// the backend it was given: a wrapper that embeds a client inherits
// WriteFrame and Self alike, but Self still answers with the client
// inside, so the wrapper is recognised as a decoration.
type RemoteWriter interface {
	FrameWriter
	Self() NodeBackend
}

// FramesOf returns how frames reach a backend — the writer its member's
// write queue and hint replay hand entries to. A *Node, and a
// RemoteWriter that is the backend itself, take whole frames; anything
// else — a decorator embedding either, whose inherited WriteFrame would
// bypass the decoration — gets each entry through its own
// InsertVersioned. The choice goes by the backend's identity, never by
// its method set.
func FramesOf(b NodeBackend) FrameWriter {
	switch w := b.(type) {
	case *Node:
		return w
	case RemoteWriter:
		if w.Self() == b {
			return w
		}
	}
	return versionedFrames{b}
}

type versionedFrames struct{ b NodeBackend }

func (v versionedFrames) WriteFrame(entries []WriteEntry) []error {
	var errs []error
	for i, e := range entries {
		if err := v.b.InsertVersioned(e.ID, e.Versioned()); err != nil {
			if errs == nil {
				errs = make([]error, len(entries))
			}
			errs[i] = err
		}
	}
	return errs
}

// Consistency is the number-of-replicas contract of a cluster
// operation, mirroring Cassandra's tunable consistency levels for the
// two configurations that matter in monitoring deployments.
type Consistency int

const (
	// ConsistencyOne acknowledges a write (or serves a read) after one
	// replica responds — the common monitoring configuration: ingest
	// availability over freshness.
	ConsistencyOne Consistency = iota + 1
	// ConsistencyQuorum requires floor(replication/2)+1 replicas, so
	// any read quorum intersects any write quorum.
	ConsistencyQuorum
)

// required returns how many replica acknowledgements the level needs
// out of replication copies.
func (c Consistency) required(replication int) int {
	if c == ConsistencyQuorum {
		return replication/2 + 1
	}
	return 1
}

// String names the level the way the CLI flags spell it.
func (c Consistency) String() string {
	if c == ConsistencyQuorum {
		return "quorum"
	}
	return "one"
}

// ParseConsistency parses a CLI-style consistency level name.
func ParseConsistency(s string) (Consistency, bool) {
	switch s {
	case "one", "ONE", "1":
		return ConsistencyOne, true
	case "quorum", "QUORUM":
		return ConsistencyQuorum, true
	}
	return 0, false
}

// Ping implements NodeBackend for the in-process node; every read
// starts with it, so a down or closed node serves none.
func (n *Node) Ping() error {
	if n.down.Load() {
		return ErrNodeDown
	}
	if n.closed.Load() {
		return ErrNodeClosed
	}
	return nil
}

// TTLToExpire converts a relative TTL to the absolute expiry the store
// keeps (0 = never), read once so replica fan-out and hints agree.
func TTLToExpire(ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	return time.Now().Add(ttl).UnixNano()
}

var _ NodeBackend = (*Node)(nil)
