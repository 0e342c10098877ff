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

	// Flush forces the node's memtable into sorted runs (durable nodes
	// spill them to disk in the background).
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
	// QueryVersioned returns the sensor's deduplicated readings in
	// [from, to] with the version and expiry each winning write carried
	// — the anti-entropy transfer format.
	QueryVersioned(id core.SensorID, from, to int64) ([]VersionedReading, error)
	// Digest fingerprints the sensor's deduplicated readings in
	// [from, to]: the order-sensitive fold fingerprint over (ts, value)
	// plus the reading count. Two replicas whose digests match hold
	// value-identical data for the range regardless of how the versions
	// that produced it differ.
	Digest(id core.SensorID, from, to int64) (fp uint64, count int64, err error)
}

// VersionedReading is one reading together with the write version and
// absolute expiry it was coordinated with (Expire 0 = never, Version 0
// = legacy unversioned write). It is the unit of versioned replication:
// hint replay and anti-entropy repair move VersionedReadings so the
// original conflict-resolution order survives re-delivery.
type VersionedReading struct {
	Timestamp int64
	Value     float64
	Version   uint64
	Expire    int64
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

// Ping implements NodeBackend for the in-process node.
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

// expireToTTL is the inverse, used when a hinted write is replayed: the
// absolute expiry recorded at coordination time becomes the TTL the
// node API takes. ok is false when the entry has already expired.
func expireToTTL(expire int64) (time.Duration, bool) {
	if expire == 0 {
		return 0, true
	}
	d := time.Until(time.Unix(0, expire))
	if d <= 0 {
		return 0, false
	}
	return d, true
}

var _ NodeBackend = (*Node)(nil)
