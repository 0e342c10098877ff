// Package membership is the gossip-based cluster membership layer: a
// SWIM-flavoured protocol in which every node maintains a full member
// table (ID, address, incarnation, heartbeat, status) and anti-entropy
// push-pull exchanges over the existing RPC framing (opGossip)
// disseminate it epidemically. Failure detection is heartbeat-based:
// a member whose heartbeat counter stops advancing is marked Suspect
// after SuspectAfter and Dead after DeadAfter — local, per-node
// judgements that the incarnation rules reconcile globally. A member
// wrongly suspected refutes by bumping its incarnation, which outranks
// every older rumour about it; a restarted member seeds its
// incarnation from the wall clock, so it always outranks its previous
// life without persisting anything.
//
// The member table is the input to placement: its ring members
// (everyone not Dead/Left), handed to OnChange, are what coordinators
// feed to the consistent-hash ring, so any two nodes that have converged on the same table derive
// bit-identical placement with no coordination beyond the gossip
// itself.
package membership

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Status is a member's disseminated liveness state. The order is the
// merge precedence at equal incarnation: later states override earlier
// ones (Dead > Left > Suspect > Alive), so a rumour can only progress
// toward removal until the member itself refutes with a higher
// incarnation.
type Status uint8

const (
	StatusAlive Status = iota
	StatusSuspect
	StatusLeft
	StatusDead
)

func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusLeft:
		return "left"
	case StatusDead:
		return "dead"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Member is one row of the gossiped member table.
type Member struct {
	// ID is the stable identity placement keys on; by convention the
	// node's advertised address.
	ID string
	// Addr is where the member's RPC endpoint listens.
	Addr string
	// Incarnation orders rumours about this member across its
	// lifetimes: higher wins outright. Only the member itself bumps it
	// (at start, and to refute a false suspicion).
	Incarnation uint64
	// Heartbeat is bumped by the member every gossip round; observing
	// it advance is the liveness evidence failure detection feeds on.
	Heartbeat uint64
	// Status is the rumoured liveness state.
	Status Status
}

// supersedes reports whether record a beats record b for the same
// member under the merge rules: higher incarnation wins outright;
// within one incarnation a more severe status wins; within one status
// a higher heartbeat is newer.
func supersedes(a, b Member) bool {
	if a.Incarnation != b.Incarnation {
		return a.Incarnation > b.Incarnation
	}
	if a.Status != b.Status {
		return a.Status > b.Status
	}
	return a.Heartbeat > b.Heartbeat
}

// encodeState serialises a member table for an opGossip body:
// uint16 count, then per member length-prefixed ID and Addr plus the
// fixed fields, everything big endian.
func encodeState(ms []Member) []byte {
	size := 2
	for _, m := range ms {
		size += 2 + len(m.ID) + 2 + len(m.Addr) + 8 + 8 + 1
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint16(out, uint16(len(ms)))
	for _, m := range ms {
		out = binary.BigEndian.AppendUint16(out, uint16(len(m.ID)))
		out = append(out, m.ID...)
		out = binary.BigEndian.AppendUint16(out, uint16(len(m.Addr)))
		out = append(out, m.Addr...)
		out = binary.BigEndian.AppendUint64(out, m.Incarnation)
		out = binary.BigEndian.AppendUint64(out, m.Heartbeat)
		out = append(out, byte(m.Status))
	}
	return out
}

// decodeState parses an opGossip body.
func decodeState(b []byte) ([]Member, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("membership: truncated state (%d bytes)", len(b))
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	ms := make([]Member, 0, n)
	str := func() (string, error) {
		if len(b) < 2 {
			return "", fmt.Errorf("membership: truncated state")
		}
		l := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < l {
			return "", fmt.Errorf("membership: truncated state")
		}
		s := string(b[:l])
		b = b[l:]
		return s, nil
	}
	for i := 0; i < n; i++ {
		var m Member
		var err error
		if m.ID, err = str(); err != nil {
			return nil, err
		}
		if m.Addr, err = str(); err != nil {
			return nil, err
		}
		if len(b) < 17 {
			return nil, fmt.Errorf("membership: truncated state")
		}
		m.Incarnation = binary.BigEndian.Uint64(b)
		m.Heartbeat = binary.BigEndian.Uint64(b[8:])
		m.Status = Status(b[16])
		if m.Status > StatusDead {
			return nil, fmt.Errorf("membership: unknown status %d", b[16])
		}
		b = b[17:]
		if m.ID == "" {
			return nil, fmt.Errorf("membership: member with empty ID")
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// ringKey canonicalises a ring-member set for change detection.
func ringKey(ids []string) string {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	key := ""
	for _, id := range sorted {
		key += id + "\x00"
	}
	return key
}
