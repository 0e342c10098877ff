package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// SensorID is the 128-bit numerical key under which a sensor's readings
// are stored in a Storage Backend. Collect Agents translate each MQTT
// topic into a unique SID (paper §4.2): the topic is split into its
// hierarchical components and each component is mapped to a numeric code
// stored in a 16-bit field of the SID, most significant field first.
// The hierarchical layout makes SID prefixes meaningful: all sensors
// below one subtree share a numeric prefix, which the Storage Backend
// exploits as partition key (paper §4.3).
type SensorID struct {
	Hi, Lo uint64
}

// Level extracts the 16-bit code of hierarchy level i (0 = root).
func (s SensorID) Level(i int) uint16 {
	switch {
	case i < 0 || i >= MaxTopicLevels:
		return 0
	case i < 4:
		return uint16(s.Hi >> (48 - 16*uint(i)))
	default:
		return uint16(s.Lo >> (48 - 16*uint(i-4)))
	}
}

// WithLevel returns a copy of the SID with hierarchy level i set to code.
func (s SensorID) WithLevel(i int, code uint16) SensorID {
	if i < 0 || i >= MaxTopicLevels {
		return s
	}
	if i < 4 {
		shift := 48 - 16*uint(i)
		s.Hi = s.Hi&^(0xffff<<shift) | uint64(code)<<shift
	} else {
		shift := 48 - 16*uint(i-4)
		s.Lo = s.Lo&^(0xffff<<shift) | uint64(code)<<shift
	}
	return s
}

// Prefix zeroes all levels at depth >= n, yielding the partition prefix
// of the sensor's subtree at depth n.
func (s SensorID) Prefix(n int) SensorID {
	switch {
	case n <= 0:
		return SensorID{}
	case n >= MaxTopicLevels:
		return s
	case n <= 4:
		shift := uint(64 - 16*n)
		if shift == 64 {
			return SensorID{Hi: s.Hi}
		}
		return SensorID{Hi: s.Hi >> shift << shift}
	default:
		shift := uint(64 - 16*(n-4))
		return SensorID{Hi: s.Hi, Lo: s.Lo >> shift << shift}
	}
}

// Compare orders SIDs lexicographically (Hi first). It returns -1, 0 or 1.
func (s SensorID) Compare(o SensorID) int {
	switch {
	case s.Hi < o.Hi:
		return -1
	case s.Hi > o.Hi:
		return 1
	case s.Lo < o.Lo:
		return -1
	case s.Lo > o.Lo:
		return 1
	}
	return 0
}

// String renders the SID as 32 hex digits.
func (s SensorID) String() string { return fmt.Sprintf("%016x%016x", s.Hi, s.Lo) }

// TopicMapper maintains the 1:1 mapping between MQTT topics and SIDs.
// Each hierarchy level owns a dictionary assigning dense 16-bit codes to
// the component strings observed at that level, so the mapping is
// collision-free and reversible. Collect Agents share one mapper; its
// state can be exported/imported so that SIDs stay stable across
// restarts.
//
// The mapper is read-mostly: after a sensor's first message every
// component is already in the dictionaries, and a Collect Agent
// translates a topic on every MQTT PUBLISH. The dictionaries are
// therefore kept in an immutable copy-on-write snapshot — readers (Map
// of a known topic, Lookup, Reverse, Export) follow one atomic pointer
// and never write shared state, so translation scales linearly with
// cores. Writers (first sight of a component, Import) serialize on a
// mutex, clone the level dictionaries they modify and atomically
// publish a new snapshot.
type TopicMapper struct {
	wmu  sync.Mutex // serializes writers; readers only load snap
	snap atomic.Pointer[mapperState]
}

// mapperState is an immutable snapshot of the level dictionaries.
// Published states are never mutated.
type mapperState struct {
	levels [MaxTopicLevels]levelDict
}

type levelDict struct {
	codes map[string]uint16
	names []string // code-1 -> component (code 0 is reserved for "absent")
}

// resolve translates already-parsed components against this snapshot.
func (st *mapperState) resolve(parts []string) (SensorID, bool) {
	var id SensorID
	for i, p := range parts {
		code, ok := st.levels[i].codes[p]
		if !ok {
			return SensorID{}, false
		}
		id = id.WithLevel(i, code)
	}
	return id, true
}

// cloneLevel returns a private copy of one level dictionary with room
// for one more component.
func cloneLevel(d levelDict) levelDict {
	codes := make(map[string]uint16, len(d.codes)+1)
	for k, v := range d.codes {
		codes[k] = v
	}
	names := make([]string, len(d.names), len(d.names)+1)
	copy(names, d.names)
	return levelDict{codes: codes, names: names}
}

// NewTopicMapper returns an empty mapper.
func NewTopicMapper() *TopicMapper {
	m := &TopicMapper{}
	st := &mapperState{}
	for i := range st.levels {
		st.levels[i].codes = make(map[string]uint16)
	}
	m.snap.Store(st)
	return m
}

// Map translates a topic to its SID, assigning new level codes on first
// sight. It fails if a level dictionary is exhausted (65535 distinct
// components) or the topic is malformed. Nothing is published on
// failure.
func (m *TopicMapper) Map(topic string) (SensorID, error) {
	id, _, err := m.MapFirst(topic)
	return id, err
}

// MapFirst is Map, additionally reporting whether the call assigned a
// new level CODE — whether the dictionary grew. That is not "this topic
// is new": a topic never seen before whose components all have codes
// already (a known sensor name under a known node) maps without one, so
// 20 000 new topics of a regular hierarchy report first a few dozen
// times. It is exactly what a consumer persisting the dictionary (a
// durable Collect Agent) needs: the saved map is stale when, and only
// when, first is true.
func (m *TopicMapper) MapFirst(topic string) (SensorID, bool, error) {
	parts, err := ParseTopic(topic)
	if err != nil {
		return SensorID{}, false, err
	}
	if id, ok := m.snap.Load().resolve(parts); ok {
		return id, false, nil
	}
	// First sight of at least one component: clone, assign, publish.
	m.wmu.Lock()
	defer m.wmu.Unlock()
	st := m.snap.Load()
	if id, ok := st.resolve(parts); ok {
		// Assigned by another writer while we waited for the lock.
		return id, false, nil
	}
	ns := *st // shares unmodified level dictionaries
	var cloned [MaxTopicLevels]bool
	var id SensorID
	for i, p := range parts {
		d := &ns.levels[i]
		code, ok := d.codes[p]
		if !ok {
			if len(d.names) >= 0xffff {
				return SensorID{}, false, fmt.Errorf("core: level %d dictionary exhausted", i)
			}
			if !cloned[i] {
				*d = cloneLevel(*d)
				cloned[i] = true
			}
			d.names = append(d.names, p)
			code = uint16(len(d.names)) // codes start at 1
			d.codes[p] = code
		}
		id = id.WithLevel(i, code)
	}
	m.snap.Store(&ns)
	return id, true, nil
}

// Lookup translates a topic without assigning new codes. The boolean is
// false when any component is unknown.
func (m *TopicMapper) Lookup(topic string) (SensorID, bool) {
	parts, err := ParseTopic(topic)
	if err != nil {
		return SensorID{}, false
	}
	return m.snap.Load().resolve(parts)
}

// ReverseParts reconstructs the components of a SID's topic, appended
// to parts. They are the dictionaries' own strings: nothing is
// allocated beyond growing parts. The boolean is false when the SID
// contains codes the mapper never assigned.
func (m *TopicMapper) ReverseParts(id SensorID, parts []string) ([]string, bool) {
	st := m.snap.Load()
	n := len(parts)
	for i := 0; i < MaxTopicLevels; i++ {
		code := id.Level(i)
		if code == 0 {
			break
		}
		d := &st.levels[i]
		// An Import may leave a code unbound (""): never assigned.
		if int(code) > len(d.names) || d.names[code-1] == "" {
			return parts[:n], false
		}
		parts = append(parts, d.names[code-1])
	}
	return parts, len(parts) > n
}

// Export returns a stable snapshot of the dictionaries as
// "level/component code" lines, sorted for reproducibility.
func (m *TopicMapper) Export() []string {
	st := m.snap.Load()
	var out []string
	for i := range st.levels {
		for name, code := range st.levels[i].codes {
			out = append(out, fmt.Sprintf("%d/%s %d", i, name, code))
		}
	}
	sort.Strings(out)
	return out
}

// Lens returns the length of each level dictionary, which is also its
// highest code: codes are dense and start at 1.
func (m *TopicMapper) Lens() (lens [MaxTopicLevels]uint16) {
	st := m.snap.Load()
	for i := range st.levels {
		lens[i] = uint16(len(st.levels[i].names))
	}
	return lens
}

// AppendExport appends Export's lines, each with its newline, for the
// codes above since at each level, and returns the lengths they reach:
// one snapshot's growth beyond an earlier Lens or AppendExport, in code
// order, at a cost that follows the growth, not the dictionaries.
func (m *TopicMapper) AppendExport(b []byte, since [MaxTopicLevels]uint16) ([]byte, [MaxTopicLevels]uint16) {
	st := m.snap.Load()
	for i := range st.levels {
		names := st.levels[i].names
		for code := int(since[i]) + 1; code <= len(names); code++ {
			if names[code-1] == "" {
				continue // left unbound by an Import
			}
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, '/')
			b = append(b, names[code-1]...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(code), 10)
			b = append(b, '\n')
		}
		since[i] = max(since[i], uint16(len(names)))
	}
	return b, since
}

// Import loads dictionary entries produced by Export. Entries must not
// conflict with codes already assigned. The import is atomic: on error
// no entry is applied.
func (m *TopicMapper) Import(lines []string) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	st := m.snap.Load()
	ns := *st
	var cloned [MaxTopicLevels]bool
	for _, ln := range lines {
		slash := strings.IndexByte(ln, '/')
		if slash < 0 {
			return fmt.Errorf("core: bad mapper line %q", ln)
		}
		var lvl int
		if _, err := fmt.Sscanf(ln[:slash], "%d", &lvl); err != nil {
			return fmt.Errorf("core: bad mapper line %q: %w", ln, err)
		}
		rest := ln[slash+1:]
		sp := strings.LastIndexByte(rest, ' ')
		if sp <= 0 {
			return fmt.Errorf("core: bad mapper line %q", ln)
		}
		name := rest[:sp]
		var code uint16
		if _, err := fmt.Sscanf(rest[sp+1:], "%d", &code); err != nil || code == 0 {
			return fmt.Errorf("core: bad code in mapper line %q", ln)
		}
		if lvl < 0 || lvl >= MaxTopicLevels {
			return fmt.Errorf("core: bad level in mapper line %q", ln)
		}
		d := &ns.levels[lvl]
		if have, ok := d.codes[name]; ok && have != code {
			return fmt.Errorf("core: conflicting code for %d/%s", lvl, name)
		}
		if !cloned[lvl] {
			*d = cloneLevel(*d)
			cloned[lvl] = true
		}
		for int(code) > len(d.names) {
			d.names = append(d.names, "")
		}
		if cur := d.names[code-1]; cur != "" && cur != name {
			return fmt.Errorf("core: code %d at level %d already bound to %q", code, lvl, cur)
		}
		d.names[code-1] = name
		d.codes[name] = code
	}
	m.snap.Store(&ns)
	return nil
}
