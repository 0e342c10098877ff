package core

import (
	"sort"
	"strings"
	"sync"
)

// Hierarchy is a navigable tree over the sensor topic space. Collect
// Agents and the Grafana data source use it to let users browse levels
// (room, system, rack, chassis, node, CPU, …) and enumerate the sensors
// below any subtree (paper §5.4). It is safe for concurrent use.
type Hierarchy struct {
	mu   sync.RWMutex
	root *hnode
}

type hnode struct {
	children map[string]*hnode // nil until the node gets a child
	sensor   bool              // a full topic terminates here
}

// NewHierarchy returns an empty hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{root: &hnode{}}
}

// Add inserts a sensor topic into the tree. The Collect Agent calls it
// on a topic's first stored reading.
func (h *Hierarchy) Add(topic string) error {
	parts, err := ParseTopic(topic)
	if err != nil {
		return err
	}
	h.AddParts(parts)
	return nil
}

// AddParts inserts a sensor given as its topic's components, already
// valid: ParseTopic's result, or TopicMapper.ReverseParts'.
func (h *Hierarchy) AddParts(parts []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.root
	for _, p := range parts {
		c := n.children[p]
		if c == nil {
			if n.children == nil {
				n.children = make(map[string]*hnode)
			}
			c = &hnode{}
			n.children[p] = c
		}
		n = c
	}
	n.sensor = true
}

// Children lists the component names directly below the given path
// ("" or "/" for the root), sorted alphabetically.
func (h *Hierarchy) Children(path string) []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := h.navigate(path)
	if n == nil {
		return nil
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Sensors returns all sensor topics below the given path (inclusive),
// sorted. An empty path returns every known sensor.
func (h *Hierarchy) Sensors(path string) []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := h.navigate(path)
	if n == nil {
		return nil
	}
	prefix := "/" + strings.Trim(strings.TrimPrefix(path, "/"), "/")
	if prefix == "/" {
		prefix = ""
	}
	var out []string
	collect(n, prefix, &out)
	sort.Strings(out)
	return out
}

func collect(n *hnode, prefix string, out *[]string) {
	if n.sensor {
		*out = append(*out, prefix)
	}
	for name, c := range n.children {
		collect(c, prefix+"/"+name, out)
	}
}

func (h *Hierarchy) navigate(path string) *hnode {
	n := h.root
	p := strings.Trim(strings.TrimPrefix(path, "/"), "/")
	if p == "" {
		return n
	}
	for _, part := range strings.Split(p, "/") {
		c, ok := n.children[part]
		if !ok {
			return nil
		}
		n = c
	}
	return n
}
