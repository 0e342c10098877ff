package store

import (
	"fmt"
	"io"

	"dcdb/internal/core"
	"dcdb/internal/fold"
)

// Aggregation pushdown: instead of streaming a long retention's
// readings to the coordinator, an analysis fold (summary, integral,
// downsample — see internal/fold) runs where the data lives and only
// the finished state crosses the wire. On a storage node the fold
// consumes the pull-based stream read path, so cold blocks are
// decoded one at a time and the node's memory per aggregate is one
// chunk plus the fold state, independent of the range length.

// FoldStream folds an entire ReadingStream into st, closing the
// stream. It is the one canonical way a fold consumes a stream —
// node-side pushdown, the cluster's divergence fallback and the
// client-side libdcdb analysis layer all run readings through this
// loop, which is what keeps their results bit-identical.
func FoldStream(st fold.State, rs ReadingStream) error {
	defer rs.Close()
	for {
		chunk, err := rs.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		st.Add(chunk)
	}
}

// foldRead folds a backend's own QueryStream over the spec's range — an
// Aggregate wherever the fold cannot be pushed further down.
func foldRead(b Backend, id core.SensorID, spec fold.Spec) (fold.State, error) {
	st, err := fold.New(spec)
	if err != nil {
		return nil, err
	}
	rs, err := b.QueryStream(id, spec.From, spec.To)
	if err != nil {
		return nil, err
	}
	if err := FoldStream(st, rs); err != nil {
		return nil, err
	}
	return st, nil
}

// Aggregate implements Backend: the fold runs over the node's read path
// (memtable shards merged with cold runs via the pull iterator),
// holding one chunk at a time.
func (n *Node) Aggregate(id core.SensorID, spec fold.Spec) (fold.State, error) {
	return foldRead(n, id, spec)
}

// Aggregate implements Backend for the cluster: the fold is pushed
// down to the sensor's replicas at the configured read consistency.
//
// At ONE the first replica that answers supplies the state — the same
// availability-over-freshness trade a ONE read makes.
//
// At QUORUM every replica folds its own copy and ships one state; the
// coordinator requires a quorum of answers and compares the states'
// fingerprints. Converged replicas (the steady state) agree and the
// answer ships O(1) bytes per replica. Divergent replicas cannot be
// reconciled from aggregate states alone — a count of a union is not
// the sum of counts — so the coordinator falls back to folding its own
// QueryStream: the one QUORUM read, so the fold sees exactly the
// readings Query would return (conflicts settled by write version),
// still bounded to one chunk of coordinator memory, and its read repair
// converges the replicas so the next pushdown takes the cheap path
// again.
func (c *Cluster) Aggregate(id core.SensorID, spec fold.Spec) (fold.State, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := c.top()
	replicas := c.readReplicas(t, id)
	required := c.readCL.required(len(replicas))
	if required == 1 {
		var lastErr error
		for _, idx := range replicas {
			st, err := t.members[idx].backend.Aggregate(id, spec)
			if err == nil {
				return st, nil
			}
			lastErr = err
		}
		return nil, fmt.Errorf("store: all replicas failed: %w", lastErr)
	}
	states := make([]fold.State, len(replicas))
	errs := c.fanOut(replicas, func(i, idx int) (err error) {
		states[i], err = t.members[idx].backend.Aggregate(id, spec)
		return err
	})
	ok := 0
	var lastErr error
	var first fold.State
	agree := true
	for i := range states {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		ok++
		if first == nil {
			first = states[i]
		} else if states[i].Fingerprint() != first.Fingerprint() ||
			states[i].Count() != first.Count() {
			agree = false
		}
	}
	if ok < required {
		return nil, fmt.Errorf("store: read consistency %s not met (%d/%d replicas): %w",
			c.readCL, ok, required, lastErr)
	}
	if agree {
		c.met.aggConsensus.Inc()
		return first, nil
	}
	// Divergence fallback: exact fold over the QUORUM read (which
	// repairs the replicas as a side effect).
	c.met.aggFallback.Inc()
	return foldRead(c, id, spec)
}
