package vsensor

import (
	"fmt"
	"io"

	"dcdb/internal/core"
	"dcdb/internal/units"
)

// Evaluation: operand series are converted to the base unit of their
// dimension, aligned on the union of their timestamps, and gaps are
// bridged by linear interpolation between neighbours, clamping beyond
// the ends — the comparability machinery of paper challenge (2). The
// result carries one reading per timestamp in the union.
//
// The evaluation streams: each operand column keeps its previous and
// next reading, and the output advances along the merged union of the
// columns' timestamps, so evaluating a virtual sensor over a month
// holds O(operands) readings plus one input chunk per operand, not the
// operand windows. A wildcard is a nested inner sum stream emitting at
// the union stamps of its matches, which feeds the outer evaluation
// through a regular column.
//
// stream_test.go keeps a materialised reference evaluator (operand
// windows in memory, a binary search per stamp) as the oracle: the
// stream is bit-identical to it (same per-reading affine unit map, same
// interpolation expression, same endpoint clamping, same two-stage
// wildcard sum) and reports the same open-time errors, string for
// string.

// Stream delivers a time-ordered series in bounded chunks; it is
// structurally identical to store.ReadingStream (Next returns io.EOF
// after the last chunk; Close releases the producer and may be called
// early).
type Stream interface {
	Next() ([]core.Reading, error)
	Close() error
}

// StreamSource supplies operand streams to the evaluator. libDCDB
// implements it on top of the Storage Backend; tests use in-memory
// fakes. Expand lists the sensors below a hierarchy prefix for
// wildcard references.
type StreamSource interface {
	// Stream opens the series of a sensor in [from, to] together with
	// its unit ("" when unknown).
	Stream(topic string, from, to int64) (Stream, string, error)
	// Expand lists the full topics of all sensors below prefix.
	Expand(prefix string) ([]string, error)
}

// streamChunkReadings bounds one output chunk, matching the store
// layer's stream chunking.
const streamChunkReadings = 4096

// EvaluateStream computes the expression over [from, to] as a stream.
// Every operand is opened and checked here — a referenced sensor with
// no data in the period, a wildcard matching no sensors and a wildcard
// whose matches are all empty are errors — so a successful return
// means the stream will deliver the full result. A pure-constant
// expression yields one reading at from. The returned stream must be
// closed.
func EvaluateStream(e *Expr, src StreamSource, from, to int64) (Stream, error) {
	ev := &evalStream{expr: e}
	ok := false
	defer func() {
		if !ok {
			ev.Close()
		}
	}()
	for _, ref := range e.Refs() {
		if prefix, isWild := cutWildcard(ref); isWild {
			topics, err := src.Expand(prefix)
			if err != nil {
				return nil, fmt.Errorf("vsensor: expanding %q: %w", ref, err)
			}
			if len(topics) == 0 {
				return nil, fmt.Errorf("vsensor: wildcard %q matches no sensors", ref)
			}
			sum, err := openSumStream(src, topics, from, to)
			if err != nil {
				return nil, err
			}
			col := newColumn(sum, "")
			if err := col.prime(); err != nil {
				col.close()
				return nil, err
			}
			ev.cols = append(ev.cols, col)
			ev.keys = append(ev.keys, ref)
			continue
		}
		st, unit, err := src.Stream(ref, from, to)
		if err != nil {
			return nil, fmt.Errorf("vsensor: reading %q: %w", ref, err)
		}
		col := newColumn(st, unit)
		if err := col.prime(); err != nil {
			col.close()
			return nil, err
		}
		if col.empty() {
			col.close()
			return nil, fmt.Errorf("vsensor: sensor %q has no data in the queried period", ref)
		}
		ev.cols = append(ev.cols, col)
		ev.keys = append(ev.keys, ref)
	}
	if len(ev.cols) == 0 {
		ev.constant = true
		ev.constTS = from
	}
	ev.env = make(map[string]float64, len(ev.cols))
	ok = true
	return ev, nil
}

func cutWildcard(ref string) (string, bool) {
	if len(ref) > 2 && ref[len(ref)-2:] == "/*" {
		return ref[:len(ref)-2], true
	}
	return ref, false
}

// column tracks one operand series with a single reading of lookahead:
// prev is the last reading at or before the output cursor, head the
// next one after it. Unit conversion to base units happens as readings
// are pulled, reading by reading.
type column struct {
	st     Stream
	factor float64
	offset float64

	buf []core.Reading
	i   int

	prev   core.Reading
	have   bool // prev is valid (at least one reading consumed)
	head   core.Reading
	headOK bool
}

func newColumn(st Stream, unit string) *column {
	c := &column{st: st, factor: 1}
	if u, ok := units.Lookup(unit); ok {
		c.factor, c.offset = u.Factor, u.Offset
	}
	return c
}

func (c *column) convert(r core.Reading) core.Reading {
	if c.factor == 1 && c.offset == 0 {
		return r
	}
	return core.Reading{Timestamp: r.Timestamp, Value: r.Value*c.factor + c.offset}
}

// prime fetches until the first reading is visible (or the stream ends
// empty), so emptiness is known at open.
func (c *column) prime() error {
	for c.i >= len(c.buf) {
		chunk, err := c.st.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		c.buf, c.i = chunk, 0
	}
	c.head = c.convert(c.buf[c.i])
	c.headOK = true
	return nil
}

func (c *column) empty() bool { return !c.headOK && !c.have }

// advance moves head into prev and pulls the next reading.
func (c *column) advance() error {
	c.prev, c.have = c.head, true
	c.i++
	for c.i >= len(c.buf) {
		chunk, err := c.st.Next()
		if err == io.EOF {
			c.headOK = false
			return nil
		}
		if err != nil {
			return err
		}
		c.buf, c.i = chunk, 0
	}
	c.head = c.convert(c.buf[c.i])
	return nil
}

// at returns the column's value at ts: the first reading at ts when one
// exists, endpoint clamping beyond the ends, linear interpolation
// between the neighbours otherwise. Readings at ts are consumed (prev
// ends on the last reading at ts, so a later stamp interpolates from
// the last of a run of duplicates).
func (c *column) at(ts int64) (float64, error) {
	for c.headOK && c.head.Timestamp < ts {
		if err := c.advance(); err != nil {
			return 0, err
		}
	}
	if c.headOK && c.head.Timestamp == ts {
		v := c.head.Value
		for c.headOK && c.head.Timestamp == ts {
			if err := c.advance(); err != nil {
				return 0, err
			}
		}
		return v, nil
	}
	if !c.have {
		return c.head.Value, nil // before the first reading: clamp
	}
	if !c.headOK {
		return c.prev.Value, nil // after the last reading: clamp
	}
	a, b := c.prev, c.head
	frac := float64(ts-a.Timestamp) / float64(b.Timestamp-a.Timestamp)
	return a.Value + frac*(b.Value-a.Value), nil
}

// peek reports the column's next unconsumed timestamp.
func (c *column) peek() (int64, bool) {
	return c.head.Timestamp, c.headOK
}

func (c *column) close() {
	if c.st != nil {
		c.st.Close()
	}
}

// evalStream merges its operand columns and evaluates the expression
// at each union timestamp.
type evalStream struct {
	expr *Expr
	cols []*column
	keys []string
	env  map[string]float64

	constant bool // pure-constant expression
	constTS  int64
	done     bool
}

func (ev *evalStream) Next() ([]core.Reading, error) {
	if ev.done {
		return nil, io.EOF
	}
	if ev.constant {
		ev.done = true
		return []core.Reading{{Timestamp: ev.constTS, Value: ev.expr.root.eval(nil)}}, nil
	}
	out := make([]core.Reading, 0, streamChunkReadings)
	for len(out) < streamChunkReadings {
		ts, ok := ev.nextStamp()
		if !ok {
			break
		}
		for i, col := range ev.cols {
			v, err := col.at(ts)
			if err != nil {
				ev.Close()
				return nil, err
			}
			ev.env[ev.keys[i]] = v
		}
		out = append(out, core.Reading{Timestamp: ts, Value: ev.expr.root.eval(ev.env)})
	}
	if len(out) == 0 {
		ev.done = true
		return nil, io.EOF
	}
	return out, nil
}

// nextStamp is the smallest unconsumed timestamp across the columns —
// the next element of the union timebase.
func (ev *evalStream) nextStamp() (int64, bool) {
	var min int64
	found := false
	for _, col := range ev.cols {
		if ts, ok := col.peek(); ok && (!found || ts < min) {
			min, found = ts, true
		}
	}
	return min, found
}

func (ev *evalStream) Close() error {
	ev.done = true
	for _, col := range ev.cols {
		col.close()
	}
	return nil
}

// sumStream evaluates a wildcard reference: the per-timestamp sum of
// the matched sensors, each in base units and interpolated onto the
// union of their timestamps.
type sumStream struct {
	cols []*column
	done bool
}

// openSumStream opens one column per matched topic, dropping sensors
// with no data in the period and erroring when none remain.
func openSumStream(src StreamSource, topics []string, from, to int64) (Stream, error) {
	ss := &sumStream{}
	ok := false
	defer func() {
		if !ok {
			ss.Close()
		}
	}()
	for _, tp := range topics {
		st, unit, err := src.Stream(tp, from, to)
		if err != nil {
			return nil, fmt.Errorf("vsensor: reading %q: %w", tp, err)
		}
		col := newColumn(st, unit)
		if err := col.prime(); err != nil {
			col.close()
			return nil, err
		}
		if col.empty() {
			col.close()
			continue
		}
		ss.cols = append(ss.cols, col)
	}
	if len(ss.cols) == 0 {
		return nil, fmt.Errorf("vsensor: no data below wildcard prefix")
	}
	ok = true
	return ss, nil
}

func (ss *sumStream) Next() ([]core.Reading, error) {
	if ss.done {
		return nil, io.EOF
	}
	out := make([]core.Reading, 0, streamChunkReadings)
	for len(out) < streamChunkReadings {
		var min int64
		found := false
		for _, col := range ss.cols {
			if ts, ok := col.peek(); ok && (!found || ts < min) {
				min, found = ts, true
			}
		}
		if !found {
			break
		}
		var sum float64
		for _, col := range ss.cols {
			v, err := col.at(min)
			if err != nil {
				ss.Close()
				return nil, err
			}
			sum += v
		}
		out = append(out, core.Reading{Timestamp: min, Value: sum})
	}
	if len(out) == 0 {
		ss.done = true
		return nil, io.EOF
	}
	return out, nil
}

func (ss *sumStream) Close() error {
	ss.done = true
	for _, col := range ss.cols {
		col.close()
	}
	return nil
}
