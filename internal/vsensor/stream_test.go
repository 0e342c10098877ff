package vsensor

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/units"
)

// dualSource serves the same data to the evaluator (StreamSource) and
// to the reference model below (source), with deterministic (sorted)
// wildcard expansion, so the two see identical inputs in identical
// order. chunk controls the stream chunk size, letting
// tests sweep chunk boundaries across readings.
type dualSource struct {
	data  map[string][]core.Reading
	units map[string]string
	chunk int
}

func (f *dualSource) window(topic string, from, to int64) ([]core.Reading, error) {
	rs, ok := f.data[topic]
	if !ok {
		return nil, fmt.Errorf("unknown sensor %q", topic)
	}
	var out []core.Reading
	for _, r := range rs {
		if r.Timestamp >= from && r.Timestamp <= to {
			out = append(out, r)
		}
	}
	return out, nil
}

func (f *dualSource) Readings(topic string, from, to int64) ([]core.Reading, string, error) {
	rs, err := f.window(topic, from, to)
	if err != nil {
		return nil, "", err
	}
	return rs, f.units[topic], nil
}

func (f *dualSource) Stream(topic string, from, to int64) (Stream, string, error) {
	rs, err := f.window(topic, from, to)
	if err != nil {
		return nil, "", err
	}
	return &chunkedStream{rs: rs, chunk: f.chunk}, f.units[topic], nil
}

func (f *dualSource) Expand(prefix string) ([]string, error) {
	var out []string
	for t := range f.data {
		if strings.HasPrefix(t, prefix+"/") {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out, nil
}

type chunkedStream struct {
	rs     []core.Reading
	chunk  int
	closed bool
}

func (s *chunkedStream) Next() ([]core.Reading, error) {
	if len(s.rs) == 0 {
		return nil, io.EOF
	}
	n := s.chunk
	if n <= 0 || n > len(s.rs) {
		n = len(s.rs)
	}
	out := s.rs[:n]
	s.rs = s.rs[n:]
	return out, nil
}

func (s *chunkedStream) Close() error { s.closed = true; return nil }

func drain(t *testing.T, st Stream) []core.Reading {
	t.Helper()
	defer st.Close()
	var out []core.Reading
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		out = append(out, chunk...)
	}
}

func sameSeries(a, b []core.Reading) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Timestamp != b[i].Timestamp ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// TestEvaluateStreamMatchesEvaluate: the evaluator must be
// bit-identical to the materialised reference model — same union
// timebase, same interpolation, same unit conversion, same wildcard
// sum — across misaligned series, duplicate timestamps and every
// chunking.
func TestEvaluateStreamMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	exprs := []string{
		"</a/one>",
		"</a/one> + </a/two>",
		"2 * </a/one> - </a/two> / 4",
		"</w/*> + 1",
		"</a/one> * </w/*>",
	}
	for trial := 0; trial < 60; trial++ {
		src := &dualSource{
			data: map[string][]core.Reading{
				"/a/one": randSeries(rng, 1+rng.Intn(40)),
				"/a/two": randSeries(rng, 1+rng.Intn(40)),
				"/w/p":   randSeries(rng, 1+rng.Intn(40)),
				"/w/q":   randSeries(rng, 1+rng.Intn(40)),
			},
			units: map[string]string{"/a/two": "mW", "/w/q": "kW"},
		}
		for _, es := range exprs {
			e, err := Parse(es)
			if err != nil {
				t.Fatal(err)
			}
			want, err := evaluate(e, src, 0, 1<<50)
			if err != nil {
				t.Fatalf("evaluate(%q): %v", es, err)
			}
			for _, chunk := range []int{1, 3, 4096} {
				src.chunk = chunk
				st, err := EvaluateStream(e, src, 0, 1<<50)
				if err != nil {
					t.Fatalf("EvaluateStream(%q, chunk %d): %v", es, chunk, err)
				}
				got := drain(t, st)
				if !sameSeries(want, got) {
					t.Fatalf("trial %d %q chunk %d: stream diverges from materialized\nwant %v\ngot  %v",
						trial, es, chunk, want, got)
				}
			}
		}
	}
}

func randSeries(rng *rand.Rand, n int) []core.Reading {
	rs := make([]core.Reading, 0, n)
	ts := int64(rng.Intn(1000))
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(8) != 0 {
			ts += int64(rng.Intn(2000)) + 1
		} // else duplicate timestamp
		rs = append(rs, core.Reading{Timestamp: ts, Value: rng.NormFloat64() * 50})
	}
	return rs
}

// TestEvaluateStreamErrorParity: the open-time errors must match the
// reference model's, string for string.
func TestEvaluateStreamErrorParity(t *testing.T) {
	src := &dualSource{
		data: map[string][]core.Reading{
			"/a/one":   series(1, 2, 3),
			"/a/empty": nil,
			"/w/empty": nil,
		},
		units: map[string]string{},
	}
	cases := []string{
		"</a/empty>",  // referenced sensor with no data
		"</nosuch/*>", // wildcard matching nothing
		"</w/*>",      // wildcard whose matches are all empty
		"</a/one> + </a/empty>",
	}
	for _, es := range cases {
		e, err := Parse(es)
		if err != nil {
			t.Fatal(err)
		}
		_, wantErr := evaluate(e, src, 0, 1<<50)
		if wantErr == nil {
			t.Fatalf("evaluate(%q) unexpectedly succeeded", es)
		}
		_, gotErr := EvaluateStream(e, src, 0, 1<<50)
		if gotErr == nil {
			t.Fatalf("EvaluateStream(%q) unexpectedly succeeded", es)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("error parity for %q:\nmaterialized: %v\nstreamed:     %v", es, wantErr, gotErr)
		}
	}
}

// TestEvaluateStreamConstant: a pure-constant expression emits one
// reading at the period start.
func TestEvaluateStreamConstant(t *testing.T) {
	e, err := Parse("2*21")
	if err != nil {
		t.Fatal(err)
	}
	src := &dualSource{data: map[string][]core.Reading{}, units: map[string]string{}}
	st, err := EvaluateStream(e, src, 12345, 99999)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, st)
	if len(got) != 1 || got[0].Timestamp != 12345 || got[0].Value != 42 {
		t.Fatalf("constant stream = %v, want [(12345, 42)]", got)
	}
}

// TestEvaluateStreamClosesOperands: closing the evaluation stream (or
// failing at open) must close every operand stream it opened.
func TestEvaluateStreamClosesOperands(t *testing.T) {
	opened := []*chunkedStream{}
	src := &trackingSource{
		dual: &dualSource{
			data: map[string][]core.Reading{
				"/a/one": series(1, 2),
				"/a/two": series(3, 4),
			},
			units: map[string]string{},
		},
		opened: &opened,
	}
	e, err := Parse("</a/one> + </a/two>")
	if err != nil {
		t.Fatal(err)
	}
	st, err := EvaluateStream(e, src, 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	for i, cs := range opened {
		if !cs.closed {
			t.Fatalf("operand stream %d left open after Close", i)
		}
	}

	// Open failure path: the second operand is empty, so open errors —
	// the first operand's stream must still be closed.
	opened = opened[:0]
	src.dual.data["/a/two"] = nil
	if _, err := EvaluateStream(e, src, 0, 1<<50); err == nil {
		t.Fatal("expected open error")
	}
	for i, cs := range opened {
		if !cs.closed {
			t.Fatalf("operand stream %d leaked after failed open", i)
		}
	}
}

type trackingSource struct {
	dual   *dualSource
	opened *[]*chunkedStream
}

func (s *trackingSource) Stream(topic string, from, to int64) (Stream, string, error) {
	st, unit, err := s.dual.Stream(topic, from, to)
	if err != nil {
		return nil, "", err
	}
	cs := st.(*chunkedStream)
	*s.opened = append(*s.opened, cs)
	return cs, unit, nil
}

func (s *trackingSource) Expand(prefix string) ([]string, error) { return s.dual.Expand(prefix) }

// The reference model: the materialised evaluation the stream must
// match bit for bit. It holds every operand window in memory, builds
// the union timebase with a map and a sort, and interpolates each
// stamp with a binary search — the simplest statement of the
// semantics, kept here as the oracle like the store's merge model.

// source supplies materialised operand series to the reference model.
type source interface {
	// Readings returns the series of a sensor in [from, to] together
	// with its unit ("" when unknown).
	Readings(topic string, from, to int64) ([]core.Reading, string, error)
	// Expand lists the full topics of all sensors below prefix.
	Expand(prefix string) ([]string, error)
}

// evaluate computes the expression over [from, to]: operand series in
// base units, aligned on the union of their timestamps, gaps bridged by
// linear interpolation.
func evaluate(e *Expr, src source, from, to int64) ([]core.Reading, error) {
	type operand struct {
		key    string
		series []core.Reading
	}
	var ops []operand
	for _, ref := range e.Refs() {
		if prefix, ok := cutWildcard(ref); ok {
			topics, err := src.Expand(prefix)
			if err != nil {
				return nil, fmt.Errorf("vsensor: expanding %q: %w", ref, err)
			}
			if len(topics) == 0 {
				return nil, fmt.Errorf("vsensor: wildcard %q matches no sensors", ref)
			}
			sum, err := sumSeries(src, topics, from, to)
			if err != nil {
				return nil, err
			}
			ops = append(ops, operand{key: ref, series: sum})
			continue
		}
		rs, unit, err := src.Readings(ref, from, to)
		if err != nil {
			return nil, fmt.Errorf("vsensor: reading %q: %w", ref, err)
		}
		if len(rs) == 0 {
			return nil, fmt.Errorf("vsensor: sensor %q has no data in the queried period", ref)
		}
		ops = append(ops, operand{key: ref, series: toBase(rs, unit)})
	}
	if len(ops) == 0 {
		return []core.Reading{{Timestamp: from, Value: e.root.eval(nil)}}, nil
	}
	var all [][]core.Reading
	for _, op := range ops {
		all = append(all, op.series)
	}
	stamps := unionStamps(all)
	out := make([]core.Reading, len(stamps))
	env := make(map[string]float64, len(ops))
	for i, ts := range stamps {
		for _, op := range ops {
			env[op.key] = interpolate(op.series, ts)
		}
		out[i] = core.Reading{Timestamp: ts, Value: e.root.eval(env)}
	}
	return out, nil
}

// sumSeries evaluates a wildcard reference: the per-timestamp sum of all
// matched sensors, each converted to base units and interpolated onto
// the union of their timestamps.
func sumSeries(src source, topics []string, from, to int64) ([]core.Reading, error) {
	var series [][]core.Reading
	for _, tp := range topics {
		rs, unit, err := src.Readings(tp, from, to)
		if err != nil {
			return nil, fmt.Errorf("vsensor: reading %q: %w", tp, err)
		}
		if len(rs) > 0 {
			series = append(series, toBase(rs, unit))
		}
	}
	if len(series) == 0 {
		return nil, fmt.Errorf("vsensor: no data below wildcard prefix")
	}
	stamps := unionStamps(series)
	out := make([]core.Reading, len(stamps))
	for i, ts := range stamps {
		var sum float64
		for _, s := range series {
			sum += interpolate(s, ts)
		}
		out[i] = core.Reading{Timestamp: ts, Value: sum}
	}
	return out, nil
}

// unionStamps is the sorted set of timestamps across the series.
func unionStamps(series [][]core.Reading) []int64 {
	set := make(map[int64]struct{})
	for _, rs := range series {
		for _, r := range rs {
			set[r.Timestamp] = struct{}{}
		}
	}
	stamps := make([]int64, 0, len(set))
	for ts := range set {
		stamps = append(stamps, ts)
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i] < stamps[j] })
	return stamps
}

func toBase(rs []core.Reading, unit string) []core.Reading {
	u, ok := units.Lookup(unit)
	if !ok || (u.Factor == 1 && u.Offset == 0) {
		return rs
	}
	out := make([]core.Reading, len(rs))
	for i, r := range rs {
		out[i] = core.Reading{Timestamp: r.Timestamp, Value: r.Value*u.Factor + u.Offset}
	}
	return out
}

// interpolate returns the series value at ts using linear interpolation
// between the neighbouring readings, clamping beyond the ends. The
// series must be sorted by timestamp and non-empty.
func interpolate(rs []core.Reading, ts int64) float64 {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Timestamp >= ts })
	switch {
	case i < len(rs) && rs[i].Timestamp == ts:
		return rs[i].Value
	case i == 0:
		return rs[0].Value
	case i == len(rs):
		return rs[len(rs)-1].Value
	default:
		a, b := rs[i-1], rs[i]
		frac := float64(ts-a.Timestamp) / float64(b.Timestamp-a.Timestamp)
		return a.Value + frac*(b.Value-a.Value)
	}
}
