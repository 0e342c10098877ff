package libdcdb

import (
	"io"
	"math"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/store"
)

// --- Regression tests for the analysis-math bugs (satellites 1–3) ---

// TestSummarizeSkipsNonFinite: NaN/Inf readings must not poison the
// statistics; they are counted in Skipped and excluded from everything
// else.
func TestSummarizeSkipsNonFinite(t *testing.T) {
	rs := []core.Reading{
		{Timestamp: 1, Value: 2},
		{Timestamp: 2, Value: math.NaN()},
		{Timestamp: 3, Value: 6},
		{Timestamp: 4, Value: math.Inf(1)},
		{Timestamp: 5, Value: 4},
	}
	a, err := Summarize(rs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 3 || a.Skipped != 2 {
		t.Fatalf("Count/Skipped = %d/%d, want 3/2", a.Count, a.Skipped)
	}
	if a.Min != 2 || a.Max != 6 || a.Mean != 4 {
		t.Fatalf("Min/Max/Mean = %v/%v/%v", a.Min, a.Max, a.Mean)
	}
	if a.First.Timestamp != 1 || a.Last.Timestamp != 5 {
		t.Fatalf("First/Last = %v/%v (must be finite readings)", a.First, a.Last)
	}
	// All-NaN input is still an error, with the skips reported.
	bad := []core.Reading{{Timestamp: 1, Value: math.NaN()}}
	if a, err := Summarize(bad); err == nil || a.Skipped != 1 {
		t.Fatalf("all-NaN Summarize = %+v, %v", a, err)
	}
}

// TestIntegralGuards: duplicate timestamps and NaNs contribute no area
// instead of producing NaN or negative spikes.
func TestIntegralGuards(t *testing.T) {
	base := []core.Reading{
		{Timestamp: 0, Value: 100},
		{Timestamp: 2e9, Value: 100},
	}
	want := Integral(base) // 100 W for 2 s = 200 J
	if want != 200 {
		t.Fatalf("baseline integral = %v, want 200", want)
	}
	// A duplicate timestamp pair (dt == 0) adds nothing, and a
	// reordered reading (dt < 0) cannot subtract area.
	withDup := append(append([]core.Reading(nil), base...), core.Reading{Timestamp: 2e9, Value: 5000})
	if got := Integral(withDup); got != want {
		t.Fatalf("integral with duplicate timestamp = %v, want %v", got, want)
	}
	reordered := append(append([]core.Reading(nil), base...), core.Reading{Timestamp: 1e9, Value: 5000})
	if got := Integral(reordered); got != want {
		t.Fatalf("integral with reordered timestamp = %v, want %v", got, want)
	}
	// A NaN in the middle bridges the neighbours rather than poisoning.
	withNaN := []core.Reading{base[0], {Timestamp: 1e9, Value: math.NaN()}, base[1]}
	if got := Integral(withNaN); math.IsNaN(got) || got != want {
		t.Fatalf("integral with NaN = %v, want %v", got, want)
	}
	if Integral(nil) != 0 {
		t.Fatal("empty integral != 0")
	}
}

// TestDownsampleBounds: emitted timestamps must not run past the series
// end, and a zero-width series collapses to one averaged point instead
// of dividing by zero.
func TestDownsampleBounds(t *testing.T) {
	var rs []core.Reading
	for i := int64(0); i < 100; i++ {
		rs = append(rs, core.Reading{Timestamp: i * 7, Value: float64(i)})
	}
	out := Downsample(rs, 9)
	if len(out) == 0 || len(out) > 9 {
		t.Fatalf("downsample emitted %d points", len(out))
	}
	last := rs[len(rs)-1].Timestamp
	for _, r := range out {
		if r.Timestamp < rs[0].Timestamp || r.Timestamp > last {
			t.Fatalf("bucket stamped at %d outside series [%d, %d]", r.Timestamp, rs[0].Timestamp, last)
		}
	}
	// Zero-width series: all readings share one timestamp.
	flat := []core.Reading{
		{Timestamp: 500, Value: 1},
		{Timestamp: 500, Value: 2},
		{Timestamp: 500, Value: 6},
	}
	out = Downsample(flat, 2)
	if len(out) != 1 || out[0].Timestamp != 500 || out[0].Value != 3 {
		t.Fatalf("zero-width downsample = %v, want [(500, 3)]", out)
	}
	// n or fewer points pass through untouched.
	if got := Downsample(flat, 3); len(got) != 3 {
		t.Fatalf("identity downsample = %v", got)
	}
}

// --- Streaming/pushdown equivalence at the Connection level ---

func insertSeries(t *testing.T, c *Connection, topic string, n int) []core.Reading {
	t.Helper()
	var rs []core.Reading
	for i := 0; i < n; i++ {
		v := float64(i%23) - 4
		if i%41 == 0 {
			v = math.NaN()
		}
		r := rd(int64(i)*500, v)
		rs = append(rs, r)
		if err := c.Insert(topic, r); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

// TestQuerySummaryPushdownEquivalence: for a physical unscaled sensor
// the pushed-down summary must equal Summarize over the materialized
// query, field for field.
func TestQuerySummaryPushdownEquivalence(t *testing.T) {
	c := newConn(t)
	insertSeries(t, c, "/p/s", 5000)
	// The backend is a *store.Node, so this runs the pushdown plan.
	if _, ok := c.pushdown("/p/s"); !ok {
		t.Fatal("physical unscaled sensor did not qualify for pushdown")
	}
	got, err := c.QuerySummary("/p/s", 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Query("/p/s", 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Summarize(rs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("pushdown summary = %+v, materialized = %+v", got, want)
	}
	if got.Skipped == 0 {
		t.Fatal("test series should contain skipped readings")
	}
}

// TestQueryIntegralDownsampleEquivalence: same bit-identity for the
// other two pushed ops.
func TestQueryIntegralDownsampleEquivalence(t *testing.T) {
	c := newConn(t)
	insertSeries(t, c, "/p/i", 3000)
	rs, err := c.Query("/p/i", 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := c.QueryIntegral("/p/i", 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	if wi := Integral(rs); math.Float64bits(gi) != math.Float64bits(wi) {
		t.Fatalf("pushdown integral = %v, materialized = %v", gi, wi)
	}
	// QueryDownsample buckets over the query range, so compare against
	// a fold over the same grid and the same window — not the
	// data-range Downsample.
	gd, err := c.QueryDownsample("/p/i", 0, 1<<20, 32)
	if err != nil {
		t.Fatal(err)
	}
	win, err := c.Query("/p/i", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDownsampleFold(0, 1<<20, 32)
	d.Add(win)
	wd := d.Result()
	if len(gd) != len(wd) {
		t.Fatalf("pushdown downsample: %d points, want %d", len(gd), len(wd))
	}
	for i := range gd {
		if gd[i].Timestamp != wd[i].Timestamp ||
			math.Float64bits(gd[i].Value) != math.Float64bits(wd[i].Value) {
			t.Fatalf("pushdown downsample[%d] = %v, want %v", i, gd[i], wd[i])
		}
	}
}

// TestQuerySummaryEmptyAndErrors: an empty window reports Count == 0
// without an error (so multi-topic summary runs continue); an unknown
// sensor is still an error.
func TestQuerySummaryEmptyAndErrors(t *testing.T) {
	c := newConn(t)
	c.Insert("/p/e", rd(1000, 1))
	a, err := c.QuerySummary("/p/e", 5000, 9000)
	if err != nil {
		t.Fatalf("empty window errored: %v", err)
	}
	if a.Count != 0 {
		t.Fatalf("empty window Count = %d", a.Count)
	}
	if _, err := c.QuerySummary("/no/such", 0, 10); err == nil {
		t.Fatal("unknown sensor accepted")
	}
	if _, err := c.QuerySummary("/p/e", 10, 0); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestQuerySummaryScaledSensor: a configured scale forces the
// client-side plan, and the result reflects the scaled values.
func TestQuerySummaryScaledSensor(t *testing.T) {
	c := newConn(t)
	if err := c.PublishSensor(core.Metadata{Topic: "/sc/x", Scale: 0.001}); err != nil {
		t.Fatal(err)
	}
	c.Insert("/sc/x", rd(0, 1000))
	c.Insert("/sc/x", rd(1000, 3000))
	if _, ok := c.pushdown("/sc/x"); ok {
		t.Fatal("scaled sensor qualified for pushdown")
	}
	a, err := c.QuerySummary("/sc/x", 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 2 || a.Min != 1 || a.Max != 3 {
		t.Fatalf("scaled summary = %+v", a)
	}
}

// TestQuerySummaryVirtualSensor: virtual sensors take the client-side
// plan over the streaming evaluator and must match Summarize over the
// materialized virtual query.
func TestQuerySummaryVirtualSensor(t *testing.T) {
	c := newConn(t)
	for i := int64(0); i < 50; i++ {
		c.Insert("/vm/a", rd(i*1000, float64(i)))
		c.Insert("/vm/b", rd(i*1000+300, float64(2*i)))
	}
	if err := c.PublishSensor(core.Metadata{
		Topic: "/vm/sum", Virtual: true, Expression: "</vm/a> + </vm/b>",
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.pushdown("/vm/sum"); ok {
		t.Fatal("virtual sensor qualified for pushdown")
	}
	got, err := c.QuerySummary("/vm/sum", 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Query("/vm/sum", 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Summarize(rs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("virtual streamed summary = %+v, materialized = %+v", got, want)
	}
}

// TestVirtualQueryStreamMatchesQuery: the streamed virtual-sensor read
// path (no materialized fallback, no write-back) is bit-identical to
// the materialized evaluation, including nested wildcards.
func TestVirtualQueryStreamMatchesQuery(t *testing.T) {
	c := newConn(t)
	for i := int64(0); i < 200; i++ {
		c.Insert("/w2/p", rd(i*700, float64(i)))
		c.Insert("/w2/q", rd(i*900, float64(i)/2))
	}
	if err := c.PublishSensor(core.Metadata{
		Topic: "/v2/sum", Virtual: true, Expression: "</w2/*> * 2",
	}); err != nil {
		t.Fatal(err)
	}
	st, err := c.QueryStream("/v2/sum", 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []core.Reading
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, chunk...)
	}
	st.Close()
	want, err := c.Query("/v2/sum", 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d readings, materialized %d", len(streamed), len(want))
	}
	for i := range want {
		if streamed[i].Timestamp != want[i].Timestamp ||
			math.Float64bits(streamed[i].Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("reading %d: streamed %v, materialized %v", i, streamed[i], want[i])
		}
	}
}

// TestDerivativeStreamMatchesDerivative: the chunked derivative stream
// equals the materialized Derivative over the same window.
func TestDerivativeStreamMatchesDerivative(t *testing.T) {
	c := newConn(t)
	rs := insertSeries(t, c, "/d/s", 2000)
	st, err := c.DerivativeStream("/d/s", 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Reading
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// The stream reuses its buffer across Next calls; copy out.
		got = append(got, append([]core.Reading(nil), chunk...)...)
	}
	st.Close()
	want := Derivative(rs)
	if len(got) != len(want) {
		t.Fatalf("stream emitted %d readings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Timestamp != want[i].Timestamp ||
			math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("derivative[%d]: stream %v, materialized %v", i, got[i], want[i])
		}
	}
}

// TestQuerySummaryOverCluster: the quorum aggregate path is reachable
// through the Connection API.
func TestQuerySummaryOverCluster(t *testing.T) {
	nodes := []*store.Node{store.NewNode(0), store.NewNode(0), store.NewNode(0)}
	cl, err := store.NewCluster(nodes, store.RingPartitioner{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := Connect(cl, nil)
	for i := int64(0); i < 100; i++ {
		if err := c.Insert("/cl/s", rd(i*1000, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	a, err := c.QuerySummary("/cl/s", 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 100 || a.Min != 0 || a.Max != 99 {
		t.Fatalf("cluster summary = %+v", a)
	}
}
