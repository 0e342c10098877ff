package libdcdb

import (
	"math"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/store"
)

// --- The analysis ops' guards, through the Connection ---

// TestSummarizeSkipsNonFinite: NaN/Inf readings must not poison the
// summary; Aggregate counts them in Skipped and excludes them from
// everything else.
func TestSummarizeSkipsNonFinite(t *testing.T) {
	c := newConn(t)
	for _, r := range []core.Reading{
		rd(1, 2), rd(2, math.NaN()), rd(3, 6), rd(4, math.Inf(1)), rd(5, 4), rd(9, math.NaN()),
	} {
		if err := insert(c, "/nf/s", r); err != nil {
			t.Fatal(err)
		}
	}
	a, err := c.QuerySummary("/nf/s", 0, 8)
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
	// A window of NaN only is empty, with the skip reported.
	if a, err := c.QuerySummary("/nf/s", 9, 9); err != nil || a.Count != 0 || a.Skipped != 1 {
		t.Fatalf("all-NaN window = %+v, %v", a, err)
	}
}

// TestIntegralGuards: a NaN between two readings is bridged rather
// than poisoning the integral, and an empty window integrates to zero.
func TestIntegralGuards(t *testing.T) {
	c := newConn(t)
	for _, r := range []core.Reading{rd(0, 100), rd(1e9, math.NaN()), rd(2e9, 100)} {
		if err := insert(c, "/ig/s", r); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := c.QueryIntegral("/ig/s", 0, 2e9); err != nil || got != 200 {
		t.Fatalf("integral of 100 W over 2 s across a NaN = %v, %v; want 200", got, err)
	}
	if got, err := c.QueryIntegral("/ig/s", 3e9, 4e9); err != nil || got != 0 {
		t.Fatalf("empty-window integral = %v, %v; want 0", got, err)
	}
}

// TestDownsampleBounds: bucket stamps stay inside the queried range
// even when the grid does not divide it, and nmax or fewer readings
// pass through untouched.
func TestDownsampleBounds(t *testing.T) {
	c := newConn(t)
	for i := int64(0); i < 100; i++ {
		if err := insert(c, "/db/s", rd(i*7, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	out, err := c.QueryDownsample("/db/s", 0, 693, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || len(out) > 9 {
		t.Fatalf("downsample emitted %d points", len(out))
	}
	for _, r := range out {
		if r.Timestamp < 0 || r.Timestamp > 693 {
			t.Fatalf("bucket stamped at %d outside the query [0, 693]", r.Timestamp)
		}
	}
	out, err = c.QueryDownsample("/db/s", 0, 693, 100)
	if err != nil || len(out) != 100 || out[42] != rd(294, 42) {
		t.Fatalf("identity downsample: %d points, %v", len(out), err)
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
		if err := insert(c, topic, r); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

// summarize folds a materialised series into an Aggregate: the "want"
// side of the streamed and pushed-down summaries.
func summarize(rs []core.Reading) Aggregate {
	s := fold.NewSummary()
	s.Add(rs)
	return aggregateFromFold(s)
}

// TestQuerySummaryPushdownEquivalence: for a physical unscaled sensor
// the pushed-down summary must equal a summary fold over the drained
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
	if want := summarize(rs); got != want {
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
	wi := fold.NewIntegral()
	wi.Add(rs)
	if math.Float64bits(gi) != math.Float64bits(wi.Value()) {
		t.Fatalf("pushdown integral = %v, materialized = %v", gi, wi.Value())
	}
	// QueryDownsample buckets over the query range, so compare against
	// a fold over the same grid and the same window.
	gd, err := c.QueryDownsample("/p/i", 0, 1<<20, 32)
	if err != nil {
		t.Fatal(err)
	}
	win, err := c.Query("/p/i", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d := fold.NewDownsample(0, 1<<20, 32)
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
	insert(c, "/p/e", rd(1000, 1))
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
	insert(c, "/sc/x", rd(0, 1000))
	insert(c, "/sc/x", rd(1000, 3000))
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
// plan over the streaming evaluator and must match a summary fold over
// the drained virtual query.
func TestQuerySummaryVirtualSensor(t *testing.T) {
	c := newConn(t)
	for i := int64(0); i < 50; i++ {
		insert(c, "/vm/a", rd(i*1000, float64(i)))
		insert(c, "/vm/b", rd(i*1000+300, float64(2*i)))
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
	if want := summarize(rs); got != want {
		t.Fatalf("virtual streamed summary = %+v, materialized = %+v", got, want)
	}
}

// TestVirtualQueryStreamMatchesQuery: QueryStream over a virtual
// sensor (evaluated, never written back) is bit-identical to Query
// (the same stream drained, then written back), and to a later
// QueryStream served from what Query wrote back — for a wildcard over
// physical sensors, a virtual sensor over a virtual sensor, and a
// wildcard whose matches include a virtual sensor.
func TestVirtualQueryStreamMatchesQuery(t *testing.T) {
	c := newConn(t)
	for i := int64(0); i < 200; i++ {
		insert(c, "/w2/p", rd(i*700, float64(i)))
		insert(c, "/w2/q", rd(i*900, float64(i)/2))
		insert(c, "/w3/p", rd(i*1100, float64(i%17)))
	}
	for _, m := range []core.Metadata{
		{Topic: "/v2/sum", Virtual: true, Expression: "</w2/*> * 2"},
		{Topic: "/w/double", Virtual: true, Expression: "</w2/p> * 2 + </w2/q>"},
		{Topic: "/w/quad", Virtual: true, Expression: "</w/double> * 2"},
		{Topic: "/w3/v", Virtual: true, Expression: "</w2/q> / 3", Unit: "kW"},
		{Topic: "/v3/sum", Virtual: true, Expression: "</w3/*> + 1"},
	} {
		if err := c.PublishSensor(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, topic := range []string{"/v2/sum", "/w/quad", "/v3/sum"} {
		streamed := drainStream(t, c, topic)
		want, err := c.Query(topic, 0, 1<<50)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 200 {
			t.Fatalf("%s: %d readings", topic, len(want))
		}
		sameReadings(t, topic+" streamed", streamed, want)
		sameReadings(t, topic+" cached", drainStream(t, c, topic), want)
	}
}

func drainStream(t *testing.T, c *Connection, topic string) []core.Reading {
	t.Helper()
	st, err := c.QueryStream(topic, 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := store.Drain(st)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func sameReadings(t *testing.T, what string, got, want []core.Reading) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d readings, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Timestamp != want[i].Timestamp ||
			math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("%s: reading %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestDerivativeStreamMatchesDerivative: the chunked derivative stream
// equals a derivative fold over the whole materialised window.
func TestDerivativeStreamMatchesDerivative(t *testing.T) {
	c := newConn(t)
	rs := insertSeries(t, c, "/d/s", 2000)
	st, err := c.DerivativeStream("/d/s", 0, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.Drain(st)
	if err != nil {
		t.Fatal(err)
	}
	var d fold.Derivative
	sameReadings(t, "derivative stream", got, d.Add(nil, rs))
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
		if err := insert(c, "/cl/s", rd(i*1000, float64(i))); err != nil {
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
