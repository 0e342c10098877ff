package libdcdb

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/store"
)

func newConn(t *testing.T) *Connection {
	t.Helper()
	return Connect(store.NewNode(0), nil)
}

func rd(ts int64, v float64) core.Reading { return core.Reading{Timestamp: ts, Value: v} }

// insert stores one reading, as the Collect Agent's one-reading
// messages arrive.
func insert(c *Connection, topic string, r core.Reading) error {
	return c.InsertBatch(topic, []core.Reading{r})
}

// deleteBefore removes a sensor's readings older than the cutoff from
// the backend, as dcdbconfig's cleanup does.
func deleteBefore(t *testing.T, c *Connection, topic string, cutoff int64) {
	t.Helper()
	id, ok := c.Mapper().Lookup(topic)
	if !ok {
		t.Fatalf("%s has no SID", topic)
	}
	if err := c.backend.DeleteBefore(id, cutoff); err != nil {
		t.Fatal(err)
	}
}

func TestInsertQuery(t *testing.T) {
	c := newConn(t)
	for i := int64(0); i < 10; i++ {
		if err := insert(c, "/a/b/c", rd(i*1000, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := c.Query("/a/b/c", 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 || rs[0].Value != 2 {
		t.Fatalf("Query = %v", rs)
	}
	// Canonicalisation: no leading slash works too.
	rs2, err := c.Query("a/b/c", 2000, 5000)
	if err != nil || len(rs2) != 4 {
		t.Fatalf("canonical query: %v, %v", rs2, err)
	}
	if _, err := c.Query("/un/known", 0, 1); err == nil {
		t.Error("unknown sensor accepted")
	}
	if _, err := c.Query("//bad", 0, 1); err == nil {
		t.Error("bad topic accepted")
	}
}

func TestMetadataAndScale(t *testing.T) {
	c := newConn(t)
	m := core.Metadata{Topic: "/n1/energy", Unit: "mJ", Scale: 0.001}
	if err := c.PublishSensor(m); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Metadata("n1/energy")
	if !ok || got.Unit != "mJ" {
		t.Fatalf("Metadata = %+v, %v", got, ok)
	}
	insert(c, "/n1/energy", rd(0, 5000))
	rs, err := c.Query("/n1/energy", 0, 1)
	if err != nil || len(rs) != 1 || rs[0].Value != 5 {
		t.Fatalf("scaled query: %v, %v", rs, err)
	}
	if _, ok := c.Metadata("/zz"); ok {
		t.Error("metadata for unknown sensor")
	}
	if _, ok := c.Metadata("//"); ok {
		t.Error("metadata for invalid topic")
	}
	if err := c.PublishSensor(core.Metadata{}); err == nil {
		t.Error("invalid metadata accepted")
	}
	if err := c.PublishSensor(core.Metadata{Topic: "/v", Virtual: true, Expression: "(((("}); err == nil {
		t.Error("virtual sensor with bad expression accepted")
	}
}

func TestTTLApplied(t *testing.T) {
	c := newConn(t)
	if err := c.PublishSensor(core.Metadata{Topic: "/tmp/x", TTL: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	insert(c, "/tmp/x", rd(1, 1))
	time.Sleep(time.Millisecond)
	rs, err := c.Query("/tmp/x", 0, 10)
	if err != nil || len(rs) != 0 {
		t.Fatalf("TTL not applied: %v, %v", rs, err)
	}
}

func TestHierarchyNavigation(t *testing.T) {
	c := newConn(t)
	for _, tp := range []string{"/s/r1/n1/power", "/s/r1/n2/power", "/s/r2/n1/temp"} {
		if err := c.PublishSensor(core.Metadata{Topic: tp}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Children("/s"); len(got) != 2 {
		t.Fatalf("Children = %v", got)
	}
	if got := c.ListSensors("/s/r1"); len(got) != 2 {
		t.Fatalf("ListSensors = %v", got)
	}
	// Inserting auto-registers into the hierarchy too.
	insert(c, "/s/r3/n9/flops", rd(0, 1))
	if got := c.ListSensors("/s/r3"); len(got) != 1 {
		t.Fatalf("auto-registered = %v", got)
	}
}

func TestVirtualSensor(t *testing.T) {
	c := newConn(t)
	c.PublishSensor(core.Metadata{Topic: "/m/power1", Unit: "W"})
	c.PublishSensor(core.Metadata{Topic: "/m/power2", Unit: "kW"})
	for i := int64(0); i < 5; i++ {
		insert(c, "/m/power1", rd(i*1000, 100))
		insert(c, "/m/power2", rd(i*1000, 1)) // 1 kW = 1000 W
	}
	err := c.PublishSensor(core.Metadata{
		Topic:      "/m/total",
		Virtual:    true,
		Expression: "</m/power1> + </m/power2>",
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Query("/m/total", 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 || rs[0].Value != 1100 {
		t.Fatalf("virtual query = %v", rs)
	}
	// Results are cached in the backend under the virtual sensor's SID.
	id, ok := c.Mapper().Lookup("/m/total")
	if !ok {
		t.Fatal("virtual sensor has no SID")
	}
	cached, err := c.backend.Query(id, 0, 10000)
	if err != nil || len(cached) != 5 {
		t.Fatalf("write-back cache: %v, %v", cached, err)
	}
	// Second query is served from cache (remove inputs to prove it).
	deleteBefore(t, c, "/m/power1", 1<<60)
	rs2, err := c.Query("/m/total", 0, 10000)
	if err != nil || len(rs2) != 5 {
		t.Fatalf("cached query: %v, %v", rs2, err)
	}
	// Publishing the sensor again drops its cached periods: now
	// evaluation fails because an input is gone.
	if err := c.PublishSensor(core.Metadata{Topic: "/m/total", Virtual: true, Expression: "</m/power1> + </m/power2>"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("/m/total", 0, 10000); err == nil {
		t.Error("query after republishing with a missing input succeeded")
	}
}

// TestVirtualSensorRepublished: a virtual sensor published again with a
// new expression serves the new expression, not the written-back
// results of the old one.
func TestVirtualSensorRepublished(t *testing.T) {
	c := newConn(t)
	insert(c, "/a/x", rd(1, 1))
	insert(c, "/a/x", rd(2, 2))
	for _, p := range []struct {
		expr string
		k    float64
	}{{`<"/a/x"> * 2`, 2}, {`<"/a/x"> * 3`, 3}} {
		k := p.k
		if err := c.PublishSensor(core.Metadata{Topic: "/a/v", Virtual: true, Expression: p.expr}); err != nil {
			t.Fatal(err)
		}
		rs, err := c.Query("/a/v", 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 2 || rs[0].Value != k || rs[1].Value != 2*k {
			t.Fatalf("published as * %g: query = %v, want %g, %g", k, rs, k, 2*k)
		}
	}
}

func TestVirtualSensorWildcard(t *testing.T) {
	c := newConn(t)
	for _, n := range []string{"n1", "n2", "n3"} {
		tp := "/sys/" + n + "/power"
		c.PublishSensor(core.Metadata{Topic: tp, Unit: "W"})
		for i := int64(0); i < 3; i++ {
			insert(c, tp, rd(i*1000, 50))
		}
	}
	err := c.PublishSensor(core.Metadata{
		Topic:      "/sys/totalpower",
		Virtual:    true,
		Expression: "</sys/*>",
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Query("/sys/totalpower", 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[0].Value != 150 {
		t.Fatalf("wildcard virtual = %v", rs)
	}
}

// TestVirtualSensorCycle: a reference loop among virtual sensors fails
// the open, through Query and through QueryStream, directly and through
// a wildcard.
func TestVirtualSensorCycle(t *testing.T) {
	c := newConn(t)
	c.PublishSensor(core.Metadata{Topic: "/v/a", Virtual: true, Expression: "</v/b> + 1"})
	c.PublishSensor(core.Metadata{Topic: "/v/b", Virtual: true, Expression: "</v/a> + 1"})
	// The wildcard skips /x/sum itself but reaches /x/half, which
	// reads /x/sum back.
	c.PublishSensor(core.Metadata{Topic: "/x/sum", Virtual: true, Expression: "</x/*>"})
	c.PublishSensor(core.Metadata{Topic: "/x/half", Virtual: true, Expression: "</x/sum> / 2"})
	for _, topic := range []string{"/v/a", "/x/sum"} {
		if _, err := c.Query(topic, 0, 10); err == nil || !strings.Contains(err.Error(), "virtual sensor cycle") {
			t.Errorf("Query(%s) = %v, want the cycle error", topic, err)
		}
		if _, err := c.QueryStream(topic, 0, 10); err == nil || !strings.Contains(err.Error(), "virtual sensor cycle") {
			t.Errorf("QueryStream(%s) = %v, want the cycle error", topic, err)
		}
	}
}

// TestVirtualWriteBackOnlyQueried: Query writes back the sensor it was
// called on and nothing else; QueryStream writes back nothing; a
// period Query wrote back is then streamed from the backend.
func TestVirtualWriteBackOnlyQueried(t *testing.T) {
	c := newConn(t)
	for i := int64(0); i < 3; i++ {
		insert(c, "/w/raw", rd(i*1000, 10))
	}
	c.PublishSensor(core.Metadata{Topic: "/w/double", Virtual: true, Expression: "</w/raw> * 2"})
	c.PublishSensor(core.Metadata{Topic: "/w/quad", Virtual: true, Expression: "</w/double> * 2"})
	stored := func(topic string) int {
		t.Helper()
		id, ok := c.Mapper().Lookup(topic)
		if !ok {
			t.Fatalf("%s has no SID", topic)
		}
		rs, err := c.backend.Query(id, 0, 5000)
		if err != nil {
			t.Fatal(err)
		}
		return len(rs)
	}

	st, err := c.QueryStream("/w/quad", 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := store.Drain(st); err != nil || len(rs) != 3 || rs[0].Value != 40 {
		t.Fatalf("streamed nested virtual = %v, %v", rs, err)
	}
	if stored("/w/quad") != 0 || stored("/w/double") != 0 {
		t.Fatalf("QueryStream wrote back %d quad and %d double readings, want none", stored("/w/quad"), stored("/w/double"))
	}

	if rs, err := c.Query("/w/quad", 0, 5000); err != nil || len(rs) != 3 || rs[0].Value != 40 {
		t.Fatalf("queried nested virtual = %v, %v", rs, err)
	}
	if stored("/w/quad") != 3 || stored("/w/double") != 0 {
		t.Fatalf("Query wrote back %d quad and %d double readings, want 3 and 0", stored("/w/quad"), stored("/w/double"))
	}

	// Without its input, the queried sensor still streams (from the
	// backend) and the operand no longer evaluates.
	deleteBefore(t, c, "/w/raw", 1<<60)
	st, err = c.QueryStream("/w/quad", 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := store.Drain(st); err != nil || len(rs) != 3 || rs[2].Value != 40 {
		t.Fatalf("cached nested virtual = %v, %v", rs, err)
	}
	if _, err := c.QueryStream("/w/double", 0, 5000); err == nil {
		t.Fatal("the operand streamed without its input: it was written back")
	}
}

func TestVirtualSensorOfVirtualSensor(t *testing.T) {
	c := newConn(t)
	c.PublishSensor(core.Metadata{Topic: "/w/raw", Unit: "W"})
	for i := int64(0); i < 3; i++ {
		insert(c, "/w/raw", rd(i*1000, 10))
	}
	c.PublishSensor(core.Metadata{Topic: "/w/double", Virtual: true, Expression: "</w/raw> * 2"})
	c.PublishSensor(core.Metadata{Topic: "/w/quad", Virtual: true, Expression: "</w/double> * 2"})
	rs, err := c.Query("/w/quad", 0, 5000)
	if err != nil || len(rs) != 3 || rs[0].Value != 40 {
		t.Fatalf("nested virtual = %v, %v", rs, err)
	}
}

// TestIntegralDerivative: the integral and the derivative of a
// sensor, through the Connection.
func TestIntegralDerivative(t *testing.T) {
	c := newConn(t)
	// Constant 100 W over 10 s -> 1000 J; a linear counter of 5/s.
	for i := int64(0); i <= 10; i++ {
		insert(c, "/id/power", rd(i*1e9, 100))
		insert(c, "/id/count", rd(i*1e9, float64(5*i)))
	}
	if got, err := c.QueryIntegral("/id/power", 0, 10e9); err != nil || math.Abs(got-1000) > 1e-9 {
		t.Errorf("QueryIntegral = %v, %v", got, err)
	}
	if got, err := c.QueryIntegral("/id/power", 0, 0); err != nil || got != 0 {
		t.Errorf("QueryIntegral of one reading = %v, %v", got, err)
	}
	st, err := c.DerivativeStream("/id/count", 0, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.Drain(st)
	if err != nil || len(d) != 4 {
		t.Fatalf("DerivativeStream = %v, %v", d, err)
	}
	for _, r := range d {
		if math.Abs(r.Value-5) > 1e-9 {
			t.Fatalf("DerivativeStream = %v", d)
		}
	}
	st, err = c.DerivativeStream("/id/count", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := store.Drain(st); err != nil || len(d) != 0 {
		t.Errorf("DerivativeStream of one reading = %v, %v", d, err)
	}
}

// TestSummarize: the summary of a sensor, through the Connection.
func TestSummarize(t *testing.T) {
	c := newConn(t)
	for _, r := range []core.Reading{rd(0, 3), rd(1, 1), rd(2, 2)} {
		insert(c, "/su/s", r)
	}
	a, err := c.QuerySummary("/su/s", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 3 || a.Min != 1 || a.Max != 3 || a.Mean != 2 || a.First.Value != 3 || a.Last.Value != 2 {
		t.Fatalf("QuerySummary = %+v", a)
	}
}

// TestDownsample: downsampling a sensor, through the Connection,
// keeps the mean of an evenly sampled ramp.
func TestDownsample(t *testing.T) {
	c := newConn(t)
	for i := int64(0); i < 100; i++ {
		insert(c, "/ds/s", rd(i*1000, float64(i)))
	}
	ds, err := c.QueryDownsample("/ds/s", 0, 99000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) > 10 || len(ds) < 9 {
		t.Fatalf("QueryDownsample to %d points", len(ds))
	}
	var sum float64
	for _, r := range ds {
		sum += r.Value
	}
	if mean := sum / float64(len(ds)); math.Abs(mean-49.5) > 5 {
		t.Errorf("downsampled mean = %v", mean)
	}
	if got, err := c.QueryDownsample("/ds/s", 0, 99000, 1000); err != nil || len(got) != 100 {
		t.Errorf("QueryDownsample should pass %d readings through under 1000 buckets: %d, %v", 100, len(got), err)
	}
}

func TestCSVRoundtrip(t *testing.T) {
	c := newConn(t)
	for i := int64(0); i < 5; i++ {
		insert(c, "/e/x", rd(i*1e9, float64(i)*1.5))
		insert(c, "/e/y", rd(i*1e9, float64(i)*2.5))
	}
	var buf bytes.Buffer
	if err := c.ExportCSV(&buf, []string{"/e/x", "/e/y"}, 0, 1<<62); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 11 {
		t.Fatalf("CSV lines = %d\n%s", len(lines), buf.String())
	}
	c2 := newConn(t)
	n, err := c2.ImportCSV(bytes.NewReader(buf.Bytes()))
	if err != nil || n != 10 {
		t.Fatalf("ImportCSV = %d, %v", n, err)
	}
	rs, err := c2.Query("/e/x", 0, 1<<62)
	if err != nil || len(rs) != 5 || rs[4].Value != 6 {
		t.Fatalf("imported query: %v, %v", rs, err)
	}
}

func TestCSVErrors(t *testing.T) {
	c := newConn(t)
	if _, err := c.ImportCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := c.ImportCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := c.ImportCSV(strings.NewReader("sensor,timestamp,value\n/x,notatime,1\n")); err == nil {
		t.Error("bad timestamp accepted")
	}
	if _, err := c.ImportCSV(strings.NewReader("sensor,timestamp,value\n/x,2020-01-01T00:00:00Z,zz\n")); err == nil {
		t.Error("bad value accepted")
	}
	if err := c.ExportCSV(&bytes.Buffer{}, []string{"/none"}, 0, 1); err == nil {
		t.Error("export of unknown sensor accepted")
	}
}

func TestMetadataPersistence(t *testing.T) {
	c := newConn(t)
	c.PublishSensor(core.Metadata{Topic: "/m/power", Unit: "W", Scale: 0.1, TTL: time.Hour, Integrable: true})
	c.PublishSensor(core.Metadata{Topic: "/m/heat", Unit: "kW"})
	c.PublishSensor(core.Metadata{Topic: "/m/eff", Virtual: true, Expression: "</m/heat> / </m/power>"})
	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := newConn(t)
	if err := c2.LoadMetadata(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	m, ok := c2.Metadata("/m/power")
	if !ok || m.Unit != "W" || m.Scale != 0.1 || m.TTL != time.Hour || !m.Integrable {
		t.Fatalf("power metadata = %+v", m)
	}
	v, ok := c2.Metadata("/m/eff")
	if !ok || !v.Virtual || v.Expression != "</m/heat> / </m/power>" {
		t.Fatalf("virtual metadata = %+v", v)
	}
	// Errors.
	if err := c2.LoadMetadata(strings.NewReader("only\ttwo\n")); err == nil {
		t.Error("short line accepted")
	}
	if err := c2.LoadMetadata(strings.NewReader("/t\tW\tzz\t0\t0\t\n")); err == nil {
		t.Error("bad scale accepted")
	}
	if err := c2.LoadMetadata(strings.NewReader("# comment\n\n")); err != nil {
		t.Error("comments rejected")
	}
}

func TestMergeIntervals(t *testing.T) {
	got := mergeIntervals([]interval{{5, 10}, {1, 3}, {2, 6}, {20, 30}})
	if len(got) != 2 || got[0] != (interval{1, 10}) || got[1] != (interval{20, 30}) {
		t.Fatalf("mergeIntervals = %v", got)
	}
	if !intervalCovered(got, 2, 9) || intervalCovered(got, 2, 15) || intervalCovered(nil, 0, 1) {
		t.Error("intervalCovered wrong")
	}
}

func TestClusterBackend(t *testing.T) {
	nodes := []*store.Node{store.NewNode(0), store.NewNode(0)}
	cl, err := store.NewCluster(nodes, store.RingPartitioner{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := Connect(cl, nil)
	insert(c, "/c/x", rd(1, 5))
	rs, err := c.Query("/c/x", 0, 10)
	if err != nil || len(rs) != 1 || rs[0].Value != 5 {
		t.Fatalf("cluster-backed query: %v, %v", rs, err)
	}
}
