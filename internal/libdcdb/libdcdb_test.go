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

func TestInsertQuery(t *testing.T) {
	c := newConn(t)
	for i := int64(0); i < 10; i++ {
		if err := c.Insert("/a/b/c", rd(i*1000, float64(i))); err != nil {
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
	c.Insert("/n1/energy", rd(0, 5000))
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
	c.Insert("/tmp/x", rd(1, 1))
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
	c.Insert("/s/r3/n9/flops", rd(0, 1))
	if got := c.ListSensors("/s/r3"); len(got) != 1 {
		t.Fatalf("auto-registered = %v", got)
	}
}

func TestVirtualSensor(t *testing.T) {
	c := newConn(t)
	c.PublishSensor(core.Metadata{Topic: "/m/power1", Unit: "W"})
	c.PublishSensor(core.Metadata{Topic: "/m/power2", Unit: "kW"})
	for i := int64(0); i < 5; i++ {
		c.Insert("/m/power1", rd(i*1000, 100))
		c.Insert("/m/power2", rd(i*1000, 1)) // 1 kW = 1000 W
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
	cached, err := c.Backend().Query(id, 0, 10000)
	if err != nil || len(cached) != 5 {
		t.Fatalf("write-back cache: %v, %v", cached, err)
	}
	// Second query is served from cache (remove inputs to prove it).
	c.DeleteBefore("/m/power1", 1<<60)
	rs2, err := c.Query("/m/total", 0, 10000)
	if err != nil || len(rs2) != 5 {
		t.Fatalf("cached query: %v, %v", rs2, err)
	}
	// Invalidate: now evaluation fails because an input is gone.
	c.InvalidateVirtual("/m/total")
	if _, err := c.Query("/m/total", 0, 10000); err == nil {
		t.Error("query after invalidate with missing input succeeded")
	}
}

func TestVirtualSensorWildcard(t *testing.T) {
	c := newConn(t)
	for _, n := range []string{"n1", "n2", "n3"} {
		tp := "/sys/" + n + "/power"
		c.PublishSensor(core.Metadata{Topic: tp, Unit: "W"})
		for i := int64(0); i < 3; i++ {
			c.Insert(tp, rd(i*1000, 50))
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

func TestVirtualSensorCycle(t *testing.T) {
	c := newConn(t)
	c.PublishSensor(core.Metadata{Topic: "/v/a", Virtual: true, Expression: "</v/b> + 1"})
	c.PublishSensor(core.Metadata{Topic: "/v/b", Virtual: true, Expression: "</v/a> + 1"})
	if _, err := c.Query("/v/a", 0, 10); err == nil {
		t.Error("cyclic virtual sensors evaluated successfully")
	}
}

func TestVirtualSensorOfVirtualSensor(t *testing.T) {
	c := newConn(t)
	c.PublishSensor(core.Metadata{Topic: "/w/raw", Unit: "W"})
	for i := int64(0); i < 3; i++ {
		c.Insert("/w/raw", rd(i*1000, 10))
	}
	c.PublishSensor(core.Metadata{Topic: "/w/double", Virtual: true, Expression: "</w/raw> * 2"})
	c.PublishSensor(core.Metadata{Topic: "/w/quad", Virtual: true, Expression: "</w/double> * 2"})
	rs, err := c.Query("/w/quad", 0, 5000)
	if err != nil || len(rs) != 3 || rs[0].Value != 40 {
		t.Fatalf("nested virtual = %v, %v", rs, err)
	}
}

func TestIntegralDerivative(t *testing.T) {
	// Constant 100 W over 10 s -> 1000 J.
	var rs []core.Reading
	for i := int64(0); i <= 10; i++ {
		rs = append(rs, rd(i*1e9, 100))
	}
	if got := Integral(rs); math.Abs(got-1000) > 1e-9 {
		t.Errorf("Integral = %v", got)
	}
	if got := Integral(rs[:1]); got != 0 {
		t.Errorf("Integral single = %v", got)
	}
	// Linear counter slope of 5/s.
	var cnt []core.Reading
	for i := int64(0); i <= 4; i++ {
		cnt = append(cnt, rd(i*1e9, float64(5*i)))
	}
	d := Derivative(cnt)
	if len(d) != 4 {
		t.Fatalf("Derivative len = %d", len(d))
	}
	for _, r := range d {
		if math.Abs(r.Value-5) > 1e-9 {
			t.Fatalf("Derivative = %v", d)
		}
	}
	if Derivative(cnt[:1]) != nil {
		t.Error("Derivative of single point not nil")
	}
	// Duplicate timestamps are skipped, not divided by zero.
	dup := []core.Reading{rd(0, 1), rd(0, 2), rd(1e9, 3)}
	if got := Derivative(dup); len(got) != 1 {
		t.Errorf("Derivative with dup = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	rs := []core.Reading{rd(0, 3), rd(1, 1), rd(2, 2)}
	a, err := Summarize(rs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 3 || a.Min != 1 || a.Max != 3 || a.Mean != 2 || a.First.Value != 3 || a.Last.Value != 2 {
		t.Fatalf("Summarize = %+v", a)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("empty summarise accepted")
	}
}

func TestDownsample(t *testing.T) {
	var rs []core.Reading
	for i := int64(0); i < 100; i++ {
		rs = append(rs, rd(i*1000, float64(i)))
	}
	ds := Downsample(rs, 10)
	if len(ds) > 11 || len(ds) < 9 {
		t.Fatalf("Downsample to %d points", len(ds))
	}
	// Mean preserved approximately.
	var sum float64
	for _, r := range ds {
		sum += r.Value
	}
	if mean := sum / float64(len(ds)); math.Abs(mean-49.5) > 5 {
		t.Errorf("downsampled mean = %v", mean)
	}
	if got := Downsample(rs, 1000); len(got) != len(rs) {
		t.Error("Downsample should be identity when n >= len")
	}
	if got := Downsample(rs, 0); len(got) != len(rs) {
		t.Error("Downsample with n=0 should be identity")
	}
	same := []core.Reading{rd(5, 1), rd(5, 2), rd(5, 3)}
	if got := Downsample(same, 2); len(got) != 1 {
		t.Errorf("Downsample of zero-width series = %v", got)
	}
}

func TestCSVRoundtrip(t *testing.T) {
	c := newConn(t)
	for i := int64(0); i < 5; i++ {
		c.Insert("/e/x", rd(i*1e9, float64(i)*1.5))
		c.Insert("/e/y", rd(i*1e9, float64(i)*2.5))
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
	c.Insert("/c/x", rd(1, 5))
	rs, err := c.Query("/c/x", 0, 10)
	if err != nil || len(rs) != 1 || rs[0].Value != 5 {
		t.Fatalf("cluster-backed query: %v, %v", rs, err)
	}
}
