package pusher

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dcdb/internal/config"
	"dcdb/internal/core"
)

// fakePub collects published messages.
type fakePub struct {
	mu   sync.Mutex
	msgs map[string][][]byte
	fail bool
}

func newFakePub() *fakePub { return &fakePub{msgs: make(map[string][][]byte)} }

func (f *fakePub) Publish(topic string, payload []byte, qos byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return fmt.Errorf("injected publish failure")
	}
	f.msgs[topic] = append(f.msgs[topic], append([]byte(nil), payload...))
	return nil
}

func (f *fakePub) count(topic string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.msgs[topic])
}

func (f *fakePub) payloads(topic string) [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]byte(nil), f.msgs[topic]...)
}

// testPlugin is a minimal plugin for host tests.
type testPlugin struct {
	name    string
	groups  []*Group
	started bool
	stopped bool
	entity  *testEntity
}

type testEntity struct {
	connected bool
	closed    bool
	failConn  bool
}

func (e *testEntity) Name() string { return "te" }
func (e *testEntity) Connect() error {
	if e.failConn {
		return fmt.Errorf("entity connect failed")
	}
	e.connected = true
	return nil
}
func (e *testEntity) Close() error { e.closed = true; return nil }

func (p *testPlugin) Name() string                 { return p.name }
func (p *testPlugin) Configure(*config.Node) error { return nil }
func (p *testPlugin) Groups() []*Group             { return p.groups }
func (p *testPlugin) Entities() []Entity {
	if p.entity == nil {
		return nil
	}
	return []Entity{p.entity}
}
func (p *testPlugin) Start() error { p.started = true; return nil }
func (p *testPlugin) Stop() error  { p.stopped = true; return nil }

func constGroup(name, topic string, interval time.Duration, v float64) *Group {
	return &Group{
		Name:     name,
		Interval: interval,
		Sensors:  []*Sensor{{Name: "s", Topic: topic}},
		Reader:   GroupReaderFunc(func(time.Time) ([]float64, error) { return []float64{v}, nil }),
	}
}

func TestHostSamplesAndPublishes(t *testing.T) {
	pub := newFakePub()
	h := NewHost(pub, Options{Threads: 2})
	defer h.Close()
	p := &testPlugin{name: "t", groups: []*Group{constGroup("g", "/t/s", 20*time.Millisecond, 42)}}
	if err := h.StartPlugin(p); err != nil {
		t.Fatal(err)
	}
	if !p.started {
		t.Error("plugin Start not called")
	}
	deadline := time.Now().Add(2 * time.Second)
	for pub.count("/t/s") < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if pub.count("/t/s") < 3 {
		t.Fatalf("published %d messages", pub.count("/t/s"))
	}
	// Cache carries the reading.
	latest, ok := h.Cache().Latest("/t/s")
	if !ok || latest.Value != 42 {
		t.Fatalf("cache = %+v, %v", latest, ok)
	}
	// Payload decodes to a single reading of 42.
	rs, err := core.DecodeReadings(pub.payloads("/t/s")[0])
	if err != nil || len(rs) != 1 || rs[0].Value != 42 {
		t.Fatalf("payload = %v, %v", rs, err)
	}
	st := h.Stats()
	if st.Readings < 3 || st.Published < 3 || st.ReadErrors != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The registry mirrors the same atomics at scrape time.
	byName := map[string]float64{}
	for _, s := range h.Metrics().Gather() {
		byName[s.Name] = s.Value
	}
	if byName["dcdb_pusher_readings_total"] < 3 {
		t.Errorf("dcdb_pusher_readings_total = %g, want >= 3", byName["dcdb_pusher_readings_total"])
	}
	if byName["dcdb_pusher_published_total"] < 3 {
		t.Errorf("dcdb_pusher_published_total = %g, want >= 3", byName["dcdb_pusher_published_total"])
	}
	if byName["dcdb_pusher_send_errors_total"] != 0 {
		t.Errorf("dcdb_pusher_send_errors_total = %g, want 0", byName["dcdb_pusher_send_errors_total"])
	}
	if byName["dcdb_pusher_plugins_running"] != 1 {
		t.Errorf("dcdb_pusher_plugins_running = %g, want 1", byName["dcdb_pusher_plugins_running"])
	}
}

func TestHostBurstMode(t *testing.T) {
	pub := newFakePub()
	h := NewHost(pub, Options{Threads: 1, Mode: Burst, FlushInterval: time.Hour})
	defer h.Close()
	p := &testPlugin{name: "t", groups: []*Group{constGroup("g", "/b/s", 15*time.Millisecond, 7)}}
	if err := h.StartPlugin(p); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.Stats().Readings < 4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if pub.count("/b/s") != 0 {
		t.Fatal("burst mode published before flush")
	}
	h.flushPending()
	if pub.count("/b/s") != 1 {
		t.Fatalf("flush produced %d messages", pub.count("/b/s"))
	}
	rs, err := core.DecodeReadings(pub.payloads("/b/s")[0])
	if err != nil || len(rs) < 4 {
		t.Fatalf("burst payload = %d readings, %v", len(rs), err)
	}
}

func TestHostDeltaSensors(t *testing.T) {
	pub := newFakePub()
	h := NewHost(pub, Options{Threads: 1})
	defer h.Close()
	var counter float64
	var mu sync.Mutex
	g := &Group{
		Name:     "g",
		Interval: 10 * time.Millisecond,
		Sensors:  []*Sensor{{Name: "c", Topic: "/d/c", Delta: true}},
		Reader: GroupReaderFunc(func(time.Time) ([]float64, error) {
			mu.Lock()
			counter += 5
			v := counter
			mu.Unlock()
			return []float64{v}, nil
		}),
	}
	if err := h.StartPlugin(&testPlugin{name: "t", groups: []*Group{g}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for pub.count("/d/c") < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for _, pl := range pub.payloads("/d/c") {
		rs, _ := core.DecodeReadings(pl)
		for _, r := range rs {
			if r.Value != 5 {
				t.Fatalf("delta reading = %v, want 5", r.Value)
			}
		}
	}
}

func TestHostReadErrors(t *testing.T) {
	h := NewHost(nil, Options{Threads: 1})
	defer h.Close()
	bad := &Group{
		Name:     "bad",
		Interval: 10 * time.Millisecond,
		Sensors:  []*Sensor{{Name: "x", Topic: "/x"}},
		Reader: GroupReaderFunc(func(time.Time) ([]float64, error) {
			return nil, fmt.Errorf("device gone")
		}),
	}
	short := &Group{
		Name:     "short",
		Interval: 10 * time.Millisecond,
		Sensors:  []*Sensor{{Name: "a", Topic: "/a"}, {Name: "b", Topic: "/b"}},
		Reader: GroupReaderFunc(func(time.Time) ([]float64, error) {
			return []float64{1}, nil // wrong arity
		}),
	}
	if err := h.StartPlugin(&testPlugin{name: "t", groups: []*Group{bad, short}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.Stats().ReadErrors < 4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if h.Stats().ReadErrors < 4 {
		t.Fatalf("read errors = %d", h.Stats().ReadErrors)
	}
	if h.Stats().Readings != 0 {
		t.Errorf("readings from failing groups = %d", h.Stats().Readings)
	}
}

func TestHostSendErrors(t *testing.T) {
	pub := newFakePub()
	pub.fail = true
	h := NewHost(pub, Options{Threads: 1})
	defer h.Close()
	if err := h.StartPlugin(&testPlugin{name: "t", groups: []*Group{constGroup("g", "/f/s", 10*time.Millisecond, 1)}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.Stats().SendErrors < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if h.Stats().SendErrors < 2 {
		t.Fatalf("send errors = %d", h.Stats().SendErrors)
	}
}

func TestHostStartStopPlugin(t *testing.T) {
	h := NewHost(nil, Options{Threads: 1})
	defer h.Close()
	ent := &testEntity{}
	p := &testPlugin{name: "t", entity: ent, groups: []*Group{constGroup("g", "/s/s", 10*time.Millisecond, 1)}}
	if err := h.StartPlugin(p); err != nil {
		t.Fatal(err)
	}
	if !ent.connected {
		t.Error("entity not connected")
	}
	if got := h.Running(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("Running = %v", got)
	}
	if err := h.StartPlugin(p); err == nil {
		t.Error("duplicate start accepted")
	}
	if err := h.StopPlugin("t"); err != nil {
		t.Fatal(err)
	}
	if !p.stopped || !ent.closed {
		t.Error("Stop/Close hooks not called")
	}
	if err := h.StopPlugin("t"); err == nil {
		t.Error("double stop accepted")
	}
	if got := h.Running(); len(got) != 0 {
		t.Errorf("stopped plugin still running: %v", got)
	}
}

func TestHostEntityConnectFailure(t *testing.T) {
	h := NewHost(nil, Options{Threads: 1})
	defer h.Close()
	p := &testPlugin{name: "t", entity: &testEntity{failConn: true},
		groups: []*Group{constGroup("g", "/s/s", time.Second, 1)}}
	if err := h.StartPlugin(p); err == nil {
		t.Error("start with failing entity accepted")
	}
}

func TestHostRejectsInvalidGroups(t *testing.T) {
	h := NewHost(nil, Options{Threads: 1})
	defer h.Close()
	cases := []*Group{
		{Name: "", Interval: time.Second, Sensors: []*Sensor{{Topic: "/a"}}, Reader: GroupReaderFunc(func(time.Time) ([]float64, error) { return nil, nil })},
		{Name: "g", Interval: 0, Sensors: []*Sensor{{Topic: "/a"}}, Reader: GroupReaderFunc(func(time.Time) ([]float64, error) { return nil, nil })},
		{Name: "g", Interval: time.Second, Reader: GroupReaderFunc(func(time.Time) ([]float64, error) { return nil, nil })},
		{Name: "g", Interval: time.Second, Sensors: []*Sensor{{Topic: "/a"}}},
		{Name: "g", Interval: time.Second, Sensors: []*Sensor{{Topic: "bad//topic"}}, Reader: GroupReaderFunc(func(time.Time) ([]float64, error) { return nil, nil })},
	}
	for i, g := range cases {
		if err := h.StartPlugin(&testPlugin{name: fmt.Sprintf("p%d", i), groups: []*Group{g}}); err == nil {
			t.Errorf("case %d: invalid group accepted", i)
		}
	}
}

func TestHostClose(t *testing.T) {
	h := NewHost(newFakePub(), Options{Threads: 1, Mode: Burst, FlushInterval: time.Hour})
	p := &testPlugin{name: "t", groups: []*Group{constGroup("g", "/c/s", 10*time.Millisecond, 1)}}
	if err := h.StartPlugin(p); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if !p.stopped {
		t.Error("Close did not stop plugins")
	}
	if err := h.Close(); err != nil {
		t.Error("second Close errored")
	}
	if err := h.StartPlugin(&testPlugin{name: "late", groups: []*Group{constGroup("g", "/l/s", time.Second, 1)}}); err == nil {
		t.Error("start on closed host accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register("a", func() Plugin { return &testPlugin{name: "a"} })
	r.Register("b", func() Plugin { return &testPlugin{name: "b"} })
	p, err := r.New("a")
	if err != nil || p.Name() != "a" {
		t.Fatalf("New = %v, %v", p, err)
	}
	if _, err := r.New("zzz"); err == nil {
		t.Error("unknown plugin accepted")
	}
	if names := r.Names(); len(names) != 2 || names[0] != "a" {
		t.Fatalf("Names = %v", names)
	}
}

func TestForwardModeString(t *testing.T) {
	if Continuous.String() != "continuous" || Burst.String() != "burst" {
		t.Error("ForwardMode.String wrong")
	}
}

func TestAlignedSampling(t *testing.T) {
	// With Align, the first tick lands on a wall-clock multiple of the
	// interval.
	h := NewHost(nil, Options{Threads: 1, Align: true})
	defer h.Close()
	interval := 50 * time.Millisecond
	var mu sync.Mutex
	var stamps []time.Time
	g := &Group{
		Name: "g", Interval: interval,
		Sensors: []*Sensor{{Name: "s", Topic: "/al/s"}},
		Reader: GroupReaderFunc(func(now time.Time) ([]float64, error) {
			mu.Lock()
			stamps = append(stamps, now)
			mu.Unlock()
			return []float64{1}, nil
		}),
	}
	if err := h.StartPlugin(&testPlugin{name: "t", groups: []*Group{g}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(stamps)
		mu.Unlock()
		if n >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(stamps) < 3 {
		t.Fatalf("only %d samples", len(stamps))
	}
	for _, ts := range stamps {
		off := ts.Sub(ts.Truncate(interval))
		if off > interval/2 {
			off = off - interval
		}
		if off > 15*time.Millisecond || off < -15*time.Millisecond {
			t.Errorf("sample at %v is %v off the aligned grid", ts, off)
		}
	}
}
