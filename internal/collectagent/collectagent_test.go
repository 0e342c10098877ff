package collectagent

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dcdb/internal/config"
	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
	"dcdb/internal/mqtt"
	"dcdb/internal/plugins/tester"
	"dcdb/internal/pusher"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
)

func TestHandleStoresReadings(t *testing.T) {
	backend := store.NewNode(0)
	a := New(backend, nil, Options{Quiet: true})
	rs := []core.Reading{{Timestamp: 100, Value: 1}, {Timestamp: 200, Value: 2}}
	a.Handle("/s/n1/power", core.EncodeReadings(rs))
	id, ok := a.Mapper().Lookup("/s/n1/power")
	if !ok {
		t.Fatal("topic not mapped")
	}
	got, err := backend.Query(id, 0, 300)
	if err != nil || len(got) != 2 || got[1].Value != 2 {
		t.Fatalf("stored = %v, %v", got, err)
	}
	// Cache holds the latest reading.
	latest, ok := a.Cache().Latest("/s/n1/power")
	if !ok || latest.Value != 2 {
		t.Fatalf("cache = %+v, %v", latest, ok)
	}
	// Hierarchy observed the topic.
	if !hasSensor(a, "/s/n1/power") {
		t.Error("hierarchy missed the topic")
	}
	st := a.Stats()
	if st.Messages != 1 || st.Readings != 2 || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHandleErrors(t *testing.T) {
	a := New(store.NewNode(0), nil, Options{Quiet: true})
	a.Handle("/t", []byte{1, 2, 3}) // not a multiple of 16
	a.Handle("bad//topic", core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 1}}))
	a.Handle("/empty", nil) // zero readings: ignored, not an error
	st := a.Stats()
	if st.Errors != 2 {
		t.Errorf("errors = %d", st.Errors)
	}
	if st.Readings != 0 {
		t.Errorf("readings = %d", st.Readings)
	}
	// Store failure path.
	down := store.NewNode(0)
	down.SetDown(true)
	a2 := New(down, nil, Options{Quiet: true})
	a2.Handle("/x", core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 1}}))
	if a2.Stats().Errors != 1 {
		t.Error("store failure not counted")
	}
	if hasSensor(a2, "/x") {
		t.Error("hierarchy lists a topic whose write failed")
	}
	down.SetDown(false)
	a2.Handle("/x", core.EncodeReadings([]core.Reading{{Timestamp: 2, Value: 1}}))
	if !hasSensor(a2, "/x") {
		t.Error("hierarchy missed a topic once its write succeeded")
	}
}

func TestEndToEndOverMQTT(t *testing.T) {
	backend := store.NewNode(0)
	a := New(backend, nil, Options{Quiet: true})
	if err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	client, err := mqtt.Dial(a.Addr(), mqtt.DialOptions{ClientID: "test-pusher"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rs := []core.Reading{{Timestamp: 1000, Value: 3.5}}
	if err := client.Publish("/lrz/cm3/n1/power", core.EncodeReadings(rs), 1); err != nil {
		t.Fatal(err)
	}
	// A PUBACK proves the messages BEFORE its own are stored (see
	// mqtt.Broker); this first message lands shortly after Publish
	// returns, not necessarily before.
	var got []core.Reading
	for deadline := time.Now().Add(5 * time.Second); len(got) == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if id, ok := a.Mapper().Lookup("/lrz/cm3/n1/power"); ok {
			if got, err = backend.Query(id, 0, 2000); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(got) != 1 || got[0].Value != 3.5 {
		t.Fatalf("end-to-end readings = %v", got)
	}
}

func TestFullPipelinePusherToQuery(t *testing.T) {
	// Pusher (tester plugin) -> MQTT -> Collect Agent -> Store ->
	// libDCDB query: the complete data path of Figure 2.
	backend := store.NewNode(0)
	a := New(backend, nil, Options{Quiet: true})
	if err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	client, err := mqtt.Dial(a.Addr(), mqtt.DialOptions{ClientID: "p1"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	plug := tester.New()
	cfg, err := config.ParseString("mqttPrefix /pipe\ngroup g { interval 10 sensors 3 }")
	if err != nil {
		t.Fatal(err)
	}
	if err := plug.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	h := pusher.NewHost(client, pusher.Options{Threads: 2, QoS: 1})
	defer h.Close()
	if err := h.StartPlugin(plug); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for a.Stats().Readings < 9 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if a.Stats().Readings < 9 {
		t.Fatalf("agent saw %d readings", a.Stats().Readings)
	}
	// Query through libDCDB with the agent's mapper.
	conn := libdcdb.Connect(backend, a.Mapper())
	rs, err := conn.Query("/pipe/g/s00000", 0, time.Now().UnixNano())
	if err != nil || len(rs) < 3 {
		t.Fatalf("query through libdcdb: %d readings, %v", len(rs), err)
	}
}

func TestBurstPipeline(t *testing.T) {
	backend := store.NewNode(0)
	a := New(backend, nil, Options{Quiet: true})
	if err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	client, err := mqtt.Dial(a.Addr(), mqtt.DialOptions{ClientID: "pb"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	plug := tester.New()
	cfg, _ := config.ParseString("mqttPrefix /burst\ngroup g { interval 10 sensors 2 }")
	if err := plug.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	h := pusher.NewHost(client, pusher.Options{Threads: 1, QoS: 1, Mode: pusher.Burst, FlushInterval: time.Hour})
	defer h.Close()
	if err := h.StartPlugin(plug); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.Stats().Readings < 6 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	h.Close() // stops the plugin and flushes the burst
	deadline = time.Now().Add(2 * time.Second)
	for a.Stats().Readings < 6 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// One batched message per sensor, several readings inside.
	st := a.Stats()
	if st.Messages > 4 {
		t.Errorf("burst produced %d messages for %d readings", st.Messages, st.Readings)
	}
	if st.Readings < 6 {
		t.Fatalf("agent saw %d readings", st.Readings)
	}
}

func TestConcurrentHandle(t *testing.T) {
	// The full ingest path (decode → topic→SID → store → cache →
	// hierarchy) hammered from concurrent publishers, as under many
	// Pusher connections.
	backend := store.NewNode(0)
	a := New(backend, nil, Options{Quiet: true})
	const workers, perWorker = 8, 300
	payload := core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 1}, {Timestamp: 2, Value: 2}})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				topic := fmt.Sprintf("/conc/h%d/s%d/v", w, i%4)
				a.Handle(topic, payload)
			}
		}(w)
	}
	wg.Wait()
	st := a.Stats()
	if st.Messages != workers*perWorker || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Readings != int64(workers*perWorker*2) {
		t.Fatalf("readings = %d, want %d", st.Readings, workers*perWorker*2)
	}
	// Every distinct topic is mapped and queryable.
	for w := 0; w < workers; w++ {
		for s := 0; s < 4; s++ {
			topic := fmt.Sprintf("/conc/h%d/s%d/v", w, s)
			id, ok := a.Mapper().Lookup(topic)
			if !ok {
				t.Fatalf("topic %q not mapped", topic)
			}
			rs, err := backend.Query(id, 0, 10)
			if err != nil || len(rs) != 2 {
				t.Fatalf("topic %q: %d readings, %v", topic, len(rs), err)
			}
		}
	}
}

func TestAgentDurableBackendSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Cluster {
		c, err := OpenBackendOptions(dir, store.DiskOptions{}, store.ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// First agent generation ingests over the in-process MQTT path.
	backend := open()
	a := New(backend, nil, Options{Quiet: true})
	topics := []string{"/dur/n1/power", "/dur/n1/temp", "/dur/n2/power"}
	for i, tp := range topics {
		rs := []core.Reading{
			{Timestamp: 100, Value: float64(i)},
			{Timestamp: 200, Value: float64(i) + 0.5},
		}
		a.Handle(tp, core.EncodeReadings(rs))
	}
	if err := SaveTopics(dir, a.Mapper()); err != nil {
		t.Fatal(err)
	}
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}

	// Second generation recovers readings and the topic map.
	backend2 := open()
	defer backend2.Close()
	mapper := core.NewTopicMapper()
	if err := LoadTopics(dir, mapper); err != nil {
		t.Fatal(err)
	}
	a2 := New(backend2, mapper, Options{Quiet: true})
	for i, tp := range topics {
		id, ok := a2.Mapper().Lookup(tp)
		if !ok {
			t.Fatalf("topic %q lost across restart", tp)
		}
		rs, err := backend2.Query(id, 0, 1000)
		if err != nil || len(rs) != 2 {
			t.Fatalf("topic %q: %v, %v", tp, rs, err)
		}
		if rs[1].Value != float64(i)+0.5 {
			t.Fatalf("topic %q reading corrupted: %+v", tp, rs[1])
		}
	}
	// Ingest continues, and the recovered mapper reuses the same SIDs
	// so old and new readings merge under one sensor.
	a2.Handle(topics[0], core.EncodeReadings([]core.Reading{{Timestamp: 300, Value: 9}}))
	id, _ := a2.Mapper().Lookup(topics[0])
	rs, err := backend2.Query(id, 0, 1000)
	if err != nil || len(rs) != 3 || rs[2].Value != 9 {
		t.Fatalf("post-restart ingest: %v, %v", rs, err)
	}
}

// TestOpenBackendValidation: a fresh data directory opens as one
// store, node0, and reopens as it.
func TestOpenBackendValidation(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		c, err := OpenBackendOptions(dir, store.DiskOptions{}, store.ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(c.Backends()); n != 1 {
			t.Fatalf("open %d: %d backends, want the one store", i, n)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != "node0" {
		t.Fatalf("the directory holds %v (%v), want node0 alone", entries, err)
	}
}

// TestOpenBackendRejectsHiddenNodes: a directory in which an earlier
// build's embedded cluster left a second store, node1, is refused by
// name with the way out, and left byte-identical: opening node0 alone
// would hide node1's acknowledged readings.
func TestOpenBackendRejectsHiddenNodes(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"node0", "node1"} {
		n := store.NewNode(0)
		if err := n.OpenOptions(filepath.Join(dir, name), store.DiskOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := n.InsertBatch(core.SensorID{Hi: 1, Lo: 1}, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
			t.Fatal(err)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	before := storetest.Files(t, dir)
	_, err := OpenBackendOptions(dir, store.DiskOptions{}, store.ClusterOptions{})
	if !errors.Is(err, errSeveralStores) || !strings.Contains(err.Error(), "node1") || !strings.Contains(err.Error(), "dcdbcsvimport") {
		t.Fatalf("open over node0 and node1: %v, want the refusal naming node1 and the way out", err)
	}
	if after := storetest.Files(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused open changed the directory")
	}
}

// TestOpenBackendRefusesInterruptedSaveReady: the staging directory
// an earlier build's tool save left ready to commit is refused by
// name, and the directory is left byte-identical.
func TestOpenBackendRefusesInterruptedSaveReady(t *testing.T) {
	testRefusesInterruptedSave(t, "node0.ready")
}

// TestOpenBackendRefusesInterruptedSaveBuilding: the half-built
// staging directory of an earlier build's tool save is refused by
// name, and the directory is left byte-identical.
func TestOpenBackendRefusesInterruptedSaveBuilding(t *testing.T) {
	testRefusesInterruptedSave(t, "node0.building")
}

func testRefusesInterruptedSave(t *testing.T, staged string) {
	t.Helper()
	dir := t.TempDir()
	c, err := OpenBackendOptions(dir, store.DiskOptions{}, store.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InsertBatch(core.SensorID{Hi: 1, Lo: 1}, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, staged, "shard-00"), 0o755); err != nil {
		t.Fatal(err)
	}
	before := storetest.Files(t, dir)
	_, err = OpenBackendOptions(dir, store.DiskOptions{}, store.ClusterOptions{})
	if !errors.Is(err, errInterruptedSave) || !strings.Contains(err.Error(), staged) {
		t.Fatalf("open over %s: %v, want the refusal naming it", staged, err)
	}
	if after := storetest.Files(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused open over %s changed the directory", staged)
	}
}

func TestOnNewTopicVetoDropsMessage(t *testing.T) {
	backend := store.NewNode(0)
	calls := 0
	a := New(backend, nil, Options{
		Quiet: true,
		OnNewTopic: func(topic string, _ core.SensorID) error {
			calls++
			if topic == "/veto/me" {
				return fmt.Errorf("injected persistence failure")
			}
			return nil
		},
	})
	stored := func(topic string) int {
		id, _ := a.Mapper().Lookup(topic)
		rs, _ := backend.Query(id, 0, 10)
		return len(rs)
	}
	a.Handle("/veto/me", core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 1}}))
	if st := a.Stats(); st.Errors != 1 || st.Readings != 0 || stored("/veto/me") != 0 {
		t.Fatalf("stats = %+v, want the vetoed reading dropped", st)
	}
	// While persistence keeps failing, later readings of the topic are
	// also dropped — nothing may be stored before its name is durable.
	a.Handle("/veto/me", core.EncodeReadings([]core.Reading{{Timestamp: 2, Value: 3}}))
	if st := a.Stats(); st.Errors != 2 || st.Readings != 0 || calls != 2 {
		t.Fatalf("stats while persistence failing = %+v after %d calls", st, calls)
	}
	// A save that succeeds covers every code mapped before it was
	// asked for, the vetoed topic's included: that topic then stores
	// without another call.
	a.Handle("/keep/me", core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 2}}))
	a.Handle("/veto/me", core.EncodeReadings([]core.Reading{{Timestamp: 3, Value: 4}}))
	if st := a.Stats(); st.Errors != 2 || st.Readings != 2 || calls != 3 || stored("/veto/me") != 1 {
		t.Fatalf("stats after a successful save = %+v after %d calls", st, calls)
	}
}

// TestCodeDurableBeforeStore: a reading whose SID uses a level code
// that another connection's OnNewTopic is still persisting waits for a
// save of its own. Stored before, it would resolve to whatever name a
// crash let the code be assigned to next.
func TestCodeDurableBeforeStore(t *testing.T) {
	backend := store.NewNode(0)
	entered := make(chan string, 4)
	release := make(chan struct{})
	a := New(backend, nil, Options{
		Quiet: true,
		OnNewTopic: func(topic string, _ core.SensorID) error {
			entered <- topic
			<-release
			return nil
		},
	})
	handle := func(topic string) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			a.Handle(topic, core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 1}}))
		}()
		return done
	}
	await := func(want string) {
		t.Helper()
		select {
		case got := <-entered:
			if got != want {
				t.Fatalf("OnNewTopic for %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("OnNewTopic never called for %q", want)
		}
	}
	first := handle("/r/n0/s1")
	await("/r/n0/s1")
	release <- struct{}{}
	<-first

	// Connection 1 assigns n1 and s0 and blocks while the map is saved.
	conn1 := handle("/r/n1/s0")
	await("/r/n1/s0")
	// Connection 2's topic is new, but every code of it is assigned.
	conn2 := handle("/r/n1/s1")
	select {
	case got := <-entered:
		if got != "/r/n1/s1" {
			t.Fatalf("OnNewTopic for %q, want /r/n1/s1", got)
		}
	case <-conn2:
		t.Fatal("a reading under n1 was stored while the map holding n1 was still being saved")
	case <-time.After(5 * time.Second):
		t.Fatal("connection 2 neither stored nor asked for a save")
	}
	release <- struct{}{}
	release <- struct{}{}
	<-conn1
	<-conn2
	if st := a.Stats(); st.Readings != 3 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want all three readings stored", st)
	}
}

// TestOpenBackendOptionsDisablesHints: the one embedded store has no
// replica to hand a missed write to, so its open keeps no hinted-handoff
// queue.
func TestOpenBackendOptionsDisablesHints(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenBackendOptions(dir, store.DiskOptions{}, store.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.InsertBatch(core.SensorID{Hi: 1, Lo: 1}, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if _, statErr := os.Stat(HintsDir(dir)); !os.IsNotExist(statErr) {
		t.Fatal("the embedded store's open created a hint directory")
	}
}

func TestOpenRemoteBackendRoundtrip(t *testing.T) {
	n := store.NewNode(0)
	srv := rpc.NewServer(n, true)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := OpenRemoteBackend([]string{srv.Addr()}, store.ClusterOptions{}, rpc.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := New(c, nil, Options{Quiet: true})
	a.Handle("/remote/n1/power", core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 2}}))
	if got := a.Stats().Readings; got != 1 {
		t.Fatalf("agent acked %d readings over RPC, want 1", got)
	}
	id, _ := a.Mapper().Lookup("/remote/n1/power")
	rs, err := n.Query(id, 0, 1<<60)
	if err != nil || len(rs) != 1 {
		t.Fatalf("storage node holds %v, %v", rs, err)
	}
	if _, err := OpenRemoteBackend(nil, store.ClusterOptions{}, rpc.ClientOptions{}); err == nil {
		t.Fatal("OpenRemoteBackend with no addresses succeeded")
	}
}

// TestHandleKnownTopicAllocs: a message on a known topic is decoded,
// mapped, written and settled without parsing its topic again — the
// hierarchy learns a topic on its first stored reading only.
func TestHandleKnownTopicAllocs(t *testing.T) {
	a := New(store.NewNode(0), nil, Options{Quiet: true})
	payload := core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 1}})
	a.Handle("/s/n1/power", payload)
	if n := testing.AllocsPerRun(1000, func() { a.Handle("/s/n1/power", payload) }); n > 2 {
		t.Fatalf("Handle on a known topic allocates %v times, want at most 2", n)
	}
	if !hasSensor(a, "/s/n1/power") {
		t.Fatal("hierarchy missed the topic")
	}
}

// TestCacheTopicsGaugeAllocs: the dcdb_agent_cache_topics gauge counts
// the cached topics without listing them, so a scrape allocates as much
// with 20 000 topics as with 10.
func TestCacheTopicsGaugeAllocs(t *testing.T) {
	gatherAllocs := func(topics int) float64 {
		a := New(store.NewNode(0), nil, Options{Quiet: true})
		for i := 0; i < topics; i++ {
			a.Cache().Store(fmt.Sprintf("/s/n%d/power", i), core.Reading{Timestamp: 1, Value: 1})
		}
		for _, s := range a.Metrics().Gather() {
			if s.Name == "dcdb_agent_cache_topics" && s.Value != float64(topics) {
				t.Fatalf("dcdb_agent_cache_topics = %v, want %d", s.Value, topics)
			}
		}
		return testing.AllocsPerRun(20, func() { a.Metrics().Gather() })
	}
	if few, many := gatherAllocs(10), gatherAllocs(20_000); many > few {
		t.Fatalf("a gather allocates %v times with 20000 cached topics, %v with 10", many, few)
	}
}

// hasSensor reports whether a's hierarchy holds a sensor at topic:
// Sensors lists its path itself exactly then.
func hasSensor(a *Agent, topic string) bool {
	return slices.Contains(a.Hierarchy().Sensors(topic), topic)
}
