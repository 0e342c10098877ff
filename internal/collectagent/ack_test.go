package collectagent

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/mqtt"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
	"dcdb/internal/store/storetest"
)

// remoteAgent starts an agent over real TCP on both sides: MQTT in
// front, three loopback storage nodes behind (replication 2, QUORUM
// both ways), so a message travels broker → agent → write queue →
// opWrite frame like it does between processes.
func remoteAgent(t *testing.T) (*Agent, *store.Cluster, []*store.Node) {
	t.Helper()
	var addrs []string
	var nodes []*store.Node
	for i := 0; i < 3; i++ {
		n := store.NewNode(0)
		srv := rpc.NewServer(n, true)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs, nodes = append(addrs, srv.Addr()), append(nodes, n)
	}
	c, err := OpenRemoteBackend(addrs, store.ClusterOptions{
		Replication:      2,
		WriteConsistency: store.ConsistencyQuorum,
		ReadConsistency:  store.ConsistencyQuorum,
	}, rpc.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := New(c, nil, Options{Quiet: true})
	if err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		c.Close()
	})
	return a, c, nodes
}

// TestAckContractEarlierMessagesReadable: when a PUBACK arrives, every
// earlier message of that connection — QoS 0 ones included — is
// readable at the read consistency level. Two connections publish at
// once, so their entries share frames.
func TestAckContractEarlierMessagesReadable(t *testing.T) {
	a, c, _ := remoteAgent(t)
	const conns, msgs = 2, 120
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			client, err := mqtt.Dial(a.Addr(), mqtt.DialOptions{ClientID: fmt.Sprintf("pusher-%d", k)})
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			topic := func(m int) string { return fmt.Sprintf("/ack/c%d/s%d", k, m%5) }
			for m := 0; m < msgs; m++ {
				// Every third message is fire-and-forget; the next
				// acknowledgement covers it.
				qos := byte(1)
				if m%3 == 1 {
					qos = 0
				}
				payload := core.EncodeReadings([]core.Reading{{Timestamp: int64(m + 1), Value: float64(k*1000 + m)}})
				if err := client.Publish(topic(m), payload, qos); err != nil {
					t.Error(err)
					return
				}
				if qos == 0 {
					continue
				}
				for earlier := max(0, m-2); earlier < m; earlier++ {
					id, ok := a.Mapper().Lookup(topic(earlier))
					if !ok {
						t.Errorf("connection %d: PUBACK(%d) arrived before message %d was even mapped", k, m, earlier)
						return
					}
					ts := int64(earlier + 1)
					rs, err := c.Query(id, ts, ts)
					if err != nil || len(rs) != 1 || rs[0].Value != float64(k*1000+earlier) {
						t.Errorf("connection %d: PUBACK(%d) arrived but message %d reads %v, %v", k, m, earlier, rs, err)
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
	// Readings are counted when stored, so once the last store lands the
	// counter is exact — and it is never ahead of what was published.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st := a.Stats()
		if st.Readings > conns*msgs || st.Errors != 0 {
			t.Fatalf("stats %+v after %d messages", st, conns*msgs)
		}
		if st.Readings == conns*msgs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v: the last messages never settled", st)
		}
	}
}

// TestAckContractSameTimestampLaterWins: two messages of one connection
// that rewrite the same timestamp resolve to the later one on every
// replica, although the two writes overlap in flight: the stamp is
// taken as a message is received, in arrival order.
func TestAckContractSameTimestampLaterWins(t *testing.T) {
	a, c, nodes := remoteAgent(t)
	client, err := mqtt.Dial(a.Addr(), mqtt.DialOptions{ClientID: "rewriter"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const rounds = 100
	topic := "/ack/rewrite/s0"
	for r := 1; r <= rounds; r++ {
		for _, v := range []float64{1, 2} {
			payload := core.EncodeReadings([]core.Reading{{Timestamp: int64(r), Value: v}})
			if err := client.Publish(topic, payload, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One more acknowledgement covers the last rewrite.
	if err := client.Publish("/ack/rewrite/flush", core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 0}}), 1); err != nil {
		t.Fatal(err)
	}
	id, _ := a.Mapper().Lookup(topic)
	rs, err := c.Query(id, 0, 1<<60)
	if err != nil || len(rs) != rounds {
		t.Fatalf("%d readings, %v", len(rs), err)
	}
	holders := 0
	for _, n := range nodes {
		vrs, err := storetest.Versioned(n, id, 0, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		if len(vrs) == 0 {
			continue
		}
		holders++
		for _, v := range vrs {
			if v.Value != 2 {
				t.Fatalf("a replica resolved timestamp %d to the earlier message (version %d)", v.Timestamp, v.Version)
			}
		}
	}
	if holders != 2 {
		t.Fatalf("%d replicas hold the sensor, want 2", holders)
	}
}

// gated is a backend whose writes begin at once and finish when told.
type gated struct {
	*store.Node
	release chan struct{}
}

func (g gated) BeginInsert(id core.SensorID, rs []core.Reading, ttl time.Duration) func() error {
	return func() error {
		<-g.release
		return g.Node.InsertBatch(id, rs, ttl)
	}
}

// TestAckContractReadingsCountOnlyWhenStored: dcdb_agent_readings_total
// — what a harness waits on to know everything acknowledged is stored —
// moves when a write has met its consistency level, never when it is
// merely begun or acknowledged.
func TestAckContractReadingsCountOnlyWhenStored(t *testing.T) {
	g := gated{Node: store.NewNode(0), release: make(chan struct{})}
	a := New(g, nil, Options{Quiet: true})
	if err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	client, err := mqtt.Dial(a.Addr(), mqtt.DialOptions{ClientID: "p"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Publish("/ack/gated/s0", core.EncodeReadings([]core.Reading{{Timestamp: 1, Value: 1}}), 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if st := a.Stats(); st.Messages != 1 || st.Readings != 0 {
		t.Fatalf("stats %+v with the write acknowledged but not stored", st)
	}
	if _, ok := a.Cache().Latest("/ack/gated/s0"); ok {
		t.Fatal("the cache serves a reading that is not stored")
	}
	close(g.release)
	for deadline := time.Now().Add(5 * time.Second); a.Stats().Readings != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v after the write was released", a.Stats())
		}
	}
}
