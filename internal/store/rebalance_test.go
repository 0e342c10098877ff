package store

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fold"
)

// Live-membership coordinator tests: ring placement, join/leave
// rebalance with the summary-verified cutover, writes racing the
// transition, and hint forwarding for departed members.

// nodeFactory returns a BackendFactory that creates in-process nodes on
// demand, so SetMembers can grow a test cluster, and the map it fills.
func nodeFactory() (func(id, addr string) NodeBackend, map[string]*Node) {
	var mu sync.Mutex
	nodes := make(map[string]*Node)
	return func(id, addr string) NodeBackend {
		mu.Lock()
		defer mu.Unlock()
		n, ok := nodes[id]
		if !ok {
			n = NewNode(0)
			nodes[id] = n
		}
		return n
	}, nodes
}

// memberInfos names in-process members: the address is the ID.
func memberInfos(ids ...string) []MemberInfo {
	ms := make([]MemberInfo, len(ids))
	for i, id := range ids {
		ms[i] = MemberInfo{ID: id, Addr: id}
	}
	return ms
}

// ringCluster builds a cluster from member identities over in-process
// nodes named by the given IDs; the node map is returned for direct
// inspection.
func ringCluster(t *testing.T, ids []string, o ClusterOptions) (*Cluster, map[string]*Node) {
	t.Helper()
	var nodes map[string]*Node
	o.BackendFactory, nodes = nodeFactory()
	if o.RebalanceThrottle == 0 {
		o.RebalanceThrottle = -1 // tests want fast transfers
	}
	c, err := NewClusterMembers(memberInfos(ids...), o)
	if err != nil {
		t.Fatal(err)
	}
	return c, nodes
}

// listCluster builds the same cluster from a backend list, which names
// in-process members node<i>: ids must be node0, node1, ...
func listCluster(t *testing.T, ids []string, o ClusterOptions) (*Cluster, map[string]*Node) {
	t.Helper()
	var nodes map[string]*Node
	o.BackendFactory, nodes = nodeFactory()
	if o.RebalanceThrottle == 0 {
		o.RebalanceThrottle = -1
	}
	backends := make([]NodeBackend, len(ids))
	for i, id := range ids {
		backends[i] = o.BackendFactory(id, id)
	}
	c, err := NewClusterOptions(backends, o)
	if err != nil {
		t.Fatal(err)
	}
	return c, nodes
}

// clusterShapes are the two ways a coordinator is handed its members;
// a list-built cluster must grow and shrink like any other.
var clusterShapes = []struct {
	name  string
	ids   []string // five member names, in ring-independent order
	build func(*testing.T, []string, ClusterOptions) (*Cluster, map[string]*Node)
}{
	{"members", []string{"alpha", "bravo", "charlie", "delta", "echo"}, ringCluster},
	{"list", []string{"node0", "node1", "node2", "node3", "node4"}, listCluster},
}

// rebalancing reports whether c is streaming a ring transition, as its
// dcdb_cluster_rebalance_active gauge shows it.
func rebalancing(t *testing.T, c *Cluster) bool {
	t.Helper()
	return sampleValue(t, c.Metrics().Gather(), "dcdb_cluster_rebalance_active") == 1
}

// waitRebalance blocks until the transition finishes, failing the test
// if it does not converge.
func waitRebalance(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if !rebalancing(t, c) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("rebalance did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// seedSensors inserts nSensors x nReadings and returns the sensor set.
func seedSensors(t *testing.T, c *Cluster, nSensors, nReadings int) []core.SensorID {
	t.Helper()
	ids := make([]core.SensorID, nSensors)
	for s := 0; s < nSensors; s++ {
		ids[s] = sid(uint64(s+1), uint64(s*7+3))
		rs := make([]core.Reading, nReadings)
		for i := range rs {
			rs[i] = core.Reading{Timestamp: int64(i + 1), Value: float64(s*1000 + i)}
		}
		if err := c.InsertBatch(ids[s], rs, 0); err != nil {
			t.Fatalf("seeding sensor %d: %v", s, err)
		}
	}
	return ids
}

// checkSensors asserts every seeded sensor reads back complete.
func checkSensors(t *testing.T, c *Cluster, ids []core.SensorID, nReadings int) {
	t.Helper()
	for s, id := range ids {
		rs, err := c.Query(id, 0, 1<<60)
		if err != nil {
			t.Fatalf("sensor %d: %v", s, err)
		}
		if len(rs) != nReadings {
			t.Fatalf("sensor %d: %d readings, want %d", s, len(rs), nReadings)
		}
		for i, r := range rs {
			if r.Timestamp != int64(i+1) || r.Value != float64(s*1000+i) {
				t.Fatalf("sensor %d reading %d: got (%d, %v)", s, i, r.Timestamp, r.Value)
			}
		}
	}
}

func TestRingClusterReadsOwnWrites(t *testing.T) {
	c, _ := ringCluster(t, []string{"alpha", "bravo", "charlie"}, ClusterOptions{
		Replication:      3,
		WriteConsistency: ConsistencyQuorum,
		ReadConsistency:  ConsistencyQuorum,
	})
	defer c.Close()
	ids := seedSensors(t, c, 40, 20)
	checkSensors(t, c, ids, 20)
	if n := len(c.Backends()); n != 3 || rebalancing(t, c) {
		t.Fatalf("%d members, rebalancing %v; want 3 at rest", n, rebalancing(t, c))
	}
}

func TestJoinRebalanceMovesData(t *testing.T) {
	for _, sh := range clusterShapes {
		t.Run(sh.name, func(t *testing.T) {
			c, nodes := sh.build(t, sh.ids[:3], ClusterOptions{
				Replication:      2,
				WriteConsistency: ConsistencyQuorum,
				ReadConsistency:  ConsistencyQuorum,
			})
			defer c.Close()
			ids := seedSensors(t, c, 60, 25)
			before := make([][]string, len(ids))
			for i, id := range ids {
				before[i] = c.Owners(id)
			}

			joiner := sh.ids[3]
			if err := c.SetMembers(memberInfos(sh.ids[:4]...)); err != nil {
				t.Fatal(err)
			}
			waitRebalance(t, c)

			checkSensors(t, c, ids, 25)
			// The joiner must actually own data now: with 4 members at 64
			// vnodes it holds ~1/2 of all (sensor, replica) placements at
			// rf=2.
			if nodes[joiner] == nil {
				t.Fatal("factory never built the joining member")
			}
			if ins, _, _ := nodes[joiner].Stats(); ins == 0 {
				t.Fatal("no data moved to the joining member")
			}
			// Post-cutover reads resolve against the new ring only, and
			// the join moved nothing it did not have to: a sensor the
			// joiner does not serve keeps its owners.
			moved := 0
			for i, id := range ids {
				after := c.Owners(id)
				if slices.Contains(after, joiner) {
					moved++
				} else if !slices.Equal(after, before[i]) {
					t.Fatalf("sensor %d moved from %v to %v without involving the joiner", i, before[i], after)
				}
			}
			if moved == 0 {
				t.Fatal("new ring assigns the joiner no sensors")
			}
		})
	}
}

func TestLeaveRebalanceKeepsDataReadable(t *testing.T) {
	for _, sh := range clusterShapes {
		t.Run(sh.name, func(t *testing.T) {
			c, _ := sh.build(t, sh.ids[:3], ClusterOptions{
				Replication:      2,
				WriteConsistency: ConsistencyQuorum,
				ReadConsistency:  ConsistencyQuorum,
			})
			defer c.Close()
			ids := seedSensors(t, c, 60, 25)

			if err := c.SetMembers(memberInfos(sh.ids[:2]...)); err != nil {
				t.Fatal(err)
			}
			waitRebalance(t, c)

			if n := len(c.Backends()); n != 2 {
				t.Fatalf("after leave: %d members, want 2", n)
			}
			checkSensors(t, c, ids, 25)
		})
	}
}

func TestWritesDuringRebalanceStayReadable(t *testing.T) {
	c, _ := ringCluster(t, []string{"alpha", "bravo", "charlie"}, ClusterOptions{
		Replication:      2,
		WriteConsistency: ConsistencyQuorum,
		ReadConsistency:  ConsistencyQuorum,
		// A real throttle keeps the transition open long enough for the
		// concurrent writer to land writes mid-transfer.
		RebalanceThrottle: 500 * time.Microsecond,
	})
	defer c.Close()
	ids := seedSensors(t, c, 50, 30)

	err := c.SetMembers([]MemberInfo{
		{ID: "alpha", Addr: "alpha"}, {ID: "bravo", Addr: "bravo"},
		{ID: "charlie", Addr: "charlie"}, {ID: "delta", Addr: "delta"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Race acked writes against the transfer: every InsertBatch that
	// returns nil must be readable at QUORUM after convergence.
	extra := make(map[int]int) // sensor -> acked extra readings
	for i := 0; i < 200; i++ {
		s := i % len(ids)
		ts := int64(1000 + i)
		if err := c.InsertBatch(ids[s], []core.Reading{{Timestamp: ts, Value: float64(ts)}}, 0); err == nil {
			extra[s]++
		}
	}
	waitRebalance(t, c)

	for s, id := range ids {
		rs, err := c.Query(id, 0, 1<<60)
		if err != nil {
			t.Fatalf("sensor %d: %v", s, err)
		}
		if want := 30 + extra[s]; len(rs) != want {
			t.Fatalf("sensor %d: %d readings after rebalance, want %d", s, len(rs), want)
		}
	}
}

func TestSetMembersRetargetConverges(t *testing.T) {
	for _, sh := range clusterShapes {
		t.Run(sh.name, func(t *testing.T) {
			c, _ := sh.build(t, sh.ids[:3], ClusterOptions{
				Replication:       2,
				WriteConsistency:  ConsistencyQuorum,
				ReadConsistency:   ConsistencyQuorum,
				RebalanceThrottle: 200 * time.Microsecond,
			})
			defer c.Close()
			ids := seedSensors(t, c, 40, 20)

			// Two membership changes back to back: the second supersedes
			// the first mid-transfer, and reads keep anchoring to the
			// original ring until the final cutover.
			if err := c.SetMembers(memberInfos(sh.ids[:4]...)); err != nil {
				t.Fatal(err)
			}
			departed := sh.ids[2]
			if err := c.SetMembers(memberInfos(sh.ids[0], sh.ids[1], sh.ids[3], sh.ids[4])); err != nil {
				t.Fatal(err)
			}
			waitRebalance(t, c)

			ms := c.ClusterStats()
			if len(ms) != 4 {
				t.Fatalf("after retarget: %d members, want 4", len(ms))
			}
			for _, m := range ms {
				if m.ID == departed {
					t.Fatal("departed member still in topology after cutover")
				}
			}
			checkSensors(t, c, ids, 20)
		})
	}
}

func TestHintForwardingForDepartedMember(t *testing.T) {
	dir := t.TempDir()
	c, nodes := ringCluster(t, []string{"alpha", "bravo", "charlie"}, ClusterOptions{
		Replication:        3,
		WriteConsistency:   ConsistencyQuorum,
		ReadConsistency:    ConsistencyQuorum,
		HintDir:            dir,
		HintReplayInterval: -1, // replay manually
	})
	defer c.Close()

	id := sid(99, 7)
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
		t.Fatal(err)
	}

	// Down one replica; a QUORUM write still acks and queues a hint.
	nodes["charlie"].SetDown(true)
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 2, Value: 2}}, 0); err != nil {
		t.Fatalf("QUORUM write with one down replica: %v", err)
	}
	if _, _, pending := c.HintStats(); pending == 0 {
		t.Fatal("no hint queued for the down replica")
	}

	// The down member leaves the ring instead of recovering. After the
	// cutover its hints are forwarded through the remaining owners.
	if err := c.SetMembers([]MemberInfo{
		{ID: "alpha", Addr: "alpha"}, {ID: "bravo", Addr: "bravo"},
	}); err != nil {
		t.Fatal(err)
	}
	waitRebalance(t, c)
	if err := c.ReplayHints(); err != nil {
		t.Fatalf("forwarding hints of the departed member: %v", err)
	}
	if _, _, pending := c.HintStats(); pending != 0 {
		t.Fatalf("%d members still have pending hints after forwarding", pending)
	}
	rs, err := c.Query(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[1].Value != 2 {
		t.Fatalf("after forwarding: %v", rs)
	}
}

func TestHintIDEscapingRoundTrips(t *testing.T) {
	cases := []string{"node0", "127.0.0.1:4441", "[::1]:80", "a b%c/d", "plain-id_1.x"}
	for _, id := range cases {
		esc := escapeHintID(id)
		for i := 0; i < len(esc); i++ {
			ch := esc[i]
			ok := ch == '.' || ch == '_' || ch == '-' || ch == '%' ||
				(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9')
			if !ok {
				t.Fatalf("escapeHintID(%q) = %q: unsafe byte %q", id, esc, ch)
			}
		}
		if got := unescapeHintID(esc); got != id {
			t.Fatalf("round trip %q -> %q -> %q", id, esc, got)
		}
	}
	if escapeHintID("node0") != "node0" {
		t.Fatal("legacy IDs must escape to themselves")
	}
}

func TestRebalanceMetricsAdvance(t *testing.T) {
	c, _ := ringCluster(t, []string{"alpha", "bravo"}, ClusterOptions{
		Replication:      2,
		WriteConsistency: ConsistencyQuorum,
		ReadConsistency:  ConsistencyQuorum,
	})
	defer c.Close()
	seedSensors(t, c, 10, 5)
	if err := c.SetMembers([]MemberInfo{
		{ID: "alpha", Addr: "alpha"}, {ID: "bravo", Addr: "bravo"}, {ID: "charlie", Addr: "charlie"},
	}); err != nil {
		t.Fatal(err)
	}
	waitRebalance(t, c)
	var transitions, cutovers float64
	for _, s := range c.Metrics().Gather() {
		switch s.Name {
		case "dcdb_cluster_rebalance_transitions_total":
			transitions = s.Value
		case "dcdb_cluster_rebalance_cutovers_total":
			cutovers = s.Value
		}
	}
	if transitions < 1 || cutovers < 1 {
		t.Fatalf("rebalance metrics: transitions=%v cutovers=%v", transitions, cutovers)
	}
}

func TestRingClusterConcurrentReadsDuringCutover(t *testing.T) {
	c, _ := ringCluster(t, []string{"alpha", "bravo", "charlie"}, ClusterOptions{
		Replication:       2,
		WriteConsistency:  ConsistencyQuorum,
		ReadConsistency:   ConsistencyQuorum,
		RebalanceThrottle: 100 * time.Microsecond,
	})
	defer c.Close()
	ids := seedSensors(t, c, 30, 10)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readErr error
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(w*7+i)%len(ids)]
				rs, err := c.Query(id, 0, 1<<60)
				if err == nil && len(rs) != 10 {
					err = fmt.Errorf("%d readings, want 10", len(rs))
				}
				if err != nil {
					mu.Lock()
					if readErr == nil {
						readErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}

	if err := c.SetMembers([]MemberInfo{
		{ID: "alpha", Addr: "alpha"}, {ID: "bravo", Addr: "bravo"},
		{ID: "charlie", Addr: "charlie"}, {ID: "delta", Addr: "delta"},
	}); err != nil {
		t.Fatal(err)
	}
	waitRebalance(t, c)
	close(stop)
	wg.Wait()
	if readErr != nil {
		t.Fatalf("concurrent read during rebalance: %v", readErr)
	}
}

// TestRebalanceMovesOnlyWhatNewOwnersLack: the rebalance merge reads
// the new owner beside the old ones, so a new owner that already holds
// part of the history — a retried round, a member that rejoins — is
// sent only the rest, and a copy it holds at the same version with
// other value bits is rewritten to the winner.
func TestRebalanceMovesOnlyWhatNewOwnersLack(t *testing.T) {
	factory, nodes := nodeFactory()
	c, err := NewClusterMembers(memberInfos("alpha"), ClusterOptions{
		Replication: 2, RebalanceThrottle: -1, BackendFactory: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := sid(95, 1)
	history := make([]VersionedReading, 100)
	for i := range history {
		history[i] = VersionedReading{Timestamp: int64(i), Value: float64(i + 1), Version: uint64(1000 + i)}
	}
	if err := nodes["alpha"].InsertVersioned(id, history); err != nil {
		t.Fatal(err)
	}
	// The joining member holds the first 60 readings, one of them at
	// its version but with lower value bits.
	held := slices.Clone(history[:60])
	held[10].Value = 0
	if err := factory("bravo", "bravo").InsertVersioned(id, held); err != nil {
		t.Fatal(err)
	}
	if err := c.SetMembers(memberInfos("alpha", "bravo")); err != nil {
		t.Fatal(err)
	}
	waitRebalance(t, c)
	if moved := c.met.rebReadings.Load(); moved != 41 {
		t.Fatalf("the rebalance moved %d readings, want the 40 bravo lacked and the one it held with other bits", moved)
	}
	got, err := queryVersioned(nodes["bravo"], id, 0, 1000)
	if err != nil || !slices.Equal(got, history) {
		t.Fatalf("bravo holds %+v (%v) after the rebalance, want the whole history", got, err)
	}
}

// summaryHook is a node whose Aggregate first runs a hook once: the
// moment a rebalance verifies its hand-off, for a test to land a write
// there.
type summaryHook struct {
	*Node
	once sync.Once
	hook func()
}

func (h *summaryHook) Aggregate(id core.SensorID, spec fold.Spec) (fold.State, error) {
	h.once.Do(h.hook)
	return h.Node.Aggregate(id, spec)
}

// TestRebalanceVerifiesByASecondMerge: when a write lands while the
// hand-off is verified, the new owner's summary no longer matches the
// merge, and a second merge decides. A write that reached every owner
// leaves nothing lacking: the round cuts over. History the new owner
// lacks — a reading stamped before the transition — fails the round,
// and the retried round moves just that reading. A write stamped after
// the transition began, still on its way to the new owner by the union
// fan-out, does not hold the cutover up.
func TestRebalanceVerifiesByASecondMerge(t *testing.T) {
	id := sid(95, 2)
	for _, tc := range []struct {
		name        string
		onlyOld     bool // a second racing write reached only the old owner
		newer       bool // and was stamped after the transition began
		wantMoved   int64
		wantLacking int // readings the new owner lacks at the cutover
	}{
		{"reached every owner", false, false, 50, 0},
		{"history missing from the new owner", true, false, 51, 0},
		{"newer, on its way to the new owner", true, true, 50, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := map[string]*Node{"alpha": NewNode(0), "bravo": NewNode(0)}
			var c *Cluster
			var err error
			write := func(n *Node, ts int64, version uint64) {
				if err := n.InsertVersioned(id, []VersionedReading{{Timestamp: ts, Value: 1, Version: version}}); err != nil {
					t.Error(err)
				}
			}
			bravo := &summaryHook{Node: nodes["bravo"], hook: func() {
				write(nodes["bravo"], 1000, 9000)
				write(nodes["alpha"], 1000, 9000)
				if tc.onlyOld {
					version := uint64(9000)
					if tc.newer {
						version = c.nextVersion()
					}
					write(nodes["alpha"], 1001, version)
				}
			}}
			c, err = NewClusterMembers(memberInfos("alpha"), ClusterOptions{
				Replication: 2, RebalanceThrottle: -1,
				BackendFactory: func(id, _ string) NodeBackend {
					if id == "bravo" {
						return bravo
					}
					return nodes[id]
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for ts := int64(0); ts < 50; ts++ {
				write(nodes["alpha"], ts, 9000)
			}
			c.nextVersion() // the coordinator has stamped writes before the transition
			if err := c.SetMembers(memberInfos("alpha", "bravo")); err != nil {
				t.Fatal(err)
			}
			waitRebalance(t, c)
			if moved := c.met.rebReadings.Load(); moved != tc.wantMoved {
				t.Fatalf("moved %d readings, want %d", moved, tc.wantMoved)
			}
			want, _ := queryVersioned(nodes["alpha"], id, 0, 2000)
			want = want[:len(want)-tc.wantLacking]
			if got, err := queryVersioned(nodes["bravo"], id, 0, 2000); err != nil || !slices.Equal(got, want) {
				t.Fatalf("the new owner holds %d readings (%v), want %d", len(got), err, len(want))
			}
		})
	}
}

// slowNode is a joiner slowed by the transfer: every write it is handed
// waits first.
type slowNode struct {
	*Node
	delay time.Duration
}

func (s *slowNode) InsertVersioned(id core.SensorID, vrs []VersionedReading) error {
	time.Sleep(s.delay)
	return s.Node.InsertVersioned(id, vrs)
}

// TestRebalanceCutsOverUnderSustainedIngest: a writer per sensor keeps
// every sensor busy through a join whose new owner is slow, so at any
// moment each sensor has a write on its old owner that the new one does
// not hold yet. The writers start once the join is under way, so no
// write of theirs is history the copy has to move. Those writes travel the union fan-out; the verification
// must not count them against the copy, so the join cuts over in its
// first round, and every acknowledged write ends up on the new owner.
func TestRebalanceCutsOverUnderSustainedIngest(t *testing.T) {
	const sensors, seeded = 16, 100
	alpha, bravo := NewNode(0), &slowNode{Node: NewNode(0), delay: time.Millisecond}
	c, err := NewClusterMembers(memberInfos("alpha"), ClusterOptions{
		Replication: 2, RebalanceThrottle: -1,
		BackendFactory: func(id, _ string) NodeBackend {
			if id == "bravo" {
				return bravo
			}
			return alpha
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids := make([]core.SensorID, sensors)
	for s := range ids {
		ids[s] = sid(uint64(s+1), 7)
		rs := make([]core.Reading, seeded)
		for i := range rs {
			rs[i] = core.Reading{Timestamp: int64(i), Value: float64(i)}
		}
		if err := c.InsertBatch(ids[s], rs, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetMembers(memberInfos("alpha", "bravo")); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	acked := make([]int, sensors)
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	for s := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := int64(seeded); ; ts++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.InsertBatch(ids[s], []core.Reading{{Timestamp: ts, Value: float64(ts)}}, 0); err != nil {
					t.Error(err)
					return
				}
				acked[s]++
			}
		}()
	}
	waitRebalance(t, c)
	halt()
	if moved := c.met.rebSensors.Load(); moved != sensors {
		t.Fatalf("%d sensor moves verified for %d sensors: a round failed and was retried", moved, sensors)
	}
	for s, id := range ids {
		rs, err := bravo.Query(id, 0, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		if want := seeded + acked[s]; len(rs) != want {
			t.Fatalf("sensor %d: the new owner holds %d readings, want %d", s, len(rs), want)
		}
	}
}
