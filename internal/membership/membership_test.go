package membership

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// memNet is an in-memory gossip fabric: exchanges call the target
// agent's Handle directly, and addresses can be partitioned off to
// simulate network failure without sockets.
type memNet struct {
	mu      sync.Mutex
	agents  map[string]*Agent
	blocked map[string]bool
}

func newMemNet() *memNet {
	return &memNet{agents: make(map[string]*Agent), blocked: make(map[string]bool)}
}

func (n *memNet) add(a *Agent)                   { n.mu.Lock(); n.agents[a.cfg.Addr] = a; n.mu.Unlock() }
func (n *memNet) setBlocked(addr string, b bool) { n.mu.Lock(); n.blocked[addr] = b; n.mu.Unlock() }

type memTransport struct {
	net  *memNet
	from string
}

func (t *memTransport) Exchange(addr string, state []byte) ([]byte, error) {
	t.net.mu.Lock()
	a := t.net.agents[addr]
	cut := t.net.blocked[addr] || t.net.blocked[t.from]
	t.net.mu.Unlock()
	if a == nil || cut {
		return nil, fmt.Errorf("memnet: %s unreachable from %s", addr, t.from)
	}
	return a.Handle(state)
}

func (t *memTransport) Close() error { return nil }

// newAgent builds a fast test agent on the fabric.
func newAgent(t *testing.T, net *memNet, id string, seed int64) *Agent {
	t.Helper()
	a, err := New(Config{
		ID:           id,
		Interval:     5 * time.Millisecond,
		SuspectAfter: 40 * time.Millisecond,
		DeadAfter:    120 * time.Millisecond,
		Transport:    &memTransport{net: net, from: id},
		Seed:         seed,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.add(a)
	return a
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// members is a's member table, self included and sorted by ID, as a
// answers a gossip exchange that brings it nothing.
func members(a *Agent) []Member {
	resp, err := a.Handle(encodeState(nil))
	if err != nil {
		panic(err)
	}
	ms, err := decodeState(resp)
	if err != nil {
		panic(err)
	}
	return ms
}

// self is a's own record in its member table.
func self(a *Agent) Member {
	for _, m := range members(a) {
		if m.ID == a.cfg.ID {
			return m
		}
	}
	panic("an agent's table lacks its own record")
}

// ringIDs lists the members a's table holds placement-eligible: not
// Dead or Left.
func ringIDs(a *Agent) []string {
	var ids []string
	for _, m := range members(a) {
		if m.Status < StatusLeft {
			ids = append(ids, m.ID)
		}
	}
	return ids
}

func sameRing(agents []*Agent, want int) bool {
	var key string
	for i, a := range agents {
		ids := ringIDs(a)
		if len(ids) != want {
			return false
		}
		k := ringKey(ids)
		if i == 0 {
			key = k
		} else if k != key {
			return false
		}
	}
	return true
}

func TestStateCodecRoundTrip(t *testing.T) {
	in := []Member{
		{ID: "a", Addr: "127.0.0.1:1", Incarnation: 42, Heartbeat: 7, Status: StatusAlive},
		{ID: "b", Addr: "127.0.0.1:2", Incarnation: 1, Heartbeat: 0, Status: StatusDead},
		{ID: "c", Addr: "", Incarnation: 9, Heartbeat: 3, Status: StatusLeft},
	}
	out, err := decodeState(encodeState(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d members, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("member %d: %+v != %+v", i, out[i], in[i])
		}
	}
	// Truncations must error, not panic.
	enc := encodeState(in)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeState(enc[:cut]); err == nil && cut > 1 {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}

func TestSupersedesRules(t *testing.T) {
	base := Member{ID: "x", Incarnation: 5, Heartbeat: 10, Status: StatusAlive}
	cases := []struct {
		name string
		a, b Member
		want bool
	}{
		{"higher incarnation wins", Member{Incarnation: 6, Status: StatusAlive}, Member{Incarnation: 5, Heartbeat: 99, Status: StatusDead}, true},
		{"dead beats alive at equal incarnation", Member{Incarnation: 5, Status: StatusDead}, base, true},
		{"suspect beats alive", Member{Incarnation: 5, Heartbeat: 1, Status: StatusSuspect}, base, true},
		{"alive does not beat suspect", base, Member{Incarnation: 5, Heartbeat: 1, Status: StatusSuspect}, false},
		{"dead beats left", Member{Incarnation: 5, Status: StatusDead}, Member{Incarnation: 5, Status: StatusLeft}, true},
		{"newer heartbeat wins within status", Member{Incarnation: 5, Heartbeat: 11, Status: StatusAlive}, base, true},
		{"equal record does not supersede", base, base, false},
	}
	for _, tc := range cases {
		if got := supersedes(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: supersedes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestThreeNodesConverge(t *testing.T) {
	net := newMemNet()
	agents := []*Agent{
		newAgent(t, net, "a", 1),
		newAgent(t, net, "b", 2),
		newAgent(t, net, "c", 3),
	}
	for _, a := range agents {
		defer a.Stop()
	}
	// A chain of joins: b knows a, c knows b. Gossip must flood the
	// full set everywhere.
	if err := agents[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := agents[2].Join("b"); err != nil {
		t.Fatal(err)
	}
	for _, a := range agents {
		a.Start()
	}
	waitFor(t, "full convergence", func() bool { return sameRing(agents, 3) })
}

func TestFailureDetectionMarksDead(t *testing.T) {
	net := newMemNet()
	agents := []*Agent{
		newAgent(t, net, "a", 1),
		newAgent(t, net, "b", 2),
		newAgent(t, net, "c", 3),
	}
	for _, a := range agents {
		defer a.Stop()
	}
	if err := agents[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := agents[2].Join("a"); err != nil {
		t.Fatal(err)
	}
	for _, a := range agents {
		a.Start()
	}
	waitFor(t, "convergence", func() bool { return sameRing(agents, 3) })

	// Cut c off: its heartbeat stops reaching a and b, so they must
	// walk it through suspect to dead and drop it from placement.
	net.setBlocked("c", true)
	agents[2].Stop()
	waitFor(t, "c dead on a and b", func() bool {
		return sameRing(agents[:2], 2)
	})
	for _, a := range agents[:2] {
		for _, m := range members(a) {
			if m.ID == "c" && m.Status != StatusDead {
				t.Fatalf("c on %s: %s, want dead tombstone", a.cfg.ID, m.Status)
			}
		}
	}
}

func TestSuspectRefutation(t *testing.T) {
	net := newMemNet()
	a := newAgent(t, net, "a", 1)
	b := newAgent(t, net, "b", 2)
	defer a.Stop()
	defer b.Stop()
	if err := b.Join("a"); err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	waitFor(t, "convergence", func() bool { return sameRing([]*Agent{a, b}, 2) })

	// Inject a false dead rumour about a (at a's own incarnation) into
	// b. a must refute with a higher incarnation, and both tables must
	// settle back on alive.
	before := self(a)
	rumour := encodeState([]Member{{
		ID: before.ID, Addr: before.Addr,
		Incarnation: before.Incarnation, Heartbeat: before.Heartbeat + 100,
		Status: StatusDead,
	}})
	if _, err := b.Handle(rumour); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "refutation to spread", func() bool {
		for _, m := range members(b) {
			if m.ID == "a" {
				return m.Status == StatusAlive && m.Incarnation > before.Incarnation
			}
		}
		return false
	})
	if got := self(a); got.Incarnation <= before.Incarnation || got.Status != StatusAlive {
		t.Fatalf("a did not refute: %+v", got)
	}
}

func TestGracefulLeave(t *testing.T) {
	net := newMemNet()
	agents := []*Agent{
		newAgent(t, net, "a", 1),
		newAgent(t, net, "b", 2),
		newAgent(t, net, "c", 3),
	}
	if err := agents[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := agents[2].Join("a"); err != nil {
		t.Fatal(err)
	}
	for _, a := range agents {
		a.Start()
	}
	defer agents[0].Stop()
	defer agents[1].Stop()
	waitFor(t, "convergence", func() bool { return sameRing(agents, 3) })

	agents[2].Leave()
	// Leave disseminates immediately: the survivors drop c from
	// placement well before any failure-detection timeout, as a Left
	// tombstone rather than a dead rumour.
	waitFor(t, "c left on a and b", func() bool { return sameRing(agents[:2], 2) })
	sawLeft := false
	for _, m := range members(agents[0]) {
		if m.ID == "c" && m.Status == StatusLeft {
			sawLeft = true
		}
	}
	if !sawLeft {
		t.Fatal("no Left tombstone for c")
	}
}

func TestRestartedNodeOutranksItsPastLife(t *testing.T) {
	net := newMemNet()
	a := newAgent(t, net, "a", 1)
	b := newAgent(t, net, "b", 2)
	defer a.Stop()
	defer b.Stop()
	if err := b.Join("a"); err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	waitFor(t, "convergence", func() bool { return sameRing([]*Agent{a, b}, 2) })

	// b dies without ceremony; a detects it.
	net.setBlocked("b", true)
	b.Stop()
	waitFor(t, "b dead on a", func() bool { return len(ringIDs(a)) == 1 })

	// b restarts under the same identity: its fresh wall-clock
	// incarnation must outrank the dead tombstone everywhere.
	net.setBlocked("b", false)
	b2 := newAgent(t, net, "b", 20)
	defer b2.Stop()
	if err := b2.Join("a"); err != nil {
		t.Fatal(err)
	}
	b2.Start()
	waitFor(t, "b re-joined", func() bool { return sameRing([]*Agent{a, b2}, 2) })
}

func TestOnChangeFiresOnRingChange(t *testing.T) {
	net := newMemNet()
	var mu sync.Mutex
	var changes [][]string
	a, err := New(Config{
		ID:           "a",
		Interval:     5 * time.Millisecond,
		SuspectAfter: 40 * time.Millisecond,
		DeadAfter:    120 * time.Millisecond,
		Transport:    &memTransport{net: net, from: "a"},
		Seed:         1,
		Logf:         func(string, ...any) {},
		OnChange: func(ms []Member) {
			ids := make([]string, len(ms))
			for i, m := range ms {
				ids[i] = m.ID
			}
			mu.Lock()
			changes = append(changes, ids)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.add(a)
	b := newAgent(t, net, "b", 2)
	defer a.Stop()
	defer b.Stop()
	if err := b.Join("a"); err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	waitFor(t, "join notification", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(changes) >= 1 && len(changes[len(changes)-1]) == 2
	})

	b.Leave()
	waitFor(t, "leave notification", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(changes) >= 2 && len(changes[len(changes)-1]) == 1
	})
}

func TestPartitionFlapRecovers(t *testing.T) {
	net := newMemNet()
	agents := []*Agent{
		newAgent(t, net, "a", 1),
		newAgent(t, net, "b", 2),
		newAgent(t, net, "c", 3),
	}
	for _, a := range agents {
		defer a.Stop()
	}
	if err := agents[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := agents[2].Join("a"); err != nil {
		t.Fatal(err)
	}
	for _, a := range agents {
		a.Start()
	}
	waitFor(t, "convergence", func() bool { return sameRing(agents, 3) })

	// Flap: partition c away long enough to be suspected (not dead),
	// then heal. c keeps gossiping into the void the whole time, so on
	// heal its heartbeat progress clears the suspicion without needing
	// a refutation incarnation bump.
	net.setBlocked("c", true)
	waitFor(t, "c suspected", func() bool {
		for _, m := range members(agents[0]) {
			if m.ID == "c" {
				return m.Status == StatusSuspect
			}
		}
		return false
	})
	net.setBlocked("c", false)
	waitFor(t, "flap healed", func() bool {
		if !sameRing(agents, 3) {
			return false
		}
		for _, m := range members(agents[0]) {
			if m.ID == "c" {
				return m.Status == StatusAlive
			}
		}
		return false
	})
}

func TestDiscoverDoesNotJoin(t *testing.T) {
	net := newMemNet()
	a := newAgent(t, net, "a", 1)
	b := newAgent(t, net, "b", 2)
	defer a.Stop()
	defer b.Stop()
	if err := b.Join("a"); err != nil {
		t.Fatal(err)
	}
	tr := &memTransport{net: net, from: "observer"}
	ms, err := Discover(tr, "bogus", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("discovered %d members, want 2", len(ms))
	}
	for _, m := range members(a) {
		if m.ID == "observer" {
			t.Fatal("discovery probe joined the ring")
		}
	}
}

func TestWatcherTracksRingChanges(t *testing.T) {
	net := newMemNet()
	a := newAgent(t, net, "a", 1)
	b := newAgent(t, net, "b", 2)
	defer a.Stop()
	if err := b.Join("a"); err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	waitFor(t, "convergence", func() bool { return sameRing([]*Agent{a, b}, 2) })

	var mu sync.Mutex
	var last []string
	w, err := NewWatcher(WatcherConfig{
		Seeds:     []string{"a"},
		Interval:  5 * time.Millisecond,
		Transport: &memTransport{net: net, from: "watcher"},
		Logf:      func(string, ...any) {},
		OnChange: func(ms []Member) {
			ids := make([]string, len(ms))
			for i, m := range ms {
				ids[i] = m.ID
			}
			mu.Lock()
			last = ids
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	waitFor(t, "watcher sees both members", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(last) == 2
	})

	// b dies; the watcher must converge on the shrunken ring.
	net.setBlocked("b", true)
	b.Stop()
	waitFor(t, "watcher sees b gone", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(last) == 1 && last[0] == "a"
	})
}

// TestSeedRetryJoinsLateSeed starts a node whose configured seed does
// not exist yet; once the seed appears on the fabric, the gossip
// loop's seed-retry fallback must join the two without any explicit
// Join call succeeding first.
func TestSeedRetryJoinsLateSeed(t *testing.T) {
	net := newMemNet()
	late, err := New(Config{
		ID:           "late",
		Interval:     5 * time.Millisecond,
		SuspectAfter: 40 * time.Millisecond,
		DeadAfter:    120 * time.Millisecond,
		Transport:    &memTransport{net: net, from: "late"},
		Seeds:        []string{"seed"},
		Seed:         7,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.add(late)
	if err := late.Join("seed"); err == nil {
		t.Fatal("join succeeded against a seed that does not exist yet")
	}
	late.Start()
	defer late.Stop()

	time.Sleep(25 * time.Millisecond) // a few lonely rounds pass
	seed := newAgent(t, net, "seed", 8)
	seed.Start()
	defer seed.Stop()

	waitFor(t, "late node to join via seed retry", func() bool {
		return sameRing([]*Agent{late, seed}, 2)
	})
}
