package membership

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dcdb/internal/backoff"
)

// fanout is how many peers each gossip round, and a departure,
// exchanges state with.
const fanout = 2

// Config tunes one node's membership agent.
type Config struct {
	// ID is this node's stable identity; by convention its advertised
	// address. Required.
	ID string
	// Addr is the RPC endpoint peers exchange gossip with. Defaults to
	// ID.
	Addr string
	// Interval is the gossip round cadence: each round the agent bumps
	// its heartbeat and push-pull exchanges state with fanout peers.
	// Default 250ms.
	Interval time.Duration
	// SuspectAfter marks a member Suspect when its heartbeat has not
	// advanced for this long. Suspect members still serve placement
	// (reads/writes keep trying them) — suspicion is a rumour, not a
	// verdict. Default 8x Interval.
	SuspectAfter time.Duration
	// DeadAfter marks a member Dead, removing it from placement, when
	// its heartbeat has not advanced for this long. Must exceed
	// SuspectAfter. Default 4x SuspectAfter.
	DeadAfter time.Duration
	// Transport carries one exchange to a peer address. Defaults to the
	// RPC transport (opGossip). Tests inject in-memory transports.
	Transport Transport
	// Seeds are peer addresses retried by the gossip loop whenever the
	// agent knows no reachable peer — a node started before its seed
	// (or isolated long enough to forget everyone) still joins once the
	// seed appears. Join(seeds...) remains the explicit fast path.
	Seeds []string
	// OnChange, when set, fires after the ring-member set (everyone not
	// Dead/Left) changes, with the new table snapshot. Called from the
	// gossip goroutine, never under the agent's lock.
	OnChange func([]Member)
	// Seed makes peer selection deterministic for seeded chaos runs;
	// 0 derives from the wall clock.
	Seed int64
	// Logf logs membership transitions. Default log.Printf.
	Logf func(format string, args ...any)
}

// Transport carries one push-pull exchange: deliver our state to the
// peer at addr, return the peer's state.
type Transport interface {
	Exchange(addr string, state []byte) ([]byte, error)
	Close() error
}

// peerView is the agent's local bookkeeping for one remote member.
type peerView struct {
	m        Member
	lastSeen time.Time // when the heartbeat last advanced (local clock)
	fails    int       // consecutive exchange failures
	retryAt  time.Time // backoff gate for the next exchange attempt
}

// Agent runs the gossip protocol for one node.
type Agent struct {
	cfg Config
	pol backoff.Policy // paces exchanges to unresponsive peers

	mu       sync.Mutex
	self     Member
	peers    map[string]*peerView // by ID, self excluded
	lastRing string               // ringKey of the last OnChange notification
	rng      *rand.Rand

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool
	stopped bool
}

// New builds an agent. The node's first incarnation is seeded from the
// wall clock, so a restarted node outranks every rumour about its
// previous life without persisting anything.
func New(cfg Config) (*Agent, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("membership: config needs an ID")
	}
	if cfg.Addr == "" {
		cfg.Addr = cfg.ID
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 8 * cfg.Interval
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = 4 * cfg.SuspectAfter
	}
	if cfg.Transport == nil {
		cfg.Transport = NewRPCTransport(RPCTransportOptions{})
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	a := &Agent{
		cfg: cfg,
		pol: backoff.Policy{Initial: cfg.Interval, Max: cfg.DeadAfter, Multiplier: 2, Jitter: 0.25},
		self: Member{
			ID: cfg.ID, Addr: cfg.Addr,
			Incarnation: uint64(time.Now().UnixNano()),
			Status:      StatusAlive,
		},
		peers: make(map[string]*peerView),
		rng:   rand.New(rand.NewSource(seed)),
		stop:  make(chan struct{}),
	}
	return a, nil
}

func (a *Agent) snapshotLocked() []Member {
	out := make([]Member, 0, len(a.peers)+1)
	out = append(out, a.self)
	for _, pv := range a.peers {
		out = append(out, pv.m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ringMembersLocked lists the placement-eligible members: everyone not
// Dead or Left, sorted by ID. This is the set OnChange hands to the
// consistent-hash ring.
func (a *Agent) ringMembersLocked() []Member {
	out := make([]Member, 0, len(a.peers)+1)
	if a.self.Status < StatusLeft {
		out = append(out, a.self)
	}
	for _, pv := range a.peers {
		if pv.m.Status < StatusLeft {
			out = append(out, pv.m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Handle is the opGossip server callback: merge the peer's table into
// ours, return ours (the pull half of push-pull). Safe to call before
// Start — a node answers gossip as soon as its RPC server is up.
func (a *Agent) Handle(peerState []byte) ([]byte, error) {
	ms, err := decodeState(peerState)
	if err != nil {
		return nil, err
	}
	a.mergeTable(ms)
	a.mu.Lock()
	resp := encodeState(a.snapshotLocked())
	a.mu.Unlock()
	a.notify()
	return resp, nil
}

// mergeTable folds a received table into the local one under the
// supersedes rules, refuting rumours about self.
func (a *Agent) mergeTable(ms []Member) {
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range ms {
		if m.ID == a.self.ID {
			// A rumour about us that outranks our own record and is not
			// Alive would evict us from placement: refute by jumping to a
			// higher incarnation — the new record outranks the rumour
			// everywhere it has already spread.
			if m.Status != StatusAlive && !supersedes(a.self, m) && a.self.Status < StatusLeft {
				a.self.Incarnation = m.Incarnation + 1
				a.self.Status = StatusAlive
				a.cfg.Logf("membership: refuting %s rumour about %s (incarnation %d)", m.Status, a.self.ID, a.self.Incarnation)
			}
			continue
		}
		pv, ok := a.peers[m.ID]
		if !ok {
			a.peers[m.ID] = &peerView{m: m, lastSeen: now}
			if m.Status < StatusLeft {
				a.cfg.Logf("membership: %s: learned of %s (%s)", a.self.ID, m.ID, m.Status)
			}
			continue
		}
		if !supersedes(m, pv.m) {
			continue
		}
		// Heartbeat or incarnation progress is liveness evidence; a pure
		// status escalation (another node's suspicion) is not.
		if m.Incarnation > pv.m.Incarnation || m.Heartbeat > pv.m.Heartbeat {
			pv.lastSeen = now
		}
		if m.Status != pv.m.Status {
			a.cfg.Logf("membership: %s: %s is now %s", a.self.ID, m.ID, m.Status)
		}
		pv.m = m
	}
}

// notify fires OnChange when the placement-eligible set changed since
// the last notification.
func (a *Agent) notify() {
	if a.cfg.OnChange == nil {
		return
	}
	a.mu.Lock()
	rm := a.ringMembersLocked()
	ids := make([]string, len(rm))
	for i, m := range rm {
		ids[i] = m.ID
	}
	key := ringKey(ids)
	changed := key != a.lastRing
	a.lastRing = key
	a.mu.Unlock()
	if changed {
		a.cfg.OnChange(rm)
	}
}

// Join seeds the member table by exchanging directly with any of the
// given peer addresses, first success wins. Call before or after
// Start.
func (a *Agent) Join(seeds ...string) error {
	var lastErr error
	for _, addr := range seeds {
		if addr == "" || addr == a.cfg.Addr {
			continue
		}
		a.mu.Lock()
		a.self.Heartbeat++
		state := encodeState(a.snapshotLocked())
		a.mu.Unlock()
		resp, err := a.cfg.Transport.Exchange(addr, state)
		if err != nil {
			lastErr = err
			continue
		}
		ms, err := decodeState(resp)
		if err != nil {
			lastErr = err
			continue
		}
		a.mergeTable(ms)
		a.notify()
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("membership: no usable seed address")
	}
	return fmt.Errorf("membership: join failed: %w", lastErr)
}

// Start launches the gossip loop. Idempotent.
func (a *Agent) Start() {
	a.mu.Lock()
	if a.started || a.stopped {
		a.mu.Unlock()
		return
	}
	a.started = true
	a.mu.Unlock()
	a.wg.Add(1)
	go a.loop()
}

// Stop halts the loop and closes the transport. The agent's table
// remains readable.
func (a *Agent) Stop() {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.stopped = true
	started := a.started
	a.mu.Unlock()
	close(a.stop)
	if started {
		a.wg.Wait()
	}
	_ = a.cfg.Transport.Close()
}

// Leave disseminates a graceful departure (best effort, to fanout
// peers) and stops the agent. Peers mark us Left at our final
// incarnation — no suspicion timeout, no dead rumour to refute later.
func (a *Agent) Leave() {
	a.mu.Lock()
	if a.self.Status < StatusLeft {
		a.self.Status = StatusLeft
		a.self.Heartbeat++
	}
	state := encodeState(a.snapshotLocked())
	targets := a.pickPeersLocked(fanout)
	a.mu.Unlock()
	for _, addr := range targets {
		_, _ = a.cfg.Transport.Exchange(addr, state)
	}
	a.Stop()
}

// loop is the gossip round driver.
func (a *Agent) loop() {
	defer a.wg.Done()
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			a.round()
		}
	}
}

// round bumps our heartbeat, runs failure detection, and exchanges
// with fanout peers.
func (a *Agent) round() {
	now := time.Now()
	a.mu.Lock()
	a.self.Heartbeat++
	for _, pv := range a.peers {
		if pv.m.Status >= StatusLeft {
			continue
		}
		idle := now.Sub(pv.lastSeen)
		switch {
		case idle >= a.cfg.DeadAfter:
			if pv.m.Status != StatusDead {
				pv.m.Status = StatusDead
				a.cfg.Logf("membership: %s: %s is now dead (no heartbeat for %v)", a.self.ID, pv.m.ID, idle.Round(time.Millisecond))
			}
		case idle >= a.cfg.SuspectAfter:
			if pv.m.Status == StatusAlive {
				pv.m.Status = StatusSuspect
				a.cfg.Logf("membership: %s: %s is now suspect", a.self.ID, pv.m.ID)
			}
		}
	}
	state := encodeState(a.snapshotLocked())
	targets := a.pickPeersLocked(fanout)
	a.mu.Unlock()

	if len(targets) == 0 && len(a.cfg.Seeds) > 0 {
		// Alone, or every known peer is backed off: fall back to the
		// configured seeds so a node that started before its seed (or
		// was partitioned away long enough) still finds the cluster.
		_ = a.Join(a.cfg.Seeds...)
		return
	}

	for _, addr := range targets {
		resp, err := a.cfg.Transport.Exchange(addr, state)
		if err != nil {
			a.noteExchangeFailure(addr)
			continue
		}
		ms, derr := decodeState(resp)
		if derr != nil {
			a.cfg.Logf("membership: %s: bad gossip response from %s: %v", a.self.ID, addr, derr)
			continue
		}
		a.noteExchangeSuccess(addr)
		a.mergeTable(ms)
	}
	a.notify()
}

// pickPeersLocked selects up to n exchange targets: a random subset of
// the non-Left peers whose backoff gate is open. Dead peers stay in
// rotation (at backoff cadence) so a recovered or restarted node is
// re-learned from either side.
func (a *Agent) pickPeersLocked(n int) []string {
	now := time.Now()
	cand := make([]string, 0, len(a.peers))
	for _, pv := range a.peers {
		if pv.m.Status == StatusLeft || now.Before(pv.retryAt) {
			continue
		}
		cand = append(cand, pv.m.Addr)
	}
	sort.Strings(cand) // deterministic base order for the seeded shuffle
	a.rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	if len(cand) > n {
		cand = cand[:n]
	}
	return cand
}

func (a *Agent) noteExchangeFailure(addr string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, pv := range a.peers {
		if pv.m.Addr == addr {
			pv.fails++
			pv.retryAt = time.Now().Add(a.pol.Delay(pv.fails))
			return
		}
	}
}

func (a *Agent) noteExchangeSuccess(addr string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, pv := range a.peers {
		if pv.m.Addr == addr {
			pv.fails = 0
			pv.retryAt = time.Time{}
			return
		}
	}
}
